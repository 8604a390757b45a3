//! Campaigns: a [`ScenarioSpec`] turned into a runnable, sharded,
//! deterministic simulation. Every campaign runs through here — a bundled
//! scenario file, the CLI's campaign flags, and the standard campaign the
//! figure binaries analyze ([`standard_campaign`]).
//!
//! This is the execution half of the scenario DSL (`wdt_types::scenario`
//! is the schema half): topology → [`FleetSpec`], arrival mix →
//! [`ArrivalMix`], capacity events → a [`wdt_sim::CapacitySchedule`]
//! attached to every shard's simulator, background regime → the standard
//! hidden-load processes. Each time shard (see [`crate::campaign`]) has
//! its own RNG stream derived from (seed, `"campaign-run"`, run index), so
//! parallel, serial and streamed runs give the same records bit for bit.
//! Logs can be cached on disk ([`ScenarioCampaign::simulate_cached`]).

use crate::campaign::{heavy_edge_pairs, merge_shard_outputs, shard_by_window, CampaignOutput};
use rayon::prelude::*;
use std::path::{Path, PathBuf};
use wdt_sim::{CapacitySchedule, EndpointCatalog, SimConfig, SimOutput, SimStats, Simulator};
use wdt_types::{
    ArrivalSpec, BackgroundSpec, ScenarioSpec, SeedSeq, TopologySpec, TrafficSpec, TransferRecord,
    TransferRequest,
};
use wdt_workload::{ArrivalMix, Burst, FleetSpec, Workload, WorkloadSpec};

/// A validated, runnable scenario.
#[derive(Debug, Clone)]
pub struct ScenarioCampaign {
    spec: ScenarioSpec,
}

impl ScenarioCampaign {
    /// Wrap a parsed spec, validating everything the schema layer cannot
    /// see: the site catalog bound and capacity-event endpoint indices
    /// against the generated fleet size.
    pub fn new(spec: ScenarioSpec) -> Result<ScenarioCampaign, String> {
        let t = &spec.topology;
        let catalog = wdt_geo::SiteCatalog::len();
        if t.sites > catalog {
            return Err(format!(
                "scenario '{}': topology.sites = {} exceeds the {catalog}-site catalog",
                spec.name, t.sites
            ));
        }
        let fleet_size = t.sites + t.extra_servers + t.personal;
        for (i, ev) in spec.capacity.iter().enumerate() {
            for &ep in &ev.endpoints {
                if ep as usize >= fleet_size {
                    return Err(format!(
                        "scenario '{}': capacity[{i}] references endpoint {ep} but the \
                         topology generates only {fleet_size} endpoints",
                        spec.name
                    ));
                }
            }
        }
        Ok(ScenarioCampaign { spec })
    }

    /// Parse and validate a scenario file.
    pub fn from_file(path: &Path) -> Result<ScenarioCampaign, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec =
            ScenarioSpec::from_text(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        ScenarioCampaign::new(spec)
    }

    /// The validated spec.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The workload this scenario generates.
    pub fn workload(&self) -> Workload {
        let s = &self.spec;
        let mix = match &s.arrivals {
            ArrivalSpec::Diurnal { depth } => ArrivalMix::Diurnal { depth: *depth },
            ArrivalSpec::Poisson => ArrivalMix::Poisson,
            ArrivalSpec::FlashCrowd { depth, bursts } => ArrivalMix::FlashCrowd {
                depth: *depth,
                bursts: bursts
                    .iter()
                    .map(|b| Burst {
                        start_s: b.start_day * 86_400.0,
                        dur_s: b.duration_hours * 3_600.0,
                        multiplier: b.multiplier,
                    })
                    .collect(),
            },
        };
        WorkloadSpec {
            fleet: FleetSpec {
                sites: s.topology.sites,
                extra_servers: s.topology.extra_servers,
                personal: s.topology.personal,
            },
            heavy_edges: s.traffic.heavy_edges,
            heavy_sessions_per_day: s.traffic.heavy_sessions_per_day,
            heavy_session_len: s.traffic.heavy_session_len,
            sparse_edges: s.traffic.sparse_edges,
            days: s.days,
            mix,
        }
        .generate(&SeedSeq::new(s.seed))
    }

    /// The engine config (topology overrides applied).
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            max_active_per_endpoint: self.spec.topology.max_active_per_endpoint,
            ..SimConfig::default()
        }
    }

    /// The capacity-modulation schedule from the spec's capacity events.
    pub fn schedule(&self) -> CapacitySchedule {
        CapacitySchedule::from_events(&self.spec.capacity)
    }

    /// The workload's requests in `runs` submit-time shards.
    fn shards(&self, workload: &Workload) -> Vec<Vec<TransferRequest>> {
        shard_by_window(self.spec.days, self.spec.traffic.runs, &workload.requests)
    }

    /// Build and run shard `run`'s simulator: its own (seed, run)-derived
    /// RNG stream, the engine config, the background regime and the
    /// capacity schedule. Every runner comes through here, so the
    /// parallel, serial and streaming paths cannot diverge. With a `sink`
    /// the records go to it as transfers complete and the returned log is
    /// empty.
    fn run_shard(
        &self,
        endpoints: &EndpointCatalog,
        run: usize,
        requests: &[TransferRequest],
        sink: Option<&mut dyn FnMut(TransferRecord)>,
    ) -> SimOutput {
        let _span = wdt_obs::span("scenario.shard");
        let root = SeedSeq::new(self.spec.seed);
        let shard_seed = SeedSeq::new(root.derive_indexed("campaign-run", run as u64));
        let mut sim = Simulator::new(endpoints.clone(), self.sim_config(), &shard_seed);
        sim.add_default_background(
            self.spec.background.per_endpoint,
            self.spec.background.intensity,
        );
        let schedule = self.schedule();
        if !schedule.is_empty() {
            sim.set_modulation(schedule);
        }
        for req in requests {
            sim.submit(req.clone());
        }
        match sink {
            Some(sink) => sim.run_streaming(sink),
            None => sim.run(),
        }
    }

    /// Run the scenario with shards executed in parallel. Bit-identical to
    /// [`ScenarioCampaign::simulate_serial`]: every shard's RNG stream is
    /// derived from (seed, run index) regardless of scheduling, and the
    /// capacity schedule is a pure function of simulated time shared by
    /// all shards.
    pub fn simulate(&self) -> CampaignOutput {
        let _span = wdt_obs::span("scenario.simulate");
        let workload = self.workload();
        let outs: Vec<SimOutput> = self
            .shards(&workload)
            .par_iter()
            .enumerate()
            .map(|(run, reqs)| self.run_shard(&workload.endpoints, run, reqs, None))
            .collect();
        merge_shard_outputs(&workload, outs)
    }

    /// Run the scenario with shards executed sequentially.
    pub fn simulate_serial(&self) -> CampaignOutput {
        let _span = wdt_obs::span("scenario.simulate_serial");
        let workload = self.workload();
        let outs: Vec<SimOutput> = self
            .shards(&workload)
            .iter()
            .enumerate()
            .map(|(run, reqs)| self.run_shard(&workload.endpoints, run, reqs, None))
            .collect();
        merge_shard_outputs(&workload, outs)
    }

    /// Stream the campaign through `sink` without materializing the log.
    ///
    /// Shards run serially (one simulator alive at a time) and each drains
    /// its records into the sink as transfers complete, so peak memory is
    /// bounded by a single shard's *active* state rather than the full
    /// log. Records arrive in per-shard completion order; the record *set*
    /// is bit-identical to [`ScenarioCampaign::simulate`].
    pub fn stream_into(&self, sink: &mut dyn FnMut(TransferRecord)) -> StreamSummary {
        let _span = wdt_obs::span("scenario.stream_into");
        let workload = self.workload();
        let mut stats = SimStats::default();
        let mut records = 0usize;
        for (run, reqs) in self.shards(&workload).iter().enumerate() {
            let mut counted = |r: TransferRecord| {
                records += 1;
                sink(r);
            };
            let out = self.run_shard(&workload.endpoints, run, reqs, Some(&mut counted));
            stats.merge(&out.stats);
        }
        StreamSummary { records, heavy_edges: heavy_edge_pairs(&workload), stats }
    }

    /// Run the campaign, or load its log from the on-disk cache under
    /// `WDT_CACHE_DIR` (default `target/wdt-cache`).
    pub fn simulate_cached(&self) -> CampaignOutput {
        let dir = std::env::var("WDT_CACHE_DIR").unwrap_or_else(|_| "target/wdt-cache".into());
        self.simulate_cached_in(Path::new(&dir))
    }

    /// This campaign's cache file under `dir`. The key hashes the canonical
    /// spec text, so every field is in it; the seed is also the hash's
    /// root, because the text rounds seeds above 2^53.
    fn cache_path(&self, dir: &Path) -> PathBuf {
        let key = SeedSeq::new(self.spec.seed).derive(&self.spec.to_text());
        dir.join(format!("{}-{key:016x}.csv", self.spec.name))
    }

    fn simulate_cached_in(&self, dir: &Path) -> CampaignOutput {
        let path = self.cache_path(dir);
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Some(out) = CampaignOutput::from_cache_text(&text) {
                eprintln!("[campaign] loaded cached log from {}", path.display());
                return out;
            }
        }
        eprintln!(
            "[campaign] simulating {} days of traffic ({} shard(s), {} thread(s)) ...",
            self.spec.days,
            self.spec.traffic.runs.max(1),
            rayon::current_num_threads(),
        );
        let t0 = std::time::Instant::now();
        let out = self.simulate();
        eprintln!(
            "[campaign] simulated {} transfers in {:.1}s ({})",
            out.records.len(),
            t0.elapsed().as_secs_f64(),
            out.stats.summary(),
        );
        let _ = std::fs::create_dir_all(dir);
        let _ = std::fs::write(&path, out.to_cache_text());
        out
    }
}

/// What [`ScenarioCampaign::stream_into`] returns: everything
/// [`CampaignOutput`] carries except the log itself.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Records handed to the sink.
    pub records: usize,
    /// The generated heavy edges, as (src, dst) endpoint indices.
    pub heavy_edges: Vec<(u32, u32)>,
    /// Engine counters merged across shards.
    pub stats: SimStats,
}

/// The standard campaign the paper's figures analyze in place of the
/// production log: 30 days of the default fleet with 45 heavy and 400
/// sparse edges, seed 2017, every other knob at its default.
pub fn standard_campaign() -> ScenarioCampaign {
    ScenarioCampaign::new(ScenarioSpec {
        name: "standard".into(),
        description: "The standard 30-day campaign behind the paper's figures.".into(),
        seed: 2017,
        days: 30.0,
        topology: TopologySpec::default(),
        traffic: TrafficSpec { heavy_edges: 45, sparse_edges: 400, ..TrafficSpec::default() },
        arrivals: ArrivalSpec::default(),
        background: BackgroundSpec::default(),
        capacity: Vec::new(),
    })
    .expect("the standard campaign is valid")
}

/// The standard campaign's log, cached on disk.
pub fn standard_log() -> CampaignOutput {
    standard_campaign().simulate_cached()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(text: &str) -> ScenarioCampaign {
        ScenarioCampaign::new(ScenarioSpec::from_text(text).expect("parse")).expect("validate")
    }

    /// A small default-knob campaign and the same with a capacity window.
    fn plain_and_degraded() -> [ScenarioCampaign; 2] {
        [
            scenario(
                r#"{"name": "plain", "days": 2.0,
                    "traffic": {"heavy_edges": 5, "sparse_edges": 20}}"#,
            ),
            scenario(
                r#"{"name": "deg", "days": 2.0,
                    "traffic": {"heavy_edges": 5, "sparse_edges": 20},
                    "capacity": [{"kind": "degradation", "endpoints": [0, 1, 2],
                                  "start_day": 0.5, "end_day": 1.25, "factor": 0.3}]}"#,
            ),
        ]
    }

    #[test]
    fn small_campaign_runs_end_to_end() {
        let out = scenario(
            r#"{"name": "small", "days": 2.0,
                "traffic": {"heavy_edges": 3, "sparse_edges": 10}}"#,
        )
        .simulate();
        assert!(out.records.len() > 50, "only {} records", out.records.len());
        assert_eq!(out.heavy_edges.len(), 3);
        // All transfers completed with positive duration.
        assert!(out.records.iter().all(|r| r.end > r.start));
        // The merged log is in global (start, id) order and the counters
        // reflect real engine work.
        assert!(out.records.windows(2).all(|w| (w[0].start, w[0].id) <= (w[1].start, w[1].id)));
        assert!(out.stats.events > 0 && out.stats.reallocations > 0);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        for s in plain_and_degraded() {
            let par = s.simulate();
            let ser = s.simulate_serial();
            let name = &s.spec().name;
            assert_eq!(par.records, ser.records, "{name}");
            assert_eq!(par.heavy_edges, ser.heavy_edges, "{name}");
            // realloc_time_s and phase_nanos are wall-clock measurements,
            // not simulation state; the deterministic counters must match.
            assert_eq!(par.stats.events, ser.stats.events, "{name}");
            assert_eq!(par.stats.reallocations, ser.stats.reallocations, "{name}");
            assert_eq!(par.stats.max_queue_depth, ser.stats.max_queue_depth, "{name}");
            assert_eq!(par.stats.scratch_reuses, ser.stats.scratch_reuses, "{name}");
            assert_eq!(par.stats.oracle_invocations, ser.stats.oracle_invocations, "{name}");
            assert_eq!(par.stats.waiting_drains, ser.stats.waiting_drains, "{name}");
            assert_eq!(par.stats.invariant_checks, ser.stats.invariant_checks, "{name}");
        }
    }

    #[test]
    fn shard_count_changes_results_but_single_shard_matches_monolith() {
        // One shard is the monolithic campaign shape: the whole request
        // set in one simulator. More shards give a different (but
        // internally deterministic) realization.
        let one = scenario(
            r#"{"name": "one", "days": 2.0,
                "traffic": {"heavy_edges": 3, "sparse_edges": 10, "runs": 1}}"#,
        );
        let a = one.simulate();
        let b = one.simulate();
        assert_eq!(a.records, b.records);
        let mut four = one.spec().clone();
        four.traffic.runs = 4;
        let c = ScenarioCampaign::new(four).expect("valid").simulate();
        assert_eq!(a.records.len(), c.records.len(), "sharding keeps the request set");
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn streamed_campaign_matches_batch_record_set() {
        // The degraded input streams under capacity modulation: its
        // ModChange boundary events must land in every streamed shard.
        for s in plain_and_degraded() {
            let batch = s.simulate();
            let mut streamed = Vec::new();
            let summary = s.stream_into(&mut |r| streamed.push(r));
            let name = &s.spec().name;
            assert_eq!(summary.records, streamed.len(), "{name}");
            assert_eq!(summary.records, batch.records.len(), "{name}");
            assert_eq!(summary.heavy_edges, batch.heavy_edges, "{name}");
            streamed.sort_by(|a, b| a.start.cmp(&b.start).then(a.id.cmp(&b.id)));
            assert_eq!(streamed, batch.records, "{name}");
            assert_eq!(summary.stats.events, batch.stats.events, "{name}");
            assert_eq!(summary.stats.reallocations, batch.stats.reallocations, "{name}");
        }
    }

    #[test]
    fn cache_key_distinguishes_specs() {
        let [plain, degraded] = plain_and_degraded();
        let dir = Path::new("cache");
        let base = plain.spec().clone();
        let mut days = base.clone();
        days.days = 3.0;
        let mut runs = base.clone();
        runs.traffic.runs = 8;
        let mut event = degraded.spec().clone();
        event.name = base.name.clone();
        let mut other_event = event.clone();
        other_event.capacity[0].factor = 0.31;
        let paths: Vec<PathBuf> = [base, days, runs, event, other_event]
            .into_iter()
            .map(|s| ScenarioCampaign::new(s).expect("valid").cache_path(dir))
            .collect();
        for (i, a) in paths.iter().enumerate() {
            assert!(a.starts_with(dir), "{}", a.display());
            for b in &paths[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(paths[0], plain.cache_path(dir), "the key is a pure function of the spec");
    }

    #[test]
    fn unparsable_cache_file_is_regenerated() {
        let c = scenario(
            r#"{"name": "cached", "days": 0.5,
                "traffic": {"heavy_edges": 2, "sparse_edges": 6, "runs": 2}}"#,
        );
        let dir = std::env::temp_dir().join(format!("wdt-bench-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("cache dir");
        let path = c.cache_path(&dir);
        std::fs::write(&path, "# heavy_edges: 1-x\nnot a log\n").expect("junk");
        let fresh = c.simulate_cached_in(&dir);
        assert!(fresh.stats.events > 0, "junk cache was loaded instead of simulating");
        assert_eq!(fresh.records, c.simulate().records);
        let reloaded = c.simulate_cached_in(&dir);
        assert_eq!(reloaded.stats.events, 0, "the regenerated cache was not used");
        assert_eq!(reloaded.records, fresh.records);
        assert_eq!(reloaded.heavy_edges, fresh.heavy_edges);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degradation_window_slows_affected_transfers() {
        let base = scenario(
            r#"{"name": "base", "days": 2.0,
                "traffic": {"heavy_edges": 5, "sparse_edges": 20}}"#,
        );
        let deg = scenario(
            r#"{"name": "deg", "days": 2.0,
                "traffic": {"heavy_edges": 5, "sparse_edges": 20},
                "capacity": [{"kind": "degradation",
                              "endpoints": [0,1,2,3,4,5,6,7,8,9,10,11],
                              "start_day": 0.0, "end_day": 2.0, "factor": 0.1}]}"#,
        );
        let rate = |out: &CampaignOutput| {
            let sum: f64 = out.records.iter().map(|r| r.rate().as_f64()).sum();
            sum / out.records.len() as f64
        };
        let (rb, rd) = (rate(&base.simulate()), rate(&deg.simulate()));
        // Degrading every hub NIC to 10% must visibly depress mean rates.
        assert!(rd < rb * 0.8, "degraded {rd:.0} vs base {rb:.0}");
    }

    #[test]
    fn out_of_fleet_capacity_endpoint_rejected() {
        let spec = ScenarioSpec::from_text(
            r#"{"name": "bad", "days": 1.0,
                "topology": {"sites": 5, "extra_servers": 0, "personal": 0},
                "capacity": [{"kind": "outage", "endpoints": [5],
                              "start_day": 0.0, "end_day": 0.5}]}"#,
        )
        .expect("schema-valid");
        let err = ScenarioCampaign::new(spec).expect_err("must reject");
        assert!(err.contains("endpoint 5") && err.contains("5 endpoints"), "{err}");
    }

    #[test]
    fn max_active_override_throttles_concurrency() {
        let tight = scenario(
            r#"{"name": "tight", "days": 1.0,
                "topology": {"max_active_per_endpoint": 1},
                "traffic": {"heavy_edges": 4, "sparse_edges": 10}}"#,
        );
        let out = tight.simulate();
        assert!(out.stats.max_queue_depth > 0, "slot limit never queued anything");
    }
}
