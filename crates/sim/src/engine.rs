//! The discrete-event simulation engine.
//!
//! See the crate docs for the model. The engine owns the endpoint catalog,
//! the event queue, the set of active flows, and the background-load
//! processes; it advances a fluid model where the running flows' rates are
//! recomputed by [`crate::alloc::allocate`] at each event that can change
//! them.

use crate::alloc::{allocate_into, AllocScratch, FlowDemand, MAX_FLOW_RESOURCES};
use crate::background::{BackgroundProcess, BgKind};
use crate::config::SimConfig;
use crate::endpoint::EndpointCatalog;
use crate::event::{EventKind, EventQueue};
use crate::lmt::{LmtMonitor, LmtSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};
use wdt_geo::rtt_estimate;
use wdt_net::{aggregate_ceiling, stream_efficiency, TcpParams};
use wdt_types::{EndpointId, SeedSeq, SimTime, TransferRecord, TransferRequest};

/// What a flow actually touches, mirroring the measurement modes the paper
/// uses on the ESnet testbed (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferMode {
    /// Normal disk-to-disk transfer (reads at source, writes at destination).
    DiskToDisk,
    /// `/dev/zero → /dev/null`: network + CPU only (perfSONAR / iperf3 /
    /// `MMmax` measurements).
    MemToMem,
    /// `disk → /dev/null`: exercises source storage read (`DRmax`).
    DiskToNull,
    /// `/dev/zero → disk`: exercises destination storage write (`DWmax`).
    ZeroToDisk,
}

impl TransferMode {
    fn reads_disk(self) -> bool {
        matches!(self, TransferMode::DiskToDisk | TransferMode::DiskToNull)
    }
    fn writes_disk(self) -> bool {
        matches!(self, TransferMode::DiskToDisk | TransferMode::ZeroToDisk)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowState {
    /// Startup + metadata overhead; occupies processes, moves no data.
    Overhead,
    /// Moving data.
    Running,
    /// Fault retry wait.
    Paused,
}

#[derive(Debug, Clone)]
struct ActiveFlow {
    req: TransferRequest,
    mode: TransferMode,
    start: SimTime,
    remaining: f64,
    rate: f64,
    faults: u32,
    state: FlowState,
    fault_gen: u64,
    /// Bytes actually moved, accumulated independently of `remaining` so
    /// the invariant checker can verify byte conservation at completion.
    moved: f64,
    /// Private network ceiling (`demand.cap`), fair-share weight and shared
    /// resources, built once at start: they depend only on the request, the
    /// mode and the flow's jitter, all fixed for its lifetime.
    demand: FlowDemand,
}

impl ActiveFlow {
    fn procs(&self) -> u32 {
        self.req.effective_concurrency()
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// One record per completed transfer, sorted by start time.
    pub records: Vec<TransferRecord>,
    /// LMT monitor samples (empty unless a monitor was attached).
    pub lmt: Vec<LmtSample>,
    /// Time of the last event processed.
    pub horizon: SimTime,
    /// Run counters (events, reallocations, queue pressure).
    pub stats: SimStats,
}

/// Per-run observability counters, surfaced through [`SimOutput`] and
/// printed by the CLI (this replaces the old `WDT_SIM_DEBUG` eprintln
/// tracing).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Events popped from the event queue.
    pub events: u64,
    /// Rate reallocations performed. An arrival, background toggle or
    /// capacity boundary that changes no capacity a running flow draws on
    /// skips its reallocation (the result would be bitwise the current
    /// rates) and is not counted. With checking enabled, the differential
    /// oracle samples every `WDT_CHECK_ORACLE_EVERY`-th performed
    /// reallocation (see [`crate::check::oracle_every`]).
    pub reallocations: u64,
    /// Wall-clock seconds spent inside [`Simulator::reallocate`].
    pub realloc_time_s: f64,
    /// High-water mark of the waiting (slot-starved) transfer queue.
    pub max_queue_depth: usize,
    /// Invariant-check passes executed (0 unless [`crate::check::enabled`]).
    pub invariant_checks: u64,
    /// [`AllocScratch`](crate::AllocScratch) calls that found warm buffers
    /// (deterministic; the PR 1 reuse optimization made visible).
    pub scratch_reuses: u64,
    /// Differential-oracle (from-scratch reference allocator) invocations
    /// (deterministic; 0 unless checking is enabled).
    pub oracle_invocations: u64,
    /// `drain_waiting` passes over a non-empty waiting queue. A drain
    /// runs only after an iteration that completed a transfer, so this
    /// never exceeds the transfers logged (deterministic).
    pub waiting_drains: u64,
    /// Cumulative wall-clock nanos per `reallocate` phase. Measurement
    /// only, like `realloc_time_s`: excluded from bit-identity
    /// comparisons.
    pub phase_nanos: PhaseNanos,
}

/// Wall-clock breakdown of [`Simulator::reallocate`] (cumulative nanos).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseNanos {
    /// Draining the dirty list and refreshing capacity entries.
    pub refresh: u64,
    /// Rebuilding the flow demand vector.
    pub demand: u64,
    /// Progressive filling in [`allocate_into`].
    pub allocate: u64,
    /// Invariant checks and differential-oracle comparisons.
    pub checks: u64,
}

impl PhaseNanos {
    fn merge(&mut self, other: &PhaseNanos) {
        self.refresh += other.refresh;
        self.demand += other.demand;
        self.allocate += other.allocate;
        self.checks += other.checks;
    }
}

impl SimStats {
    /// Accumulate another run's counters (for multi-shard campaigns).
    pub fn merge(&mut self, other: &SimStats) {
        self.events += other.events;
        self.reallocations += other.reallocations;
        self.realloc_time_s += other.realloc_time_s;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.invariant_checks += other.invariant_checks;
        self.scratch_reuses += other.scratch_reuses;
        self.oracle_invocations += other.oracle_invocations;
        self.waiting_drains += other.waiting_drains;
        self.phase_nanos.merge(&other.phase_nanos);
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let checks = if self.invariant_checks > 0 {
            format!(" | invariant checks {}", self.invariant_checks)
        } else {
            String::new()
        };
        format!(
            "events {} | reallocations {} ({:.2}s) | peak queue depth {}{checks}",
            self.events, self.reallocations, self.realloc_time_s, self.max_queue_depth
        )
    }

    /// Publish every counter into a [`wdt_obs::Registry`] under `sim.*`
    /// names. Counters accumulate across calls (one call per run).
    pub fn publish(&self, reg: &wdt_obs::Registry) {
        reg.counter("sim.events").add(self.events);
        reg.counter("sim.reallocations").add(self.reallocations);
        reg.counter("sim.invariant_checks").add(self.invariant_checks);
        reg.counter("sim.scratch_reuses").add(self.scratch_reuses);
        reg.counter("sim.oracle_invocations").add(self.oracle_invocations);
        reg.counter("sim.waiting_drains").add(self.waiting_drains);
        reg.counter("sim.realloc_phase.refresh_nanos").add(self.phase_nanos.refresh);
        reg.counter("sim.realloc_phase.demand_nanos").add(self.phase_nanos.demand);
        reg.counter("sim.realloc_phase.allocate_nanos").add(self.phase_nanos.allocate);
        reg.counter("sim.realloc_phase.checks_nanos").add(self.phase_nanos.checks);
        reg.gauge("sim.realloc_time_s").set(self.realloc_time_s);
        reg.gauge("sim.max_queue_depth").set(self.max_queue_depth as f64);
    }
}

/// Static trace-span name for an event kind (span names must be
/// `&'static str` so recording never allocates).
fn event_span_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Arrival(_) => "sim.event.arrival",
        EventKind::DataPhaseStart(_) => "sim.event.data_phase_start",
        EventKind::FaultCandidate(..) => "sim.event.fault_candidate",
        EventKind::FaultResume(_) => "sim.event.fault_resume",
        EventKind::BgToggle(_) => "sim.event.bg_toggle",
        EventKind::LmtSample => "sim.event.lmt_sample",
        EventKind::ModChange(_) => "sim.event.mod_change",
    }
}

/// The simulator. Build with [`Simulator::new`], submit requests, attach
/// optional background load and monitors, then [`Simulator::run`].
pub struct Simulator {
    cfg: SimConfig,
    endpoints: EndpointCatalog,
    rng: StdRng,
    tcp: TcpParams,
    pending: Vec<(TransferRequest, TransferMode)>,
    background: Vec<BackgroundProcess>,
    lmt: Option<LmtMonitor>,
    /// Scenario capacity modulation; empty = no modulation, bit-identical
    /// to a simulator without the feature.
    modulation: crate::modulation::CapacitySchedule,
    // run state
    now: SimTime,
    events: EventQueue,
    flows: Vec<Option<ActiveFlow>>,
    free_slots: Vec<usize>,
    records: Vec<TransferRecord>,
    lmt_samples: Vec<LmtSample>,
    /// Requests waiting for an endpoint transfer slot (FIFO with skipping).
    waiting: std::collections::VecDeque<(TransferRequest, TransferMode)>,
    /// Active transfer count per endpoint (slot accounting).
    active_per_ep: Vec<u32>,
    /// Slots of the running flows, ascending: the order their demands
    /// reach the allocator.
    running: Vec<usize>,
    /// Per capacity entry, the running flows' demand entries drawing on it
    /// (a loopback flow's CPU counts twice).
    running_users: Vec<u32>,
    /// Set when the skip rule declined a reallocation since the last loop
    /// iteration; the invariant checker then proves the skip exact.
    skipped: bool,
    // Incremental per-endpoint censuses, maintained on every flow state
    // transition so `reallocate` never rescans the flow table to rebuild
    // them.
    read_streams: Vec<u32>,
    write_streams: Vec<u32>,
    processes: Vec<u32>,
    /// Endpoints whose census or background demand changed since the last
    /// reallocation; only their capacity entries are recomputed.
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Background processes attached to each endpoint (indices into
    /// `background`), built once at run start.
    bg_by_ep: Vec<Vec<usize>>,
    // Scratch, reused across reallocations.
    capacities: Vec<f64>,
    demands: Vec<FlowDemand>,
    alloc_scratch: AllocScratch,
    /// Slots `harvest_completions` found finished.
    finished: Vec<usize>,
    /// Queue positions `drain_waiting` decided to start.
    picked: Vec<usize>,
    /// Transfers logged so far. Tracked separately from `records.len()`
    /// because streaming runs drain `records` into a sink as they complete.
    completed: usize,
    stats: SimStats,
}

/// Resources per endpoint in the capacity vector.
const RES_PER_EP: usize = 5;
const R_DISK_READ: usize = 0;
const R_DISK_WRITE: usize = 1;
const R_NIC_OUT: usize = 2;
const R_NIC_IN: usize = 3;
const R_CPU: usize = 4;

fn res_idx(ep: EndpointId, kind: usize) -> usize {
    ep.0 as usize * RES_PER_EP + kind
}

fn bg_res(kind: BgKind) -> usize {
    match kind {
        BgKind::DiskRead => R_DISK_READ,
        BgKind::DiskWrite => R_DISK_WRITE,
        BgKind::NicOut => R_NIC_OUT,
        BgKind::NicIn => R_NIC_IN,
    }
}

impl Simulator {
    /// Create a simulator over `endpoints` with the given config and seed.
    pub fn new(endpoints: EndpointCatalog, cfg: SimConfig, seed: &SeedSeq) -> Self {
        let n = endpoints.len();
        Simulator {
            cfg,
            endpoints,
            rng: StdRng::seed_from_u64(seed.derive("sim-engine")),
            tcp: TcpParams::default(),
            pending: Vec::new(),
            background: Vec::new(),
            lmt: None,
            modulation: crate::modulation::CapacitySchedule::new(),
            now: SimTime::ZERO,
            events: EventQueue::new(),
            flows: Vec::new(),
            free_slots: Vec::new(),
            records: Vec::new(),
            lmt_samples: Vec::new(),
            waiting: std::collections::VecDeque::new(),
            active_per_ep: vec![0; n],
            running: Vec::new(),
            running_users: vec![0; n * RES_PER_EP],
            skipped: false,
            read_streams: vec![0; n],
            write_streams: vec![0; n],
            processes: vec![0; n],
            dirty: vec![false; n],
            dirty_list: Vec::with_capacity(n),
            bg_by_ep: Vec::new(),
            capacities: vec![0.0; n * RES_PER_EP],
            demands: Vec::new(),
            alloc_scratch: AllocScratch::default(),
            finished: Vec::new(),
            picked: Vec::new(),
            completed: 0,
            stats: SimStats::default(),
        }
    }

    /// Submit a normal disk-to-disk transfer.
    pub fn submit(&mut self, req: TransferRequest) {
        self.submit_with_mode(req, TransferMode::DiskToDisk);
    }

    /// Submit a transfer in a specific measurement mode.
    pub fn submit_with_mode(&mut self, req: TransferRequest, mode: TransferMode) {
        self.pending.push((req, mode));
    }

    /// Attach a background-load process.
    pub fn add_background(&mut self, bg: BackgroundProcess) {
        self.background.push(bg);
    }

    /// Attach a standard set of background-load processes to every endpoint:
    /// `per_endpoint` on/off processes with duty cycles and intensities
    /// proportional to the endpoint's capacities. This is the "unknown load"
    /// that pollutes production logs.
    pub fn add_default_background(&mut self, per_endpoint: usize, intensity: f64) {
        let mut rng = StdRng::seed_from_u64(self.rng.gen());
        let eps: Vec<EndpointId> = self.endpoints.iter().map(|e| e.id).collect();
        for id in eps {
            let ep = self.endpoints.get(id);
            let caps = [
                (BgKind::DiskRead, ep.storage.read_bw),
                (BgKind::DiskWrite, ep.storage.write_bw),
                (BgKind::NicOut, ep.nic_out()),
                (BgKind::NicIn, ep.nic_in()),
            ];
            for i in 0..per_endpoint {
                let (kind, cap) = caps[i % caps.len()];
                let frac = intensity * rng.gen_range(0.15..0.5);
                self.background.push(BackgroundProcess {
                    endpoint: id,
                    kind,
                    rate_when_on: cap * frac,
                    mean_on_s: rng.gen_range(600.0..3600.0),
                    mean_off_s: rng.gen_range(2400.0..14400.0),
                    on: false,
                });
            }
        }
    }

    /// Attach an LMT-style storage monitor.
    pub fn set_lmt_monitor(&mut self, monitor: LmtMonitor) {
        self.lmt = Some(monitor);
    }

    /// Attach a capacity-modulation schedule (scenario degradation /
    /// maintenance / outage / egress windows). Every referenced endpoint
    /// must exist in the catalog.
    pub fn set_modulation(&mut self, schedule: crate::modulation::CapacitySchedule) {
        if let Some(max) = schedule.max_endpoint() {
            assert!(
                (max as usize) < self.endpoints.len(),
                "modulation references endpoint {max} but the catalog has {} endpoints",
                self.endpoints.len()
            );
        }
        self.modulation = schedule;
    }

    /// Round-trip time between two endpoints, from their locations.
    fn path_rtt(&self, src: EndpointId, dst: EndpointId) -> f64 {
        let s = self.endpoints.get(src);
        let d = self.endpoints.get(dst);
        rtt_estimate(s.location.distance_km(&d.location))
    }

    /// Deterministic per-edge loss probability: log-uniform jitter around
    /// the base, inflated with distance (long paths cross more devices).
    fn path_loss(&self, src: EndpointId, dst: EndpointId) -> f64 {
        let s = self.endpoints.get(src);
        let d = self.endpoints.get(dst);
        let dist = s.location.distance_km(&d.location);
        // Hash the edge into a stable [0.1, 10) multiplier.
        let h = (src.0 as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ (dst.0 as u64).wrapping_mul(0xC2B2AE3D27D4EB4F);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        let mult = 10f64.powf(u - 0.5);
        self.cfg.base_loss * mult * (1.0 + dist / 5000.0)
    }

    /// A flow's demand: its private network ceiling (scaled by `jitter`),
    /// its fair-share weight, and the shared resources it moves data
    /// through in `mode`.
    fn flow_demand(&self, req: &TransferRequest, mode: TransferMode, jitter: f64) -> FlowDemand {
        let rtt = self.path_rtt(req.src, req.dst);
        let loss = self.path_loss(req.src, req.dst);
        let streams = req.tcp_streams();
        let agg = aggregate_ceiling(&self.tcp, rtt, loss, streams, self.cfg.backbone);
        let eff = stream_efficiency(streams, self.cfg.stream_knee);
        let cap = agg.as_f64() * eff * jitter;
        let mut resources = [0usize; MAX_FLOW_RESOURCES];
        let mut coeffs = [1.0f64; MAX_FLOW_RESOURCES];
        // Integrity checksumming (Globus default) roughly doubles the CPU
        // cost per byte; `core_bw` is calibrated for checksummed transfers,
        // so non-checksummed flows consume CPU at half rate.
        let cpu_coeff = if req.checksum { 1.0 } else { 0.5 };
        let mut n = 0;
        if mode.reads_disk() {
            resources[n] = res_idx(req.src, R_DISK_READ);
            n += 1;
        }
        resources[n] = res_idx(req.src, R_NIC_OUT);
        resources[n + 1] = res_idx(req.src, R_CPU);
        coeffs[n + 1] = cpu_coeff;
        resources[n + 2] = res_idx(req.dst, R_NIC_IN);
        resources[n + 3] = res_idx(req.dst, R_CPU);
        coeffs[n + 3] = cpu_coeff;
        n += 4;
        if mode.writes_disk() {
            resources[n] = res_idx(req.dst, R_DISK_WRITE);
            n += 1;
        }
        let weight = (streams as f64).sqrt().max(1.0);
        FlowDemand::with_coefficients(cap, weight, &resources[..n], &coeffs[..n])
    }

    /// Mark an endpoint's capacity entries stale.
    fn mark_dirty(&mut self, ep: EndpointId) {
        let i = ep.0 as usize;
        if !self.dirty[i] {
            self.dirty[i] = true;
            self.dirty_list.push(ep.0);
        }
    }

    /// Add (`+1`) or remove (`-1`) a flow's processes from the CPU census.
    /// A loopback transfer (`src == dst`) contributes its processes once —
    /// the GridFTP instances serve both directions on the same host.
    fn census_procs(&mut self, req: &TransferRequest, sign: i64) {
        let e = req.effective_concurrency() as i64 * sign;
        let src = req.src.0 as usize;
        self.processes[src] = (self.processes[src] as i64 + e) as u32;
        self.mark_dirty(req.src);
        if req.dst != req.src {
            let dst = req.dst.0 as usize;
            self.processes[dst] = (self.processes[dst] as i64 + e) as u32;
            self.mark_dirty(req.dst);
        }
    }

    /// Add (`+1`) or remove (`-1`) a *running* flow: its disk streams in
    /// the census, its slot in the running index and its demand entries in
    /// the per-resource user counts. Must be called exactly once per
    /// transition into/out of [`FlowState::Running`].
    fn census_streams(&mut self, slot: usize, sign: i64) {
        let f = self.flows[slot].as_ref().expect("live slot");
        let e = f.procs() as i64 * sign;
        let (reads, writes) = (f.mode.reads_disk(), f.mode.writes_disk());
        let (src, dst) = (f.req.src, f.req.dst);
        for &r in f.demand.resources() {
            self.running_users[r] = (self.running_users[r] as i64 + sign) as u32;
        }
        match (self.running.binary_search(&slot), sign > 0) {
            (Err(at), true) => self.running.insert(at, slot),
            (Ok(at), false) => {
                self.running.remove(at);
            }
            _ => unreachable!("slot {slot} entered or left Running twice"),
        }
        if reads {
            let i = src.0 as usize;
            self.read_streams[i] = (self.read_streams[i] as i64 + e) as u32;
            self.mark_dirty(src);
        }
        if writes {
            let i = dst.0 as usize;
            self.write_streams[i] = (self.write_streams[i] as i64 + e) as u32;
            self.mark_dirty(dst);
        }
    }

    /// Recompute the capacity entries of one endpoint from its censuses and
    /// the current background demand.
    fn refresh_capacities(&mut self, ep_idx: u32) {
        let ep = self.endpoints.get(EndpointId(ep_idx));
        let i = ep_idx as usize;
        // Scenario modulation: a pure function of (endpoint, now),
        // piecewise-constant between ModChange boundary events. With no
        // schedule this is all-ones, and `x * 1.0` is a bitwise identity,
        // so unmodulated runs match their pre-scenario goldens exactly.
        let m = self.modulation.factors_at(ep.id, self.now);
        let rd = ep.storage.read_capacity(self.read_streams[i].max(1)).as_f64() * m.disk_read;
        let wr = ep.storage.write_capacity(self.write_streams[i].max(1)).as_f64() * m.disk_write;
        // TCP/IP + framing overhead: ~94% of line rate is payload.
        let no = ep.nic_out().as_f64() * 0.94 * m.nic_out;
        let ni = ep.nic_in().as_f64() * 0.94 * m.nic_in;
        let cpu = ep.cpu_capacity(self.processes[i]).as_f64() * m.cpu;
        // Background demand, summed exactly from this endpoint's processes.
        let mut bg = [0.0f64; RES_PER_EP];
        if let Some(list) = self.bg_by_ep.get(i) {
            for &b in list {
                let b = &self.background[b];
                bg[bg_res(b.kind)] += b.demand().as_f64();
            }
        }
        let id = ep.id;
        // Floored at 2% of nominal so no flow ever fully starves (real
        // systems retain residual service under contention).
        let set = |cap: f64, bg: f64| (cap - bg).max(cap * 0.02);
        self.capacities[res_idx(id, R_DISK_READ)] = set(rd, bg[R_DISK_READ]);
        self.capacities[res_idx(id, R_DISK_WRITE)] = set(wr, bg[R_DISK_WRITE]);
        self.capacities[res_idx(id, R_NIC_OUT)] = set(no, bg[R_NIC_OUT]);
        self.capacities[res_idx(id, R_NIC_IN)] = set(ni, bg[R_NIC_IN]);
        self.capacities[res_idx(id, R_CPU)] = cpu;
    }

    /// Recompute the running flows' rates with weighted progressive
    /// filling. Every other live flow moves no data and holds rate 0.
    ///
    /// Incremental: capacity entries are refreshed only for endpoints whose
    /// census or background demand changed since the last call, the demands
    /// are the running flows' prebuilt ones in slot order, and all per-call
    /// vectors are reused scratch.
    fn reallocate(&mut self) {
        let _span = wdt_obs::span_at("sim.reallocate", self.sim_us());
        // Phase-level clocks only tick when observability is on; the
        // disabled path keeps the seed's single t0/elapsed pair.
        let phased = wdt_obs::enabled();
        let mark = |on: bool| on.then(std::time::Instant::now);
        let t0 = std::time::Instant::now();
        self.stats.reallocations += 1;
        while let Some(ep) = self.dirty_list.pop() {
            self.dirty[ep as usize] = false;
            self.refresh_capacities(ep);
        }
        let t_refresh = mark(phased);
        if crate::check::enabled() {
            let _span = wdt_obs::span_at("sim.invariant_checks", self.sim_us());
            self.verify_incremental_state();
        }
        let t_verify = mark(phased);
        self.demands.clear();
        self.demands.extend(
            self.running.iter().map(|&s| self.flows[s].as_ref().expect("running slot").demand),
        );
        let t_demand = mark(phased);
        let sim_us = self.sim_us();
        let rates = allocate_into(&self.capacities, &self.demands, &mut self.alloc_scratch);
        let t_alloc = mark(phased);
        if crate::check::enabled() {
            let _span = wdt_obs::span_at("sim.invariant_checks", sim_us);
            self.stats.invariant_checks += 1;
            let context = format!("reallocate #{} @ t={}", self.stats.reallocations, self.now);
            crate::check::enforce(
                &context,
                &crate::check::check_allocation(&self.capacities, &self.demands, rates),
            );
            // The differential oracle recomputes the whole allocation from
            // scratch, so it is sampled rather than run every time.
            if self.stats.reallocations.is_multiple_of(crate::check::oracle_every()) {
                self.stats.oracle_invocations += 1;
                crate::check::enforce(
                    &context,
                    &crate::check::compare_with_reference(&self.capacities, &self.demands, rates),
                );
            }
        }
        let t_checks = mark(phased);
        for (&slot, &rate) in self.running.iter().zip(rates) {
            self.flows[slot].as_mut().expect("running slot").rate = rate;
        }
        self.stats.scratch_reuses = self.alloc_scratch.reuses();
        if let (Some(t_refresh), Some(t_verify), Some(t_demand), Some(t_alloc), Some(t_checks)) =
            (t_refresh, t_verify, t_demand, t_alloc, t_checks)
        {
            let ph = &mut self.stats.phase_nanos;
            ph.refresh += (t_refresh - t0).as_nanos() as u64;
            ph.demand += (t_demand - t_verify).as_nanos() as u64;
            ph.allocate += (t_alloc - t_demand).as_nanos() as u64;
            ph.checks += ((t_verify - t_refresh) + (t_checks - t_alloc)).as_nanos() as u64;
        }
        self.stats.realloc_time_s += t0.elapsed().as_secs_f64();
    }

    /// Cross-check the incrementally maintained censuses, running-flow
    /// index, per-resource running-user counts, slot counts and capacity
    /// vector against a from-scratch rebuild. This is the check that
    /// guards the incremental refresh and the skip rule: a missed
    /// `mark_dirty` or census update shows up here as stale state, long
    /// before it corrupts a record. Called from `reallocate` when checking
    /// is enabled; the capacity comparison is exact because
    /// `refresh_capacities` is a deterministic function of censuses and
    /// background demand.
    fn verify_incremental_state(&mut self) {
        let n = self.endpoints.len();
        let mut read = vec![0u32; n];
        let mut write = vec![0u32; n];
        let mut procs = vec![0u32; n];
        let mut active = vec![0u32; n];
        let mut running = Vec::new();
        let mut users = vec![0u32; n * RES_PER_EP];
        let mut violations = Vec::new();
        for (slot, f) in self.flows.iter().enumerate() {
            let Some(f) = f else { continue };
            let (src, dst) = (f.req.src.0 as usize, f.req.dst.0 as usize);
            let e = f.procs();
            procs[src] += e;
            active[src] += 1;
            if dst != src {
                procs[dst] += e;
                active[dst] += 1;
            }
            if f.state == FlowState::Running {
                if f.mode.reads_disk() {
                    read[src] += e;
                }
                if f.mode.writes_disk() {
                    write[dst] += e;
                }
                running.push(slot);
                for &r in f.demand.resources() {
                    users[r] += 1;
                }
            } else if f.rate != 0.0 {
                // `reallocate` assigns running flows only.
                violations.push(crate::check::Violation {
                    invariant: "census-drift",
                    detail: format!("slot {slot}: {:?} flow holds rate {}", f.state, f.rate),
                });
            }
        }
        for i in 0..n {
            for (name, got, want) in [
                ("read_streams", self.read_streams[i], read[i]),
                ("write_streams", self.write_streams[i], write[i]),
                ("processes", self.processes[i], procs[i]),
                ("active_per_ep", self.active_per_ep[i], active[i]),
            ] {
                if got != want {
                    violations.push(crate::check::Violation {
                        invariant: "census-drift",
                        detail: format!("endpoint {i}: incremental {name} {got} != rebuilt {want}"),
                    });
                }
            }
        }
        if self.running != running {
            violations.push(crate::check::Violation {
                invariant: "census-drift",
                detail: format!("running-flow index {:?} != rebuilt {running:?}", self.running),
            });
        }
        for (r, (&got, &want)) in self.running_users.iter().zip(&users).enumerate() {
            if got != want {
                violations.push(crate::check::Violation {
                    invariant: "census-drift",
                    detail: format!(
                        "resource {r} (endpoint {}): incremental running users {got} != rebuilt \
                         {want}",
                        r / RES_PER_EP
                    ),
                });
            }
        }
        // Capacities: every entry must match a from-scratch refresh (the
        // dirty list was just drained, so nothing may be stale).
        let before = self.capacities.clone();
        for ep in 0..n as u32 {
            self.refresh_capacities(ep);
        }
        for (r, (&old, &new)) in before.iter().zip(&self.capacities).enumerate() {
            if old != new {
                violations.push(crate::check::Violation {
                    invariant: "stale-capacity",
                    detail: format!(
                        "resource {r} (endpoint {}): incremental {old} != recomputed {new}",
                        r / RES_PER_EP
                    ),
                });
            }
        }
        crate::check::enforce(&format!("incremental state @ t={}", self.now), &violations);
    }

    /// Prove a skipped reallocation exact: allocate afresh on capacities
    /// rebuilt from scratch and require every running flow's current rate
    /// bit for bit. The incremental capacity vector is restored afterwards,
    /// so a missed `mark_dirty` still shows up at the next reallocation.
    fn verify_skip(&mut self) {
        self.stats.invariant_checks += 1;
        let incremental = self.capacities.clone();
        for ep in 0..self.endpoints.len() as u32 {
            self.refresh_capacities(ep);
        }
        let demands: Vec<FlowDemand> = self
            .running
            .iter()
            .map(|&s| self.flows[s].as_ref().expect("running slot").demand)
            .collect();
        let rates = crate::alloc::allocate(&self.capacities, &demands);
        self.capacities = incremental;
        let mut violations = Vec::new();
        for (&slot, &want) in self.running.iter().zip(&rates) {
            let got = self.flows[slot].as_ref().expect("running slot").rate;
            if got.to_bits() != want.to_bits() {
                violations.push(crate::check::Violation {
                    invariant: "skip-not-exact",
                    detail: format!("slot {slot}: kept rate {got}, a reallocation gives {want}"),
                });
            }
        }
        crate::check::enforce(&format!("skipped reallocation @ t={}", self.now), &violations);
    }

    /// Advance all running flows' byte counters from `self.now` to `t`.
    fn advance_to(&mut self, t: SimTime) {
        let dt = t.since(self.now);
        if crate::check::enabled() && dt < 0.0 {
            crate::check::enforce(
                &format!("advance_to @ t={}", self.now),
                &[crate::check::Violation {
                    invariant: "time-not-monotone",
                    detail: format!("clock would move backwards: {} -> {t}", self.now),
                }],
            );
        }
        if dt > 0.0 {
            for &slot in &self.running {
                let f = self.flows[slot].as_mut().expect("running slot");
                if f.rate > 0.0 {
                    let step = (f.rate * dt).min(f.remaining);
                    f.remaining -= step;
                    f.moved += step;
                }
            }
        }
        self.now = t;
    }

    /// Earliest projected completion among running flows.
    fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<f64> = None;
        for &slot in &self.running {
            let f = self.flows[slot].as_ref().expect("running slot");
            if f.rate > 0.0 {
                let t = self.now.as_secs() + f.remaining / f.rate;
                best = Some(best.map_or(t, |b: f64| b.min(t)));
            }
        }
        best.map(SimTime::seconds)
    }

    /// The sim virtual clock in µs, for trace spans.
    fn sim_us(&self) -> u64 {
        (self.now.as_secs() * 1e6) as u64
    }

    /// Complete any flow whose byte counter has reached zero, then start
    /// what the freed slots let through.
    fn harvest_completions(&mut self) {
        let _span = wdt_obs::span_at_detail("sim.harvest_completions", self.sim_us());
        let before = self.completed;
        let mut finished = std::mem::take(&mut self.finished);
        finished.extend(
            self.running
                .iter()
                .copied()
                .filter(|&s| self.flows[s].as_ref().expect("running slot").remaining <= 0.5),
        );
        for &slot in &finished {
            // Completion only happens from Running, so both the stream
            // and process censuses hold this flow's contribution.
            self.census_streams(slot, -1);
            let f = self.flows[slot].take().expect("checked above");
            if crate::check::enabled() {
                // Byte conservation: the independently accumulated
                // `moved` counter must account for the whole request
                // (up to the 0.5-byte completion threshold).
                self.stats.invariant_checks += 1;
                let bytes = f.req.bytes.as_f64();
                let slack = 0.5 + 1e-9 * bytes;
                if (f.moved - bytes).abs() > slack {
                    crate::check::enforce(
                        &format!("completion of transfer {} @ t={}", f.req.id.0, self.now),
                        &[crate::check::Violation {
                            invariant: "bytes-not-conserved",
                            detail: format!(
                                "moved {} of {bytes} requested bytes (remaining {})",
                                f.moved, f.remaining
                            ),
                        }],
                    );
                }
            }
            self.census_procs(&f.req, -1);
            self.free_slots.push(slot);
            self.release_slots(&f.req);
            self.records.push(TransferRecord::from_request(&f.req, f.start, self.now, f.faults));
            self.completed += 1;
        }
        finished.clear();
        self.finished = finished;
        // Slot counts fall only in `release_slots`, so without a
        // completion nothing queued can start.
        if self.completed != before {
            self.drain_waiting();
        }
    }

    /// Utilization proxy used to modulate the fault intensity: how squeezed
    /// the flow is relative to its private ceiling.
    fn squeeze(&self, f: &ActiveFlow) -> f64 {
        let cap = f.demand.cap;
        if cap <= 0.0 {
            return 1.0;
        }
        (1.0 - f.rate / cap).clamp(0.0, 1.0)
    }

    fn schedule_fault_candidate(&mut self, slot: usize) {
        if !self.cfg.faults_enabled {
            return;
        }
        let gen = match &self.flows[slot] {
            Some(f) => f.fault_gen,
            None => return,
        };
        let delay = Exp::new(self.cfg.fault_rate_max).expect("positive rate").sample(&mut self.rng);
        self.events.schedule(self.now + delay, EventKind::FaultCandidate(slot, gen));
    }

    /// Whether both endpoints of a request have a free transfer slot.
    fn has_slots(&self, req: &TransferRequest) -> bool {
        let limit = self.cfg.max_active_per_endpoint;
        if self.active_per_ep[req.src.0 as usize] >= limit {
            return false;
        }
        req.src == req.dst || self.active_per_ep[req.dst.0 as usize] < limit
    }

    /// Claim endpoint slots for a request.
    fn claim_slots(&mut self, req: &TransferRequest) {
        self.active_per_ep[req.src.0 as usize] += 1;
        if req.dst != req.src {
            self.active_per_ep[req.dst.0 as usize] += 1;
        }
    }

    /// Release endpoint slots after completion.
    fn release_slots(&mut self, req: &TransferRequest) {
        self.active_per_ep[req.src.0 as usize] -= 1;
        if req.dst != req.src {
            self.active_per_ep[req.dst.0 as usize] -= 1;
        }
    }

    /// Start every waiting request whose endpoints now have slots, in FIFO
    /// order with skipping.
    ///
    /// One read-only pass claims slots and picks the requests to start;
    /// then the picked requests leave the queue and start, in queue order.
    /// Deciding every start before making any changes nothing:
    /// `start_flow` neither reads nor writes slot counts, so each decision,
    /// RNG draw and event sequence number is the one made by starting each
    /// request as the pass finds it. Every queued request was blocked by a
    /// full endpoint, so each start takes a slot that a completion just
    /// freed: a drain removes at most two entries per completed transfer.
    fn drain_waiting(&mut self) {
        if self.waiting.is_empty() {
            return;
        }
        self.stats.waiting_drains += 1;
        let waiting = std::mem::take(&mut self.waiting);
        let mut picked = std::mem::take(&mut self.picked);
        for (i, (req, _)) in waiting.iter().enumerate() {
            if self.has_slots(req) {
                self.claim_slots(req);
                picked.push(i);
            }
        }
        self.waiting = waiting;
        for (removed, i) in picked.drain(..).enumerate() {
            // Each earlier removal moved this entry one place forward.
            let (req, mode) = self.waiting.remove(i - removed).expect("picked from the queue");
            self.start_flow(req, mode);
        }
        self.picked = picked;
    }

    fn start_flow(&mut self, req: TransferRequest, mode: TransferMode) {
        let jitter =
            1.0 + self.cfg.flow_jitter * self.rng.sample::<f64, _>(rand_distr::StandardNormal);
        let jitter = jitter.clamp(0.7, 1.3);
        // Startup + metadata overhead. Metadata ops pipeline across the
        // transfer's GridFTP processes.
        let e = req.effective_concurrency();
        let dst = self.endpoints.get(req.dst);
        let meta_load = 0.5; // nominal shared-filesystem business
        let meta = match mode {
            TransferMode::DiskToDisk | TransferMode::ZeroToDisk => {
                dst.storage.metadata_time(req.files, req.dirs, meta_load) / e as f64
            }
            _ => 0.0,
        };
        let overhead = self.cfg.startup_s * self.rng.gen_range(0.8..1.2) + meta;
        let flow = ActiveFlow {
            start: self.now,
            remaining: req.bytes.as_f64(),
            rate: 0.0,
            faults: 0,
            state: FlowState::Overhead,
            fault_gen: 0,
            moved: 0.0,
            demand: self.flow_demand(&req, mode, jitter),
            req,
            mode,
        };
        self.census_procs(&flow.req, 1);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.flows[s] = Some(flow);
                s
            }
            None => {
                self.flows.push(Some(flow));
                self.flows.len() - 1
            }
        };
        self.events.schedule(self.now + overhead, EventKind::DataPhaseStart(slot));
    }

    /// The skip rule, for an event that changed the capacity entries
    /// `resources`: reallocate only if a running flow draws on one of them.
    /// The allocator reads no other entry and the running flows' demands
    /// are as the last reallocation left them, so otherwise it would
    /// return the current rates bit for bit.
    fn capacity_changed(&mut self, resources: &[usize]) -> bool {
        let needed = resources.iter().any(|&r| self.running_users[r] > 0);
        self.skipped |= !needed;
        needed
    }

    /// Process one event. Returns true if flow rates must be recomputed.
    fn handle_event(
        &mut self,
        kind: EventKind,
        arrivals: &mut [(TransferRequest, TransferMode)],
    ) -> bool {
        match kind {
            EventKind::Arrival(idx) => {
                let (req, mode) = arrivals[idx].clone();
                if self.has_slots(&req) {
                    let cpus = [res_idx(req.src, R_CPU), res_idx(req.dst, R_CPU)];
                    self.claim_slots(&req);
                    // Occupies processes immediately: the CPU census, and
                    // so the CPU capacity, changes at both ends.
                    self.start_flow(req, mode);
                    self.capacity_changed(&cpus)
                } else {
                    self.waiting.push_back((req, mode));
                    self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.waiting.len());
                    false
                }
            }
            EventKind::DataPhaseStart(slot) => {
                if let Some(f) = self.flows[slot].as_mut() {
                    if f.state == FlowState::Overhead {
                        f.state = FlowState::Running;
                        self.census_streams(slot, 1);
                        self.schedule_fault_candidate(slot);
                        return true;
                    }
                }
                false
            }
            EventKind::FaultCandidate(slot, gen) => {
                let accept = match &self.flows[slot] {
                    Some(f) if f.state == FlowState::Running && f.fault_gen == gen => {
                        let intensity = 0.05 + 0.95 * self.squeeze(f);
                        self.rng.gen_range(0.0..1.0) < intensity
                    }
                    _ => return false, // stale candidate
                };
                if accept {
                    // Leaving Running: withdraw the disk-stream census.
                    self.census_streams(slot, -1);
                    let f = self.flows[slot].as_mut().expect("live");
                    f.faults += 1;
                    f.state = FlowState::Paused;
                    f.fault_gen += 1;
                    f.rate = 0.0;
                    self.events
                        .schedule(self.now + self.cfg.fault_retry_s, EventKind::FaultResume(slot));
                    true
                } else {
                    self.schedule_fault_candidate(slot);
                    false
                }
            }
            EventKind::FaultResume(slot) => {
                if let Some(f) = self.flows[slot].as_mut() {
                    if f.state == FlowState::Paused {
                        f.state = FlowState::Running;
                        self.census_streams(slot, 1);
                        self.schedule_fault_candidate(slot);
                        return true;
                    }
                }
                false
            }
            EventKind::BgToggle(idx) => {
                let delay = self.background[idx].toggle(&mut self.rng);
                self.events.schedule(self.now + delay, EventKind::BgToggle(idx));
                let (ep, kind) = (self.background[idx].endpoint, self.background[idx].kind);
                // The endpoint's capacities are stale either way; recompute
                // them lazily at the next reallocation.
                self.mark_dirty(ep);
                self.capacity_changed(&[res_idx(ep, bg_res(kind))])
            }
            EventKind::LmtSample => {
                self.take_lmt_sample();
                if let Some(m) = &self.lmt {
                    let next = self.now + m.interval_s;
                    if next <= m.until {
                        self.events.schedule(next, EventKind::LmtSample);
                    }
                }
                false // read-only
            }
            EventKind::ModChange(ep) => {
                // The endpoint's modulation factors changed at this
                // instant; its cached capacities are stale.
                self.mark_dirty(ep);
                // Observe-only: mark the capacity-window boundary on the
                // alert ring (and, when tracing, as a sim-track instant).
                // Never feeds back into simulation state.
                wdt_obs::AlertSink::global().raise(
                    wdt_obs::AlertKind::CapacityChange,
                    wdt_obs::Severity::Info,
                    format!("endpoint {ep} capacity factors changed"),
                    f64::from(ep.0),
                    Some(self.sim_us()),
                );
                // Any of the endpoint's factors may have changed; the lazy
                // refresh at the next reallocation covers the rest.
                let all: [usize; RES_PER_EP] = std::array::from_fn(|kind| res_idx(ep, kind));
                self.capacity_changed(&all)
            }
        }
    }

    fn take_lmt_sample(&mut self) {
        let Some(monitor) = &self.lmt else { return };
        let mut samples = Vec::new();
        for &ep in &monitor.endpoints {
            let mut read = 0.0;
            let mut write = 0.0;
            for &slot in &self.running {
                let f = self.flows[slot].as_ref().expect("running slot");
                if f.mode.reads_disk() && f.req.src == ep {
                    read += f.rate;
                }
                if f.mode.writes_disk() && f.req.dst == ep {
                    write += f.rate;
                }
            }
            for b in &self.background {
                if b.endpoint != ep {
                    continue;
                }
                match b.kind {
                    BgKind::DiskRead => read += b.demand().as_f64(),
                    BgKind::DiskWrite => write += b.demand().as_f64(),
                    _ => {}
                }
            }
            samples.push(monitor.sample(self.now, ep, read, write));
        }
        self.lmt_samples.extend(samples);
    }

    /// Run to completion: processes every submitted transfer and returns the
    /// log. Consumes the simulator.
    pub fn run(self) -> SimOutput {
        self.run_inner(None)
    }

    /// Run to completion, handing each [`TransferRecord`] to `sink` as its
    /// transfer completes instead of accumulating the log in memory.
    ///
    /// Records arrive in *completion* order (not the start-then-id order
    /// [`Simulator::run`] returns) and the returned [`SimOutput::records`] is
    /// empty; everything else — event processing, RNG draws, fault schedules,
    /// LMT samples, stats — is identical to a buffered run, so a streamed
    /// campaign produces bit-identical records to a batch one.
    pub fn run_streaming(self, sink: &mut dyn FnMut(TransferRecord)) -> SimOutput {
        self.run_inner(Some(sink))
    }

    fn run_inner(mut self, mut sink: Option<&mut dyn FnMut(TransferRecord)>) -> SimOutput {
        let _run_span = wdt_obs::span("sim.run");
        // Move pending requests out; schedule arrivals in submit-time order.
        let mut arrivals = std::mem::take(&mut self.pending);
        arrivals.sort_by(|a, b| a.0.submit.cmp(&b.0.submit).then(a.0.id.cmp(&b.0.id)));
        for (i, (req, _)) in arrivals.iter().enumerate() {
            self.events.schedule(req.submit, EventKind::Arrival(i));
        }
        // Background processes: schedule first toggles.
        for i in 0..self.background.len() {
            let d = {
                let bg = &self.background[i];
                let mut rng = StdRng::seed_from_u64(self.rng.gen());
                bg.initial_delay(&mut rng)
            };
            self.events.schedule(SimTime::seconds(d), EventKind::BgToggle(i));
        }
        // LMT: first sample.
        if let Some(m) = &self.lmt {
            self.events.schedule(m.start, EventKind::LmtSample);
        }
        // Capacity modulation: a refresh event at every window boundary —
        // exactly the instants the factors change. An empty schedule adds
        // zero events, leaving event sequence numbers (and therefore the
        // whole run) untouched.
        for (t, ep) in self.modulation.boundaries() {
            self.events.schedule(t, EventKind::ModChange(ep));
        }
        // Index background processes by endpoint for exact, O(1)-per-endpoint
        // demand sums during capacity refresh.
        self.bg_by_ep = vec![Vec::new(); self.endpoints.len()];
        for (i, b) in self.background.iter().enumerate() {
            self.bg_by_ep[b.endpoint.0 as usize].push(i);
        }
        // Every endpoint's capacities start stale.
        let all_eps: Vec<EndpointId> = self.endpoints.iter().map(|e| e.id).collect();
        for id in all_eps {
            self.mark_dirty(id);
        }

        let total_transfers = arrivals.len();
        loop {
            // All transfers logged: stop, even though background processes
            // would keep generating toggle events forever.
            if self.completed == total_transfers {
                break;
            }
            let t_event = self.events.peek_time();
            let t_done = self.next_completion();
            let t_next = match (t_event, t_done) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    if self.flows.iter().flatten().next().is_some() {
                        // Flows exist but nothing can progress and no event
                        // is pending: impossible with capacity floors.
                        unreachable!("simulation stalled with active flows");
                    }
                    break;
                }
            };
            assert!(
                t_next.as_secs() < 3.2e8,
                "simulation ran past 10 simulated years; check workload"
            );
            self.advance_to(t_next);
            let before = self.completed;
            self.harvest_completions();
            let mut dirty = self.completed != before;
            if let Some(sink) = sink.as_deref_mut() {
                for r in self.records.drain(..) {
                    sink(r);
                }
            }
            while let Some((_, kind)) = self.events.pop_due(self.now) {
                self.stats.events += 1;
                let _span = wdt_obs::span_at_detail(event_span_name(&kind), self.sim_us());
                dirty |= self.handle_event(kind, &mut arrivals);
            }
            let skipped = std::mem::take(&mut self.skipped);
            if dirty {
                self.reallocate();
            } else if skipped && crate::check::enabled() {
                let _span = wdt_obs::span_at("sim.invariant_checks", self.sim_us());
                self.verify_skip();
            }
        }

        self.records.sort_by(|a, b| a.start.cmp(&b.start).then(a.id.cmp(&b.id)));
        SimOutput {
            records: self.records,
            lmt: self.lmt_samples,
            horizon: self.now,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Endpoint;
    use wdt_geo::SiteCatalog;
    use wdt_storage::StorageSystem;
    use wdt_types::{Bytes, Rate, TransferId};

    fn two_endpoints() -> EndpointCatalog {
        let mut cat = EndpointCatalog::new();
        cat.push(Endpoint::server(
            EndpointId(0),
            "anl#dtn",
            "ANL",
            SiteCatalog::by_name("ANL").unwrap().location,
            1,
            Rate::gbit(10.0),
            StorageSystem::facility(Rate::gbit(12.0), Rate::gbit(9.0)),
        ));
        cat.push(Endpoint::server(
            EndpointId(1),
            "lbl#dtn",
            "LBL",
            SiteCatalog::by_name("LBL").unwrap().location,
            1,
            Rate::gbit(10.0),
            StorageSystem::facility(Rate::gbit(12.0), Rate::gbit(9.0)),
        ));
        cat
    }

    /// [`two_endpoints`] with CPUs weak enough to bind a transfer.
    fn weak_cpus() -> EndpointCatalog {
        let mut weak = EndpointCatalog::new();
        for ep in two_endpoints().iter() {
            let mut e = ep.clone();
            e.cores_per_dtn = 2;
            e.core_bw = Rate::mbps(120.0);
            weak.push(e);
        }
        weak
    }

    fn req(id: u64, submit: f64, gb: f64, files: u64, c: u32, p: u32) -> TransferRequest {
        TransferRequest {
            id: TransferId(id),
            src: EndpointId(0),
            dst: EndpointId(1),
            submit: SimTime::seconds(submit),
            bytes: Bytes::gb(gb),
            files,
            dirs: 1,
            concurrency: c,
            parallelism: p,
            checksum: true,
        }
    }

    fn run_one(gb: f64, files: u64, c: u32, p: u32) -> TransferRecord {
        let mut sim = Simulator::new(two_endpoints(), SimConfig::testbed(), &SeedSeq::new(1));
        sim.submit(req(0, 0.0, gb, files, c, p));
        let out = sim.run();
        assert_eq!(out.records.len(), 1);
        out.records[0].clone()
    }

    #[test]
    fn single_transfer_completes_with_plausible_rate() {
        let r = run_one(100.0, 100, 4, 4);
        // 10 Gb/s NIC = 1250 MB/s ceiling; storage/CPU bind below that.
        let rate = r.rate().as_mbps();
        assert!(rate > 100.0, "rate {rate} MB/s too low");
        assert!(rate < 1250.0, "rate {rate} MB/s exceeds NIC");
        assert_eq!(r.bytes, Bytes::gb(100.0));
    }

    #[test]
    fn small_transfers_pay_startup_penalty() {
        let small = run_one(0.1, 10, 4, 4);
        let big = run_one(200.0, 10, 4, 4);
        assert!(
            small.rate().as_f64() < big.rate().as_f64(),
            "small {} vs big {}",
            small.rate(),
            big.rate()
        );
    }

    #[test]
    fn many_small_files_slower_than_few_big_files() {
        let many = run_one(20.0, 20_000, 4, 4);
        let few = run_one(20.0, 20, 4, 4);
        assert!(
            many.rate().as_f64() < few.rate().as_f64(),
            "many-files {} vs few-files {}",
            many.rate(),
            few.rate()
        );
    }

    #[test]
    fn concurrent_transfers_share_capacity() {
        let solo = run_one(50.0, 50, 4, 4);
        let mut sim = Simulator::new(two_endpoints(), SimConfig::testbed(), &SeedSeq::new(1));
        for i in 0..4 {
            sim.submit(req(i, 0.0, 50.0, 50, 4, 4));
        }
        let out = sim.run();
        assert_eq!(out.records.len(), 4);
        for r in &out.records {
            assert!(
                r.rate().as_f64() < solo.rate().as_f64(),
                "contended {} should be below solo {}",
                r.rate(),
                solo.rate()
            );
        }
        // Aggregate should still be substantial (sharing, not serialization).
        let agg: f64 = out.records.iter().map(|r| r.rate().as_f64()).sum();
        assert!(agg > solo.rate().as_f64());
    }

    #[test]
    fn mem_to_mem_outruns_disk_to_disk() {
        let mut sim = Simulator::new(two_endpoints(), SimConfig::testbed(), &SeedSeq::new(2));
        sim.submit_with_mode(req(0, 0.0, 50.0, 1, 4, 8), TransferMode::MemToMem);
        let mm = sim.run().records[0].rate();
        let dd = run_one(50.0, 1, 4, 8).rate();
        assert!(mm.as_f64() > dd.as_f64(), "mm {mm} vs dd {dd}");
    }

    #[test]
    fn deterministic_given_seed() {
        // Background load AND faults both active: every stochastic code
        // path in the engine must replay identically from the same seed.
        let run = || {
            let cfg = SimConfig { fault_rate_max: 0.05, ..SimConfig::default() };
            let mut sim = Simulator::new(two_endpoints(), cfg, &SeedSeq::new(99));
            sim.add_default_background(4, 0.5);
            for i in 0..10 {
                sim.submit(req(i, i as f64 * 30.0, 10.0, 100, 8, 4));
            }
            sim.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.records, b.records);
        assert_eq!(a.stats.events, b.stats.events);
        assert_eq!(a.stats.reallocations, b.stats.reallocations);
        assert!(a.stats.events > 0 && a.stats.reallocations > 0);
    }

    #[test]
    fn streaming_run_matches_buffered_run() {
        // Same workload as the determinism test, run both ways: the sink must
        // see every record exactly once and, after imposing the buffered
        // run's (start, id) sort, the two logs must be bit-identical.
        let build = || {
            let cfg = SimConfig { fault_rate_max: 0.05, ..SimConfig::default() };
            let mut sim = Simulator::new(two_endpoints(), cfg, &SeedSeq::new(99));
            sim.add_default_background(4, 0.5);
            for i in 0..10 {
                sim.submit(req(i, i as f64 * 30.0, 10.0, 100, 8, 4));
            }
            sim
        };
        let batch = build().run();
        let mut streamed = Vec::new();
        let out = build().run_streaming(&mut |r| streamed.push(r));
        assert!(out.records.is_empty(), "streaming run must not buffer records");
        streamed.sort_by(|a, b| a.start.cmp(&b.start).then(a.id.cmp(&b.id)));
        assert_eq!(batch.records, streamed);
        assert_eq!(batch.stats.events, out.stats.events);
        assert_eq!(batch.stats.reallocations, out.stats.reallocations);
    }

    #[test]
    fn background_load_slows_transfers() {
        let quiet = run_one(50.0, 50, 4, 4);
        let mut sim = Simulator::new(two_endpoints(), SimConfig::testbed(), &SeedSeq::new(3));
        // A permanently-on heavy writer at the destination.
        sim.add_background(BackgroundProcess {
            endpoint: EndpointId(1),
            kind: BgKind::DiskWrite,
            rate_when_on: Rate::gbit(8.0),
            mean_on_s: 1e9,
            mean_off_s: 1e-3,
            on: true,
        });
        sim.submit(req(0, 0.0, 50.0, 50, 4, 4));
        let loaded = &sim.run().records[0];
        assert!(
            loaded.rate().as_f64() < quiet.rate().as_f64() * 0.8,
            "loaded {} vs quiet {}",
            loaded.rate(),
            quiet.rate()
        );
    }

    #[test]
    fn capacity_changes_no_running_flow_draws_on_skip_reallocation() {
        // A fast-toggling background process at the destination of one
        // disk-to-disk transfer, which writes there but never reads.
        let run = |kind: BgKind| {
            let mut sim = Simulator::new(two_endpoints(), SimConfig::testbed(), &SeedSeq::new(3));
            sim.add_background(BackgroundProcess {
                endpoint: EndpointId(1),
                kind,
                rate_when_on: Rate::gbit(2.0),
                mean_on_s: 0.5,
                mean_off_s: 0.5,
                on: false,
            });
            sim.submit(req(0, 0.0, 50.0, 50, 4, 4));
            sim.run()
        };
        // Its disk reads change no capacity the transfer draws on, and the
        // arrival finds no running flow: only the data-phase start and the
        // completion reallocate.
        let idle = run(BgKind::DiskRead);
        assert!(idle.stats.events > 50, "too few toggles: {}", idle.stats.events);
        assert_eq!(idle.stats.reallocations, 2);
        // Its disk writes do: each toggle under the running flow reallocates.
        let busy = run(BgKind::DiskWrite);
        assert!(busy.stats.reallocations > 20, "{}", busy.stats.reallocations);
    }

    #[test]
    fn arrival_under_a_cpu_bound_flow_reallocates() {
        // Weak CPUs bind the first transfer; the second one's processes
        // shrink CPU capacity at both ends the moment it arrives, before
        // its data phase starts.
        let mut sim = Simulator::new(weak_cpus(), SimConfig::testbed(), &SeedSeq::new(4));
        sim.submit(req(0, 0.0, 20.0, 20, 4, 4));
        sim.submit(req(1, 30.0, 1.0, 20, 4, 4));
        let out = sim.run();
        // First arrival (nothing running: skipped), two data-phase starts,
        // the second arrival and two completions.
        assert_eq!(out.stats.reallocations, 5);
    }

    #[test]
    fn faults_recorded_when_enabled() {
        let cfg = SimConfig { fault_rate_max: 0.05, ..SimConfig::default() }; // cranked so the test is fast
        let mut sim = Simulator::new(two_endpoints(), cfg, &SeedSeq::new(5));
        // Heavy contention => high squeeze => faults likely.
        for i in 0..8 {
            sim.submit(req(i, 0.0, 40.0, 100, 8, 4));
        }
        let out = sim.run();
        let total_faults: u32 = out.records.iter().map(|r| r.faults).sum();
        assert!(total_faults > 0, "expected some faults under heavy load");
    }

    #[test]
    fn skipping_checksums_helps_cpu_bound_transfers() {
        // Starve the CPU so it binds; a non-checksummed transfer consumes
        // half the CPU per byte and should finish measurably faster.
        let run_with = |checksum: bool| {
            let mut sim = Simulator::new(weak_cpus(), SimConfig::testbed(), &SeedSeq::new(4));
            let mut r = req(0, 0.0, 50.0, 50, 4, 4);
            r.checksum = checksum;
            sim.submit(r);
            sim.run().records[0].rate().as_f64()
        };
        let with = run_with(true);
        let without = run_with(false);
        assert!(
            without > with * 1.3,
            "no-checksum {without} should beat checksummed {with} when CPU-bound"
        );
    }

    #[test]
    fn endpoint_slot_limit_queues_excess_transfers() {
        let cfg = SimConfig { max_active_per_endpoint: 3, ..SimConfig::testbed() };
        let mut sim = Simulator::new(two_endpoints(), cfg, &SeedSeq::new(8));
        for i in 0..12 {
            sim.submit(req(i, 0.0, 10.0, 20, 4, 2));
        }
        let out = sim.run();
        assert_eq!(out.records.len(), 12);
        // At no instant do more than 3 transfers overlap.
        let mut events: Vec<(f64, i32)> = Vec::new();
        for r in &out.records {
            events.push((r.start.as_secs(), 1));
            events.push((r.end.as_secs(), -1));
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
        let mut level = 0;
        for (_, d) in events {
            level += d;
            assert!(level <= 3, "more than 3 concurrent transfers");
        }
    }

    #[test]
    fn queued_transfers_start_in_submission_order() {
        let cfg = SimConfig { max_active_per_endpoint: 1, ..SimConfig::testbed() };
        let mut sim = Simulator::new(two_endpoints(), cfg, &SeedSeq::new(9));
        for i in 0..5 {
            sim.submit(req(i, i as f64, 5.0, 10, 4, 2));
        }
        let out = sim.run();
        // With one slot, transfers serialize and start in submit order
        // (records are sorted by start time, so ids must come out sorted).
        let ids: Vec<u64> = out.records.iter().map(|r| r.id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "FIFO order violated");
    }

    fn n_endpoints(n: usize) -> EndpointCatalog {
        let mut cat = EndpointCatalog::new();
        for i in 0..n {
            let site = SiteCatalog::get(i);
            cat.push(Endpoint::server(
                EndpointId(i as u32),
                format!("{}#dtn", site.name.to_lowercase()),
                site.name,
                site.location,
                1,
                Rate::gbit(10.0),
                StorageSystem::facility(Rate::gbit(12.0), Rate::gbit(9.0)),
            ));
        }
        cat
    }

    fn req_edge(id: u64, src: u32, dst: u32, gb: f64) -> TransferRequest {
        TransferRequest {
            id: TransferId(id),
            src: EndpointId(src),
            dst: EndpointId(dst),
            submit: SimTime::ZERO,
            bytes: Bytes::gb(gb),
            files: 5,
            dirs: 1,
            concurrency: 2,
            parallelism: 4,
            checksum: true,
        }
    }

    #[test]
    fn deep_waiting_queue_is_fifo_with_skipping() {
        // Slot limit 1; a long transfer holds 0→1 while a short one runs
        // 2→3. 250 transfers queue behind each. When 2→3 frees up, the
        // later-submitted 2→3 requests must start *before* the 0→2 requests
        // ahead of them in the queue (skipping), yet each group must start
        // in submission order (FIFO).
        let cfg = SimConfig { max_active_per_endpoint: 1, ..SimConfig::testbed() };
        let mut sim = Simulator::new(n_endpoints(4), cfg, &SeedSeq::new(11));
        sim.submit(req_edge(0, 0, 1, 80.0)); // long
        sim.submit(req_edge(1, 2, 3, 1.0)); // short
        for i in 0..250 {
            sim.submit(req_edge(2 + i, 0, 2, 0.2));
        }
        for i in 0..250 {
            sim.submit(req_edge(252 + i, 2, 3, 0.2));
        }
        let out = sim.run();
        assert_eq!(out.records.len(), 502);
        assert_eq!(out.stats.max_queue_depth, 500);
        // The queue is drained only after a completion.
        assert!(out.stats.waiting_drains <= out.records.len() as u64);
        let start_of =
            |id: u64| out.records.iter().find(|r| r.id.0 == id).expect("completed").start;
        // Skipping: the first queued 2→3 jumps the blocked 0→2 block.
        assert!(
            start_of(252) < start_of(2),
            "2→3 queued behind blocked 0→2 requests never skipped ahead"
        );
        // FIFO within each group.
        for group in [2u64..252, 252..502] {
            let mut prev = None;
            for id in group {
                let s = start_of(id);
                if let Some(p) = prev {
                    assert!(s >= p, "transfer {id} started before its predecessor");
                }
                prev = Some(s);
            }
        }
    }

    #[test]
    fn stats_track_run_counters() {
        let mut sim = Simulator::new(two_endpoints(), SimConfig::testbed(), &SeedSeq::new(1));
        sim.submit(req(0, 0.0, 10.0, 10, 4, 4));
        let out = sim.run();
        assert!(out.stats.events >= 2, "arrival + data-phase events at minimum");
        assert!(out.stats.reallocations >= 2);
        assert!(out.stats.realloc_time_s >= 0.0);
        assert_eq!(out.stats.max_queue_depth, 0, "single transfer never queues");
        assert!(out.stats.summary().contains("events"));
    }

    #[test]
    fn records_conserve_request_bytes() {
        let mut sim = Simulator::new(two_endpoints(), SimConfig::default(), &SeedSeq::new(6));
        let mut want = 0.0;
        for i in 0..20 {
            let r = req(i, i as f64 * 5.0, 1.0 + i as f64, 10 + i, 4, 4);
            want += r.bytes.as_f64();
            sim.submit(r);
        }
        let out = sim.run();
        let got: f64 = out.records.iter().map(|r| r.bytes.as_f64()).sum();
        assert_eq!(out.records.len(), 20);
        assert!((got - want).abs() < 1.0);
        for r in &out.records {
            assert!(r.end > r.start, "end must follow start");
        }
    }
}
