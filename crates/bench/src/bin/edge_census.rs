//! §3.2: the edge census and the Eq. 1 validation sweep.
//!
//! Paper (on the full production log): 46K edges total; 36,599 used once;
//! 16,562 with ≥10 transfers; 2,496 with ≥100; 182 with ≥1000. Of 77 edges
//! with trustworthy perfSONAR `MMmax` measurements, 45 are explained by
//! Eq. 1 (38 directly, 7 after adding back known Globus load), of which 11
//! are disk-read-, 14 network-, and 20 disk-write-limited; the remaining
//! 32 underperform (unknown load).

use std::collections::BTreeMap;
use wdt_bench::table::TableWriter;
use wdt_bench::{standard_campaign, standard_log};
use wdt_features::{edge_census, edge_stats, extract_features};
use wdt_model::{classify_edges, BoundVerdict, Limiter};
use wdt_sim::instruments::perfsonar_probe;
use wdt_types::{EdgeId, SeedSeq};

fn main() {
    let log = standard_log();
    let endpoints = standard_campaign().workload().endpoints;
    let features = extract_features(&log.records);

    // Census.
    let census = edge_census(&features, &[1, 10, 100, 1000]);
    let mut t = TableWriter::new(
        "§3.2 — edge census (synthetic fleet; paper: 46K / 16,562 / 2,496 / 182)",
        &["min transfers", "edges"],
    );
    for (k, n) in &census {
        t.row(&[format!("≥{k}"), n.to_string()]);
    }
    t.print();

    // perfSONAR probes on the busiest edges, then Eq. 1 classification.
    let stats = edge_stats(&features);
    let mut busiest: Vec<_> = stats.values().collect();
    busiest.sort_by(|a, b| b.transfers.cmp(&a.transfers).then(a.edge.cmp(&b.edge)));
    let probe_edges: Vec<EdgeId> = busiest.iter().take(40).map(|s| s.edge).collect();
    eprintln!("[census] running perfSONAR probes on {} edges ...", probe_edges.len());
    let seed = SeedSeq::new(17);
    let mut mm: BTreeMap<EdgeId, f64> = BTreeMap::new();
    for e in &probe_edges {
        let r = perfsonar_probe(&endpoints, e.src, e.dst, &seed.subseq(&e.to_string()));
        mm.insert(*e, r.as_f64());
    }

    let verdicts = classify_edges(&features, &mm);
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut limiter_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (verdict, limiter) in verdicts.values() {
        let v = match verdict {
            BoundVerdict::Explained => "explained",
            BoundVerdict::ExplainedWithLoad => "explained w/ known load",
            BoundVerdict::Underperforming => "underperforming (unknown load)",
            BoundVerdict::ExceedsBound => "exceeds bound (bad MM estimate)",
        };
        *counts.entry(v).or_default() += 1;
        if matches!(verdict, BoundVerdict::Explained | BoundVerdict::ExplainedWithLoad) {
            let l = match limiter {
                Limiter::DiskRead => "disk read",
                Limiter::Network => "network",
                Limiter::DiskWrite => "disk write",
            };
            *limiter_counts.entry(l).or_default() += 1;
        }
    }
    let mut t =
        TableWriter::new("Eq. 1 validation verdicts over probed edges", &["verdict", "edges"]);
    for (v, n) in &counts {
        t.row(&[v.to_string(), n.to_string()]);
    }
    t.print();
    let mut t = TableWriter::new(
        "Limiting subsystem among explained edges (paper: 11 read / 14 net / 20 write)",
        &["limiter", "edges"],
    );
    for (l, n) in &limiter_counts {
        t.row(&[l.to_string(), n.to_string()]);
    }
    t.print();
}
