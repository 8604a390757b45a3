//! Figure 6: transfer size vs. estimated (great-circle) transfer distance,
//! with color encoding transfer rate — rendered here as a grid of mean
//! rates with counts.
//!
//! Paper: sizes span 1 B to ~1 PB, rates span seven orders of magnitude,
//! rate correlates with both size and distance, and intercontinental
//! transfers separate visibly from intracontinental ones.

use wdt_bench::table::TableWriter;
use wdt_bench::{standard_campaign, standard_log};
use wdt_ml::pearson;

fn main() {
    let log = standard_log();
    let endpoints = standard_campaign().workload().endpoints;

    // (distance bin) × (size decade) grid.
    let dist_edges = [0.0, 500.0, 1500.0, 3000.0, 6000.0, 10000.0, 25000.0];
    let size_decades = 5..14; // 100 KB .. 10 TB

    let mut grid: Vec<Vec<(f64, usize)>> =
        vec![vec![(0.0, 0); size_decades.len()]; dist_edges.len() - 1];
    let mut dists = Vec::new();
    let mut sizes = Vec::new();
    let mut rates = Vec::new();
    for r in &log.records {
        let s = endpoints.get(r.src);
        let d = endpoints.get(r.dst);
        let dist = s.location.distance_km(&d.location);
        let size = r.bytes.as_f64();
        let rate = r.rate().as_f64();
        if rate <= 0.0 || size <= 0.0 {
            continue;
        }
        dists.push(dist.max(1.0).log10());
        sizes.push(size.log10());
        rates.push(rate.log10());
        let di = dist_edges.windows(2).position(|w| dist >= w[0] && dist < w[1]);
        let si = (size.log10().floor() as i32 - 5).clamp(0, size_decades.len() as i32 - 1) as usize;
        if let Some(di) = di {
            grid[di][si].0 += rate;
            grid[di][si].1 += 1;
        }
    }

    let mut header = vec!["distance km".to_string()];
    header.extend(size_decades.clone().map(|d| format!("1e{d}B")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = TableWriter::new(
        "Figure 6 — mean transfer rate (MB/s) by distance × total size (n in parens)",
        &header_refs,
    );
    for (di, w) in dist_edges.windows(2).enumerate() {
        let mut row = vec![format!("{:.0}-{:.0}", w[0], w[1])];
        for (sum, n) in &grid[di] {
            row.push(if *n == 0 {
                "-".into()
            } else {
                format!("{:.1}({n})", sum / *n as f64 / 1e6)
            });
        }
        t.row(&row);
    }
    t.print();

    println!(
        "\nlog-rate correlations: with log-size {:.2} (paper: positive), with log-distance {:.2} (paper: negative)",
        pearson(&sizes, &rates).unwrap_or(f64::NAN),
        pearson(&dists, &rates).unwrap_or(f64::NAN),
    );
    let span = |v: &[f64]| {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };
    println!(
        "size span: {:.1} decades; rate span: {:.1} decades (paper: ~10 and ~7)",
        span(&sizes),
        span(&rates)
    );
}
