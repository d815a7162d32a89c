//! Parallel anySCAN: sweep thread counts over a dense graph and report the
//! per-phase behaviour and the speedup curve.
//!
//! NOTE: inside a single-CPU container the "speedups" show scheduling
//! overhead only; on real multicore hardware this example reproduces the
//! shape of the paper's Fig. 10.
//!
//! Run with: `cargo run --release -p anyscan --example parallel_scaling`

use std::time::Instant;

use anyscan::{AnyScan, AnyScanConfig, Phase};
use anyscan_graph::gen::{Dataset, DatasetId};
use anyscan_scan_common::ScanParams;

fn main() {
    let cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("hardware CPUs visible: {cpus}");

    let (g, _) = Dataset::get(DatasetId::Gr01).generate(7);
    println!(
        "graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );
    let params = ScanParams::paper_defaults();
    let block = (g.num_vertices() / 16).max(64); // parallel regime: big blocks

    let mut base = None;
    for threads in [1usize, 2, 4, 8, 16] {
        let config = AnyScanConfig::new(params)
            .with_block_size(block)
            .with_threads(threads);
        let mut algo = AnyScan::new(&g, config);
        let start = Instant::now();
        let mut phase_times = Vec::new();
        let mut current = (Phase::Summarize, Instant::now());
        while algo.phase() != Phase::Done {
            let rec = algo.step();
            if rec.phase != current.0 {
                phase_times.push((current.0, current.1.elapsed()));
                current = (rec.phase, Instant::now());
            }
        }
        let total = start.elapsed();
        let b = *base.get_or_insert(total);
        println!(
            "threads={threads:>2}: total {total:>9.3?}  speedup {:.2}  clusters {}",
            b.as_secs_f64() / total.as_secs_f64(),
            algo.result().num_clusters()
        );
        for (phase, t) in phase_times {
            println!("             {phase:?}: {t:.3?}");
        }
    }
}
