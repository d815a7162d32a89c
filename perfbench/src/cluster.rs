//! `cluster-gr01x16`: offline anySCAN (`AnyScan::new` → `run`) at the
//! default configuration, ε = 0.5, μ = 5, on the GR01 analogue at scale 16.
//! The σ kernel and the four-step driver do nearly all the work; the index,
//! daemon and dynamic layers do none.

use std::hint::black_box;
use std::time::{Duration, Instant};

use anyscan::{AnyScan, AnyScanConfig, Phase};
use anyscan_graph::CsrGraph;
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::verify::check_scan_equivalent;
use anyscan_scan_common::{Clustering, Kernel, ScanParams, SimStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, quantile};
use crate::sys::{peak_rss_mb, process_cpu_ns};
use crate::trace::Tracer;
use crate::{load_graph, Outcome, Run, THREADS};

/// Cold starts (graph-file reads) before and again after the timed loop;
/// `setup_s` is the median of all of them, so it samples the whole run.
const SETUP_REPS: usize = 3;
/// Timed runs at least, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Edges in the kernel micro-measurement behind `kernel.ns_per_sigma`.
const KERNEL_SAMPLE: usize = 1 << 16;

fn params() -> ScanParams {
    ScanParams::new(0.5, 5)
}

fn config(threads: usize) -> AnyScanConfig {
    AnyScanConfig::new(params()).with_threads(threads)
}

fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::Summarize => "driver.summarize",
        Phase::MergeStrong => "driver.merge_strong",
        Phase::MergeWeak => "driver.merge_weak",
        Phase::Borders => "driver.borders",
        Phase::ResolveRoles => "driver.resolve_roles",
        Phase::Done => "driver.done",
    }
}

/// Reads the graph file `SETUP_REPS` times, under spans when traced.
fn load_reps(run: &Run, tracer: &Tracer) -> (CsrGraph, Vec<f64>) {
    let mut times = Vec::new();
    let mut graph = None;
    for rep in 0..SETUP_REPS {
        drop(graph.take());
        let t = Instant::now();
        graph = Some(tracer.span("graph.load", rep as u64, || load_graph(&run.graph)));
        times.push(t.elapsed().as_secs_f64());
    }
    (graph.expect("at least one load"), times)
}

/// The exact answer every run is checked against: the similarity index's
/// clustering at the same (ε, μ).
fn reference(g: &CsrGraph) -> Clustering {
    SimilarityIndex::build(g, THREADS).query(g, params())
}

pub fn measure(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let (g, mut setup) = load_reps(run, &Tracer::new(false));
    out.graph = (g.num_vertices(), g.num_edges());

    // The first run pays first-touch page faults; it is checked, not timed.
    let mut results = vec![AnyScan::new(&g, config(THREADS)).run()];
    let (mut first, mut full) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds || full.len() < MIN_RUNS {
        let t0 = Instant::now();
        let mut algo = AnyScan::new(&g, config(THREADS));
        algo.step();
        let snap_start = Instant::now();
        let snapshot = algo.snapshot();
        first.push(t0.elapsed().as_secs_f64());
        let snapshot_cost = snap_start.elapsed();
        black_box(&snapshot);
        let exact = algo.run();
        full.push((t0.elapsed() - snapshot_cost).as_secs_f64());
        drop(snapshot);
        results.push(exact);
    }
    let loop_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    setup.extend(load_reps(run, &Tracer::new(false)).1);

    let truth = reference(&g);
    for c in &results {
        out.check(check_scan_equivalent(&g, params(), c, &truth));
    }

    let full_ms: Vec<f64> = full.iter().map(|s| s * 1e3).collect();
    out.metric("setup_s", median(&setup), setup.len());
    out.metric("latency_p50_ms", median(&full_ms), full.len());
    out.metric("latency_p90_ms", quantile(&full_ms, 0.9), full.len());
    out.metric("ops_per_s", full.len() as f64 / loop_s, full.len());
    out.metric("peak_rss_mb", rss, 1);
    out.detail(
        "setup_s (graph file read)",
        median(&setup),
        "s",
        setup.len(),
    );
    out.detail("first_answer_s", median(&first), "s", first.len());
    out.detail("full_answer_s", median(&full), "s", full.len());
    out.detail("clusters", truth.num_clusters() as f64, "count", 1);
    out
}

/// Work counts of one single-threaded run, where they repeat exactly.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    stats: SimStats,
    unions: [u64; 3],
    blocks: u64,
}

fn one_thread_counts(g: &CsrGraph) -> Counts {
    let mut algo = AnyScan::new(g, config(1));
    algo.run();
    let u = algo.union_breakdown();
    Counts {
        stats: algo.stats(),
        unions: [u.step1, u.step2, u.step3],
        blocks: algo.blocks_executed(),
    }
}

/// One two-thread run with a span around `new`, every block and the first
/// snapshot. Returns the clustering and the run's wall time.
fn driver_pass(g: &CsrGraph, tracer: &Tracer) -> (Clustering, Duration) {
    let t0 = Instant::now();
    let mut algo = tracer.span("driver.new", 0, || AnyScan::new(g, config(THREADS)));
    let mut block = 0u64;
    while algo.phase() != Phase::Done {
        let phase = algo.phase();
        tracer.span(phase_span(phase), block, || algo.step());
        if block == 0 {
            black_box(tracer.span("driver.snapshot", block, || algo.snapshot()));
        }
        block += 1;
    }
    let c = algo.result();
    (c, t0.elapsed())
}

/// Wall ns per σ evaluation of the anySCAN kernel (Lemma-5 filter, early
/// accept/reject, hub bitmaps; no edge cache, so every pass repeats the
/// work) over a seeded sample of edges. Median of three passes.
fn kernel_ns_per_sigma(g: &CsrGraph, seed: u64, tracer: &Tracer) -> f64 {
    let cfg = config(1);
    let kernel = Kernel::with_optimizations(g, params(), true)
        .with_hub_bitmaps_params(cfg.hub_max_hubs, cfg.hub_min_degree);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e);
    let n = g.num_vertices() as u32;
    let mut sample = Vec::with_capacity(KERNEL_SAMPLE);
    while sample.len() < KERNEL_SAMPLE {
        let u = rng.gen_range(0..n);
        let row = g.neighbor_ids(u);
        let v = row[rng.gen_range(0..row.len())];
        if u != v {
            sample.push((u, v));
        }
    }
    let mut per_pass = Vec::new();
    for pass in 0..3 {
        let before = kernel.stats().sigma_evals;
        let t = Instant::now();
        let similar = tracer.span("kernel.eps_decisions", pass, || {
            sample
                .iter()
                .filter(|&&(u, v)| kernel.is_eps_neighbor(u, v))
                .count()
        });
        let ns = t.elapsed().as_nanos() as f64;
        black_box(similar);
        let evals = kernel.stats().sigma_evals - before;
        per_pass.push(ns / evals.max(1) as f64);
    }
    median(&per_pass)
}

pub fn trace(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(true);
    let (g, loads) = load_reps(run, &tracer);
    out.graph = (g.num_vertices(), g.num_edges());
    let truth = reference(&g);

    // Exact work counts: two single-threaded passes must agree, and the
    // kernel path counters must partition the σ evaluations.
    let a = one_thread_counts(&g);
    let b = one_thread_counts(&g);
    out.check(if a == b {
        Ok(())
    } else {
        Err(format!(
            "one-thread counts differ between passes: {a:?} vs {b:?}"
        ))
    });
    let s = a.stats;
    let paths = s.path_merge + s.path_bitmap + s.path_batched + s.path_probe + s.path_sketch;
    out.check(if paths == s.sigma_evals {
        Ok(())
    } else {
        Err(format!(
            "kernel paths sum to {paths}, sigma_evals is {}",
            s.sigma_evals
        ))
    });

    // Tracing overhead: the same two-thread run without and with spans.
    let (plain, plain_wall) = driver_pass(&g, &Tracer::new(false));
    out.check(check_scan_equivalent(&g, params(), &plain, &truth));
    let cpu0 = process_cpu_ns();
    let (traced, traced_wall) = driver_pass(&g, &tracer);
    let cpu = process_cpu_ns() - cpu0;
    out.check(check_scan_equivalent(&g, params(), &traced, &truth));

    let ns_per_sigma = kernel_ns_per_sigma(&g, run.seed, &tracer);

    out.metric("graph.load_s", median(&loads), loads.len());
    out.metric(
        "parallel.cpu_util",
        cpu as f64 / (traced_wall.as_nanos() as f64 * THREADS as f64),
        1,
    );
    out.metric("kernel.sigma_evals", s.sigma_evals as f64, 1);
    out.metric("kernel.path_merge", s.path_merge as f64, 1);
    out.metric("kernel.path_bitmap", s.path_bitmap as f64, 1);
    out.metric("kernel.path_batched", s.path_batched as f64, 1);
    out.metric("kernel.path_probe", s.path_probe as f64, 1);
    out.metric("kernel.path_sketch", s.path_sketch as f64, 1);
    out.metric("kernel.lemma5_filtered", s.lemma5_filtered as f64, 1);
    let lookups = s.cache_hits + s.cache_misses;
    out.metric(
        "kernel.edge_cache_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            s.cache_hits as f64 / lookups as f64
        },
        1,
    );
    out.metric("kernel.ns_per_sigma", ns_per_sigma, 3);
    out.metric("driver.new_s", tracer.total_s("driver.new"), 1);
    let first_block = tracer
        .durations_ms("driver.summarize")
        .first()
        .copied()
        .unwrap_or(0.0);
    out.metric(
        "driver.first_answer_s",
        tracer.total_s("driver.new") + first_block / 1e3 + tracer.total_s("driver.snapshot"),
        1,
    );
    for (metric, span) in [
        ("driver.summarize_s", "driver.summarize"),
        ("driver.merge_strong_s", "driver.merge_strong"),
        ("driver.merge_weak_s", "driver.merge_weak"),
        ("driver.borders_s", "driver.borders"),
        ("driver.resolve_roles_s", "driver.resolve_roles"),
    ] {
        out.metric(
            metric,
            tracer.total_s(span),
            tracer.durations_ms(span).len(),
        );
    }
    out.metric("driver.blocks", a.blocks as f64, 1);
    out.metric("dsu.unions_step1", a.unions[0] as f64, 1);
    out.metric("dsu.unions_step2", a.unions[1] as f64, 1);
    out.metric("dsu.unions_step3", a.unions[2] as f64, 1);
    out.metric(
        "trace.overhead_ratio",
        traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0,
        1,
    );
    out.self_times = tracer.self_time_by_layer();
    out.spans_written = tracer.write_jsonl(&run.work.join("spans.jsonl")).is_ok();
    out
}
