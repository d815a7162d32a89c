//! Ablations of anySCAN's design choices (DESIGN.md §6): the Lemma-5
//! filter, the Step-2/3 sorting heuristics, skipping Step 2 entirely, the
//! role-resolution pass, and the baseline at 4 threads.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use anyscan::{AnyScan, AnyScanConfig};
use anyscan_graph::gen::{lfr, LfrParams};
use anyscan_scan_common::ScanParams;

fn bench_ablations(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let (g, _) = lfr(&mut rng, &LfrParams::paper_defaults(3_000, 24.0));
    let params = ScanParams::new(0.45, 5);
    let base = AnyScanConfig::new(params).with_auto_block_size(g.num_vertices());

    let mut group = c.benchmark_group("ablations");
    group
        .sample_size(15)
        .measurement_time(std::time::Duration::from_secs(3));

    let run = |config: AnyScanConfig| {
        let mut algo = AnyScan::new(&g, config);
        algo.run().num_clusters()
    };

    group.bench_function("baseline", |b| b.iter(|| run(base)));
    group.bench_function("no_lemma5_filter", |b| {
        let mut cfg = base;
        cfg.optimizations = false;
        b.iter(|| run(cfg))
    });
    group.bench_function("no_sorting", |b| {
        let mut cfg = base;
        cfg.sort_step2 = false;
        cfg.sort_step3 = false;
        b.iter(|| run(cfg))
    });
    group.bench_function("skip_step2", |b| {
        let mut cfg = base;
        cfg.skip_step2 = true;
        b.iter(|| run(cfg))
    });
    group.bench_function("no_role_resolution", |b| {
        let mut cfg = base;
        cfg.resolve_roles = false;
        b.iter(|| run(cfg))
    });
    group.bench_function("atomic_dsu_4_threads", |b| {
        let cfg = base.with_threads(4);
        b.iter(|| run(cfg))
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
