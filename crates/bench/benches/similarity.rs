//! Microbenchmarks of the structural-similarity kernel: merge-join cost vs
//! degree, and the effect of the Section III-D optimizations.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use anyscan_graph::gen::{erdos_renyi, WeightModel};
use anyscan_scan_common::kernel::sigma_raw;
use anyscan_scan_common::{Kernel, ScanParams};

fn bench_similarity(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2));

    for &avg_deg in &[8usize, 32, 128] {
        let n = 2_000;
        let mut rng = StdRng::seed_from_u64(1);
        let g = erdos_renyi(&mut rng, n, n * avg_deg / 2, WeightModel::uniform_default());
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).take(4_096).collect();

        group.bench_function(format!("sigma_raw/deg{avg_deg}"), |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for &(u, v) in &edges {
                    acc += sigma_raw(black_box(&g), u, v);
                }
                acc
            })
        });

        let params = ScanParams::paper_defaults();
        let opt = Kernel::with_optimizations(&g, params, true);
        let plain = Kernel::with_optimizations(&g, params, false);
        group.bench_function(format!("eps_decision_optimized/deg{avg_deg}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &(u, v) in &edges {
                    acc += opt.is_eps_neighbor(u, v) as usize;
                }
                acc
            })
        });
        group.bench_function(format!("eps_decision_plain/deg{avg_deg}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &(u, v) in &edges {
                    acc += plain.is_eps_neighbor(u, v) as usize;
                }
                acc
            })
        });
        group.bench_function(format!("range_query/deg{avg_deg}"), |b| {
            let kernel = Kernel::new(&g, params);
            b.iter(|| {
                let mut acc = 0usize;
                for v in 0..256u32 {
                    acc += kernel.eps_neighborhood(v).len();
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_similarity);
criterion_main!(benches);
