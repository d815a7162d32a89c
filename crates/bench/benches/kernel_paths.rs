//! Microbenchmarks of the σ kernel paths — classic merge-join, hub
//! bitmaps, MinHash sketches, and batched source-major range queries — on a uniform (Erdős–Rényi) and a skewed (R-MAT power-law)
//! degree distribution. The bitmap path only pays off when heavy rows
//! exist, so the two shapes bracket its best and worst case; the sketch
//! path's cost is degree-independent, so the same bracket shows where the
//! approximation starts to win.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use anyscan_graph::gen::{erdos_renyi, rmat, RmatParams, WeightModel};
use anyscan_graph::CsrGraph;
use anyscan_scan_common::{BatchScratch, Kernel, ScanParams, SketchMode};

fn shapes() -> Vec<(&'static str, CsrGraph)> {
    let n = 4_096;
    let mut rng = StdRng::seed_from_u64(11);
    let uniform = erdos_renyi(&mut rng, n, n * 16, WeightModel::uniform_default());
    let mut p = RmatParams::graph500(12, 16);
    p.weights = WeightModel::uniform_default();
    let skewed = rmat(&mut rng, &p);
    vec![("uniform", uniform), ("skewed", skewed)]
}

fn bench_kernel_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_paths");
    group
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2));

    let params = ScanParams::paper_defaults();
    for (shape, g) in shapes() {
        let edges: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).take(4_096).collect();
        // Edge cache off everywhere: measure the evaluation, not the memo.
        let merge = Kernel::new(&g, params).with_edge_cache(false);
        let bitmap = Kernel::new(&g, params)
            .with_edge_cache(false)
            .with_hub_bitmaps(true);
        // Sketch build cost is excluded: it is paid once per run and the
        // question here is the steady-state per-decision price.
        let sketch = Kernel::new(&g, params)
            .with_edge_cache(false)
            .with_sketch_params(SketchMode::Approx, 128, 8, 11, 1);

        group.bench_function(format!("merge/{shape}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &(u, v) in &edges {
                    acc += merge.is_eps_neighbor(black_box(u), v) as usize;
                }
                acc
            })
        });
        group.bench_function(format!("bitmap/{shape}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &(u, v) in &edges {
                    acc += bitmap.is_eps_neighbor(black_box(u), v) as usize;
                }
                acc
            })
        });
        group.bench_function(format!("sketch/{shape}"), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for &(u, v) in &edges {
                    acc += sketch.is_eps_neighbor(black_box(u), v) as usize;
                }
                acc
            })
        });

        // Range queries: per-pair baseline vs batched dense scratch, over
        // the same source vertices.
        let sources: Vec<u32> = (0..256u32).collect();
        group.bench_function(format!("range_per_pair/{shape}"), |b| {
            let mut out = Vec::new();
            b.iter(|| {
                let mut acc = 0usize;
                for &v in &sources {
                    merge.eps_neighborhood_into(black_box(v), &mut out);
                    acc += out.len();
                }
                acc
            })
        });
        group.bench_function(format!("range_batched/{shape}"), |b| {
            let mut scratch = BatchScratch::new(g.num_vertices());
            let mut out = Vec::new();
            b.iter(|| {
                let mut acc = 0usize;
                for &v in &sources {
                    merge.eps_neighborhood_batched(black_box(v), &mut scratch, &mut out);
                    acc += out.len();
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_paths);
criterion_main!(benches);
