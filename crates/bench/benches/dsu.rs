//! Disjoint-set variants: sequential vs lock-free, under the union/find mix
//! anySCAN produces.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use anyscan_dsu::{AtomicDsu, DsuSeq};

fn op_mix(n: u32, ops: usize, seed: u64) -> Vec<(bool, u32, u32)> {
    // ~20% unions, 80% finds — anySCAN is find-heavy (pruning checks).
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| (rng.gen_bool(0.2), rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

fn bench_dsu(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsu");
    group.sample_size(30);
    let n = 10_000u32;
    let ops = op_mix(n, 50_000, 3);

    group.bench_function("sequential", |b| {
        b.iter(|| {
            let mut d = DsuSeq::new(n as usize);
            for &(is_union, x, y) in &ops {
                if is_union {
                    d.union(x, y);
                } else {
                    black_box(d.find(x));
                }
            }
            d.num_sets()
        })
    });

    group.bench_function("atomic_single_thread", |b| {
        b.iter(|| {
            let d = AtomicDsu::new(n as usize);
            for &(is_union, x, y) in &ops {
                if is_union {
                    d.union(x, y);
                } else {
                    black_box(d.find(x));
                }
            }
            d.num_sets()
        })
    });

    for threads in [2usize, 4] {
        group.bench_function(format!("atomic_{threads}_threads"), |b| {
            b.iter(|| {
                let d = AtomicDsu::new(n as usize);
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let d = &d;
                        let ops = &ops;
                        s.spawn(move || {
                            for &(is_union, x, y) in ops.iter().skip(t).step_by(threads) {
                                if is_union {
                                    d.union(x, y);
                                } else {
                                    black_box(d.find(x));
                                }
                            }
                        });
                    }
                });
                d.num_sets()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dsu);
criterion_main!(benches);
