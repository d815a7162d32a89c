//! Ablation study of anySCAN's design choices (DESIGN.md §6): each knob is
//! switched off in isolation and the damage measured in runtime and in
//! similarity evaluations, on GR01 (dense) and GR02 (sparse).
//!
//! Knobs:
//! * `no-lemma5` — Section III-D similarity optimizations off;
//! * `no-sorting` — Step-2 (super-node count) and Step-3 (degree)
//!   orderings off;
//! * `skip-step2` — strongly-related merging disabled (Step 3 subsumes it
//!   at higher cost);
//! * `no-roles` — the role-resolution finish pass off (labels stay exact;
//!   roles of pruned vertices stay heuristic);
//! * `atomic-dsu(4t)` — the baseline at 4 threads (the lock-free DSU
//!   replaces the paper's `omp critical` around `Union`);
//! * block sizes — the α=β sweep appears in fig8/fig13.

use anyscan::{AnyScan, AnyScanConfig};
use anyscan_bench::table::secs;
use anyscan_bench::{load_dataset, time, HarnessArgs, Table};
use anyscan_graph::gen::{Dataset, DatasetId};
use anyscan_scan_common::ScanParams;

struct Variant {
    name: &'static str,
    threads: usize,
    tweak: fn(&mut AnyScanConfig),
}

fn main() {
    let args = HarnessArgs::parse();
    let params = ScanParams::paper_defaults();
    let variants: &[Variant] = &[
        Variant {
            name: "baseline",
            threads: 1,
            tweak: |_| {},
        },
        Variant {
            name: "no-lemma5",
            threads: 1,
            tweak: |c| c.optimizations = false,
        },
        Variant {
            name: "no-sorting",
            threads: 1,
            tweak: |c| {
                c.sort_step2 = false;
                c.sort_step3 = false;
            },
        },
        Variant {
            name: "skip-step2",
            threads: 1,
            tweak: |c| c.skip_step2 = true,
        },
        Variant {
            name: "no-roles",
            threads: 1,
            tweak: |c| c.resolve_roles = false,
        },
        Variant {
            name: "atomic-dsu(4t)",
            threads: 4,
            tweak: |_| {},
        },
    ];

    for id in [DatasetId::Gr01, DatasetId::Gr02] {
        let d = Dataset::get(id);
        let (g, _) = load_dataset(&d, args.effective_scale(), args.seed);
        println!(
            "\n== Ablations on {} (|V|={}, |E|={}) ==\n",
            id.short(),
            g.num_vertices(),
            g.num_edges()
        );
        let mut t = Table::new(&[
            "variant",
            "runtime-s",
            "sigma-evals",
            "filtered",
            "unions",
            "clusters",
        ]);
        for v in variants {
            let mut config = AnyScanConfig::new(params).with_auto_block_size(g.num_vertices());
            config.threads = v.threads;
            (v.tweak)(&mut config);
            let (elapsed, (clusters, stats, unions)) = time(|| {
                let mut algo = AnyScan::new(&g, config);
                let result = algo.run();
                (result.num_clusters(), algo.stats(), algo.union_breakdown())
            });
            t.row(vec![
                v.name.into(),
                secs(elapsed),
                stats.sigma_evals.to_string(),
                stats.lemma5_filtered.to_string(),
                unions.total().to_string(),
                clusters.to_string(),
            ]);
        }
        t.print();
    }
}
