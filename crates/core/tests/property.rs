//! Property-based validation: for *arbitrary* random weighted graphs and
//! parameters, anySCAN must be SCAN-equivalent under every knob, and its
//! invariants must hold.

use anyscan::{AnyScan, AnyScanConfig};
use anyscan_baselines::scan;
use anyscan_graph::GraphBuilder;
use anyscan_scan_common::verify::check_scan_equivalent;
use anyscan_scan_common::{Role, ScanParams, NOISE};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = anyscan_graph::CsrGraph> {
    // 8..40 vertices, up to ~120 weighted edges (dense enough for clusters).
    (8usize..40)
        .prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32, 0.1f64..1.0);
            (Just(n), proptest::collection::vec(edge, 0..120))
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w) in edges {
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn anyscan_is_scan_equivalent(
        g in arb_graph(),
        eps in 0.1f64..0.95,
        mu in 1usize..7,
        block in 1usize..64,
        seed in 0u64..1000,
        threads in 1usize..4,
        cache in 0usize..2,
    ) {
        let params = ScanParams::new(eps, mu);
        let edge_cache = cache == 1;
        let truth = scan(&g, params).clustering;
        let config = AnyScanConfig::new(params)
            .with_block_size(block)
            .with_seed(seed)
            .with_threads(threads)
            .with_edge_cache(edge_cache);
        let ours = AnyScan::new(&g, config).run();
        if let Err(e) = check_scan_equivalent(&g, params, &truth, &ours) {
            prop_assert!(
                false,
                "divergence (eps={eps}, mu={mu}, block={block}, seed={seed}, \
                 threads={threads}, cache={edge_cache}): {e}"
            );
        }
    }

    #[test]
    fn result_invariants(
        g in arb_graph(),
        eps in 0.1f64..0.95,
        mu in 1usize..7,
    ) {
        let params = ScanParams::new(eps, mu);
        let config = AnyScanConfig::new(params).with_block_size(8);
        let mut algo = AnyScan::new(&g, config);
        let result = algo.run();

        // Role/label coherence.
        for v in 0..g.num_vertices() {
            let (l, r) = (result.labels[v], result.roles[v]);
            match r {
                Role::Core | Role::Border => prop_assert!(l != NOISE, "clustered role with noise label at {}", v),
                Role::Hub | Role::Outlier => prop_assert_eq!(l, NOISE, "noise role with cluster label at {}", v),
                Role::Unclassified => prop_assert!(false, "finished run left {v} unclassified"),
            }
        }
        // Every cluster contains at least one core.
        let mut has_core = std::collections::HashSet::new();
        for v in 0..g.num_vertices() {
            if result.roles[v] == Role::Core {
                has_core.insert(result.labels[v]);
            }
        }
        for v in 0..g.num_vertices() {
            if result.labels[v] != NOISE {
                prop_assert!(
                    has_core.contains(&result.labels[v]),
                    "cluster {} has no core",
                    result.labels[v]
                );
            }
        }
        // Union accounting: at most (#super-nodes − 1) successful unions.
        let u = algo.union_breakdown();
        if algo.num_supernodes() > 0 {
            prop_assert!(u.total() < algo.num_supernodes() as u64);
        } else {
            prop_assert_eq!(u.total(), 0);
        }
    }

    #[test]
    fn snapshot_labels_always_well_formed(
        g in arb_graph(),
        steps in 0usize..12,
    ) {
        let params = ScanParams::new(0.5, 3);
        let config = AnyScanConfig::new(params).with_block_size(4);
        let mut algo = AnyScan::new(&g, config);
        for _ in 0..steps {
            algo.step();
        }
        let snap = algo.snapshot();
        prop_assert_eq!(snap.len(), g.num_vertices());
        // Unclassified ↔ role unclassified.
        for v in 0..g.num_vertices() {
            let unclassified_label = snap.labels[v] == anyscan_scan_common::UNCLASSIFIED;
            let unclassified_role = snap.roles[v] == Role::Unclassified;
            prop_assert_eq!(unclassified_label, unclassified_role, "mismatch at {}", v);
        }
    }
}
