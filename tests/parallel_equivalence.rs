//! Thread-count equivalence: the parallel driver must produce
//! SCAN-equivalent results for every thread count and block size, and its
//! counters must stay coherent.

use anyscan::{AnyScan, AnyScanConfig};
use anyscan_baselines::scan;
use anyscan_graph::gen::{lfr, LfrParams};
use anyscan_scan_common::verify::assert_scan_equivalent;
use anyscan_scan_common::ScanParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn thread_sweep_on_lfr() {
    let mut rng = StdRng::seed_from_u64(300);
    let (g, _) = lfr(&mut rng, &LfrParams::paper_defaults(2_500, 20.0));
    let params = ScanParams::new(0.45, 5);
    let truth = scan(&g, params).clustering;
    for threads in [1usize, 2, 3, 4, 8, 16] {
        let config = AnyScanConfig::new(params)
            .with_threads(threads)
            .with_auto_block_size(g.num_vertices());
        let result = AnyScan::new(&g, config).run();
        assert_scan_equivalent(&g, params, &truth, &result);
    }
}

#[test]
fn tiny_blocks_with_many_threads() {
    // Pathological config: more threads than the block size. Exercises the
    // thread clamping and the atomic state transitions under maximum
    // interleaving.
    let mut rng = StdRng::seed_from_u64(302);
    let (g, _) = lfr(&mut rng, &LfrParams::paper_defaults(600, 14.0));
    let params = ScanParams::new(0.4, 4);
    let truth = scan(&g, params).clustering;
    let config = AnyScanConfig::new(params)
        .with_threads(16)
        .with_block_size(4);
    let result = AnyScan::new(&g, config).run();
    assert_scan_equivalent(&g, params, &truth, &result);
}

#[test]
fn counters_are_coherent_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(303);
    let (g, _) = lfr(&mut rng, &LfrParams::paper_defaults(1_200, 16.0));
    let params = ScanParams::new(0.45, 5);
    let mut union_totals = Vec::new();
    for threads in [1usize, 4] {
        let config = AnyScanConfig::new(params)
            .with_threads(threads)
            .with_auto_block_size(g.num_vertices());
        let mut algo = AnyScan::new(&g, config);
        let result = algo.run();
        let u = algo.union_breakdown();
        // Every successful union reduces the number of super-node sets by
        // one, so total unions = #super-nodes − #clusters... except noise
        // super-nodes do not exist; clusters = distinct roots among
        // super-nodes.
        assert!(u.total() < algo.num_supernodes() as u64);
        assert!(algo.stats().sigma_evals > 0);
        assert!(result.num_clusters() > 0);
        union_totals.push((algo.num_supernodes() as u64, u.total()));
    }
    // Same seed → same step-1 draw order → identical super-node structure
    // regardless of thread count.
    assert_eq!(
        union_totals[0].0, union_totals[1].0,
        "super-node count must not depend on threads"
    );
}

#[test]
fn parallel_counters_match_sequential_supernode_structure() {
    let mut rng = StdRng::seed_from_u64(304);
    let (g, _) = lfr(&mut rng, &LfrParams::paper_defaults(1_000, 16.0));
    let params = ScanParams::new(0.45, 5);
    let config = AnyScanConfig::new(params).with_auto_block_size(g.num_vertices());

    let mut seq = AnyScan::new(&g, config);
    let _ = seq.run();
    let mut par = AnyScan::new(&g, config.with_threads(4));
    let _ = par.run();

    assert_eq!(seq.num_supernodes(), par.num_supernodes());
    // Union totals agree too: the partition of super-nodes is unique even
    // though the order of unions differs.
    assert_eq!(seq.union_breakdown().total(), par.union_breakdown().total());
}
