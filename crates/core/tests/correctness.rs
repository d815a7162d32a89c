//! The heart of the reproduction: anySCAN's final result must be identical
//! to SCAN's (Lemma 4) under every configuration knob.

use anyscan::{anyscan, AnyScan, AnyScanConfig, Phase};
use anyscan_baselines::scan;
use anyscan_graph::gen::{
    erdos_renyi, lfr, planted_partition, LfrParams, PlantedPartitionParams, WeightModel,
};
use anyscan_graph::{CsrGraph, GraphBuilder};
use anyscan_metrics::nmi;
use anyscan_scan_common::verify::assert_scan_equivalent;
use anyscan_scan_common::ScanParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn two_cliques_bridge() -> CsrGraph {
    let mut edges = Vec::new();
    for a in 0..4u32 {
        for b in (a + 1)..4 {
            edges.push((a, b));
            edges.push((a + 4, b + 4));
        }
    }
    edges.push((2, 4));
    GraphBuilder::from_unweighted_edges(8, edges).unwrap()
}

#[test]
fn matches_scan_on_handmade_graph() {
    let g = two_cliques_bridge();
    for (eps, mu) in [(0.7, 3), (0.4, 3), (0.5, 2), (0.9, 5), (0.2, 2)] {
        let params = ScanParams::new(eps, mu);
        let truth = scan(&g, params);
        let ours = anyscan(&g, params);
        assert_scan_equivalent(&g, params, &truth.clustering, &ours.clustering);
    }
}

#[test]
fn matches_scan_on_random_weighted_graphs() {
    let mut rng = StdRng::seed_from_u64(51);
    for m in [60usize, 300, 1200] {
        let g = erdos_renyi(&mut rng, 150, m, WeightModel::uniform_default());
        for (eps, mu) in [(0.3, 3), (0.5, 5), (0.7, 2), (0.6, 8)] {
            let params = ScanParams::new(eps, mu);
            let truth = scan(&g, params);
            let ours = anyscan(&g, params);
            assert_scan_equivalent(&g, params, &truth.clustering, &ours.clustering);
        }
    }
}

#[test]
fn matches_scan_on_community_graphs() {
    let mut rng = StdRng::seed_from_u64(52);
    let (g, _) = planted_partition(
        &mut rng,
        &PlantedPartitionParams {
            n: 500,
            num_communities: 10,
            p_in: 0.4,
            p_out: 0.01,
            weights: WeightModel::CommunityCorrelated,
        },
    );
    for (eps, mu) in [(0.3, 4), (0.5, 5), (0.7, 3)] {
        let params = ScanParams::new(eps, mu);
        let truth = scan(&g, params);
        let ours = anyscan(&g, params);
        assert_scan_equivalent(&g, params, &truth.clustering, &ours.clustering);
    }
}

#[test]
fn matches_scan_on_lfr_graph() {
    let mut rng = StdRng::seed_from_u64(53);
    let (g, _) = lfr(&mut rng, &LfrParams::paper_defaults(1_500, 18.0));
    for eps in [0.3, 0.5, 0.65] {
        let params = ScanParams::new(eps, 5);
        let truth = scan(&g, params);
        let ours = anyscan(&g, params);
        assert_scan_equivalent(&g, params, &truth.clustering, &ours.clustering);
    }
}

#[test]
fn every_block_size_gives_the_same_result() {
    let mut rng = StdRng::seed_from_u64(54);
    let g = erdos_renyi(&mut rng, 400, 3_000, WeightModel::uniform_default());
    let params = ScanParams::paper_defaults();
    let truth = scan(&g, params);
    for block in [1usize, 7, 64, 500, 100_000] {
        let config = AnyScanConfig::new(params).with_block_size(block);
        let mut algo = AnyScan::new(&g, config);
        let result = algo.run();
        assert_scan_equivalent(&g, params, &truth.clustering, &result);
    }
}

#[test]
fn every_seed_gives_the_same_result() {
    let mut rng = StdRng::seed_from_u64(55);
    let g = erdos_renyi(&mut rng, 300, 2_000, WeightModel::uniform_default());
    let params = ScanParams::new(0.45, 4);
    let truth = scan(&g, params);
    for seed in [0u64, 1, 99, 0xDEAD_BEEF] {
        let config = AnyScanConfig::new(params)
            .with_seed(seed)
            .with_block_size(128);
        let result = AnyScan::new(&g, config).run();
        assert_scan_equivalent(&g, params, &truth.clustering, &result);
    }
}

#[test]
fn ablation_knobs_preserve_exactness() {
    let mut rng = StdRng::seed_from_u64(56);
    let (g, _) = planted_partition(
        &mut rng,
        &PlantedPartitionParams {
            n: 400,
            num_communities: 8,
            p_in: 0.35,
            p_out: 0.02,
            weights: WeightModel::uniform_default(),
        },
    );
    let params = ScanParams::paper_defaults();
    let truth = scan(&g, params);
    for (opt, s2, s3, skip2) in [
        (false, true, true, false),
        (true, false, false, false),
        (true, true, true, true),
        (false, false, false, true),
    ] {
        let mut config = AnyScanConfig::new(params).with_block_size(256);
        config.optimizations = opt;
        config.sort_step2 = s2;
        config.sort_step3 = s3;
        config.skip_step2 = skip2;
        let result = AnyScan::new(&g, config).run();
        assert_scan_equivalent(&g, params, &truth.clustering, &result);
    }
}

#[test]
fn parallel_equals_sequential() {
    let mut rng = StdRng::seed_from_u64(57);
    let (g, _) = lfr(&mut rng, &LfrParams::paper_defaults(1_200, 16.0));
    let params = ScanParams::paper_defaults();
    let truth = scan(&g, params);
    for threads in [1usize, 2, 4, 8] {
        let config = AnyScanConfig::new(params)
            .with_threads(threads)
            .with_block_size(300);
        let result = AnyScan::new(&g, config).run();
        assert_scan_equivalent(&g, params, &truth.clustering, &result);
    }
}

#[test]
fn anytime_snapshots_converge_to_exact() {
    let mut rng = StdRng::seed_from_u64(58);
    let (g, _) = planted_partition(
        &mut rng,
        &PlantedPartitionParams {
            n: 600,
            num_communities: 6,
            p_in: 0.4,
            p_out: 0.01,
            weights: WeightModel::uniform_default(),
        },
    );
    let params = ScanParams::new(0.4, 5);
    let truth = scan(&g, params).clustering.labels_with_noise_cluster();

    let config = AnyScanConfig::new(params).with_block_size(64);
    let mut algo = AnyScan::new(&g, config);
    let mut scores = Vec::new();
    while algo.phase() != Phase::Done {
        algo.step();
        let snap = algo.snapshot();
        scores.push(nmi(&snap.labels_with_noise_cluster(), &truth));
    }
    let last = *scores.last().unwrap();
    assert!(last > 0.999, "final snapshot must match SCAN, NMI = {last}");
    // Quality trends upward: the last snapshot dominates the first, and the
    // mean of the second half dominates the first half.
    assert!(last >= scores[0]);
    let (a, b) = scores.split_at(scores.len() / 2);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    assert!(
        mean(b) >= mean(a) - 1e-9,
        "NMI should improve over time: first half {:.3}, second half {:.3}",
        mean(a),
        mean(b)
    );
}

#[test]
fn suspend_and_resume_is_equivalent_to_straight_run() {
    let mut rng = StdRng::seed_from_u64(59);
    let g = erdos_renyi(&mut rng, 250, 1_500, WeightModel::uniform_default());
    let params = ScanParams::paper_defaults();
    let config = AnyScanConfig::new(params).with_block_size(50);

    let straight = AnyScan::new(&g, config).run();

    // "Suspend" = stop stepping, inspect snapshots, continue later.
    let mut algo = AnyScan::new(&g, config);
    let mut pauses = 0;
    while algo.phase() != Phase::Done {
        algo.step();
        if pauses % 3 == 0 {
            let _ = algo.snapshot(); // inspection must not perturb the run
            let _ = algo.stats();
            let _ = algo.union_breakdown();
        }
        pauses += 1;
    }
    let resumed = algo.result();
    assert_eq!(straight, resumed);
}

#[test]
fn work_efficiency_beats_scan() {
    // A workload with real cluster structure (cores exist), where anySCAN's
    // super-node shortcuts actually have something to save. On core-free
    // inputs both algorithms pay the full 2|E| range-query cost.
    let mut rng = StdRng::seed_from_u64(60);
    let (g, _) = planted_partition(
        &mut rng,
        &PlantedPartitionParams {
            n: 1_000,
            num_communities: 10,
            p_in: 0.5,
            p_out: 0.005,
            weights: WeightModel::Unit,
        },
    );
    let params = ScanParams::new(0.4, 5);
    let s = scan(&g, params);
    let a = anyscan(&g, params);
    assert!(
        a.clustering.num_clusters() >= 8,
        "workload must actually cluster"
    );
    assert!(
        a.stats.sigma_evals < s.stats.sigma_evals,
        "anySCAN must evaluate fewer σ than SCAN: {} vs {}",
        a.stats.sigma_evals,
        s.stats.sigma_evals
    );
}

#[test]
fn union_counts_are_tiny_and_mostly_in_step1() {
    let mut rng = StdRng::seed_from_u64(61);
    let (g, _) = planted_partition(
        &mut rng,
        &PlantedPartitionParams {
            n: 800,
            num_communities: 8,
            p_in: 0.4,
            p_out: 0.01,
            weights: WeightModel::uniform_default(),
        },
    );
    let out = anyscan(&g, ScanParams::new(0.4, 5));
    let u = out.unions;
    assert!(u.total() > 0);
    assert!(
        u.total() < g.num_vertices() as u64,
        "unions {} should undercut |V| {}",
        u.total(),
        g.num_vertices()
    );
    // The paper reports most unions happen in (sequential) Step 1.
    assert!(
        u.step1 >= u.step2 + u.step3,
        "step1={} step2={} step3={}",
        u.step1,
        u.step2,
        u.step3
    );
}

#[test]
fn degenerate_graphs() {
    let params = ScanParams::paper_defaults();
    // Empty graph.
    let g = GraphBuilder::new(0).build();
    let out = anyscan(&g, params);
    assert!(out.clustering.is_empty());
    // Isolated vertices only.
    let g = GraphBuilder::new(10).build();
    let out = anyscan(&g, params);
    assert_eq!(out.clustering.num_clusters(), 0);
    assert_eq!(out.clustering.role_counts().outliers, 10);
    // Single edge.
    let g = GraphBuilder::from_unweighted_edges(2, vec![(0, 1)]).unwrap();
    let truth = scan(&g, ScanParams::new(0.5, 2));
    let ours = anyscan(&g, ScanParams::new(0.5, 2));
    assert_scan_equivalent(
        &g,
        ScanParams::new(0.5, 2),
        &truth.clustering,
        &ours.clustering,
    );
}

#[test]
fn mu_one_and_low_epsilon_edge_cases() {
    let g = two_cliques_bridge();
    for params in [
        ScanParams::new(0.01, 1),
        ScanParams::new(1.0, 2),
        ScanParams::new(0.999, 1),
    ] {
        let truth = scan(&g, params);
        let ours = anyscan(&g, params);
        assert_scan_equivalent(&g, params, &truth.clustering, &ours.clustering);
    }
}
