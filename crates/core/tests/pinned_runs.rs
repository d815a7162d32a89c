//! One-thread runs on fixed seeded graphs, pinned.
//!
//! At one thread the driver is deterministic, so its work counts (σ
//! counters, successful unions per step, block count) and its canonicalized
//! labels and roles are fixed values. A change that keeps the algorithm must
//! keep all of them.
//!
//! The `fixtures/sbm-step{1,2,3}.asck` images were written by the earlier
//! two-structure driver (a sequential DSU in Step 1, converted to a shared
//! one after it) from the SBM run below, at blocks 30 (Step 1), 47 (Step 2)
//! and 110 (Step 3). They must still restore and finish like the
//! uninterrupted run.

use std::path::PathBuf;

use anyscan::{AnyScan, AnyScanConfig, Checkpoint, Phase, UnionBreakdown};
use anyscan_graph::gen::{lfr, planted_partition, LfrParams, PlantedPartitionParams};
use anyscan_graph::io::framing::fnv1a;
use anyscan_graph::CsrGraph;
use anyscan_scan_common::{Clustering, ScanParams, SimStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sbm() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(25);
    let mut params = PlantedPartitionParams::well_separated(800, 10);
    params.p_in = 0.15;
    params.p_out = 0.02;
    planted_partition(&mut rng, &params).0
}

/// Small β spreads Steps 2 and 3 over many blocks, each with a few unions.
fn sbm_config() -> AnyScanConfig {
    let mut config = AnyScanConfig::new(ScanParams::new(0.35, 4))
        .with_block_size(16)
        .with_threads(1)
        .with_seed(7);
    config.beta = 2;
    config
}

fn lfr_graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(103);
    lfr(&mut rng, &LfrParams::paper_defaults(600, 12.0)).0
}

fn lfr_config() -> AnyScanConfig {
    AnyScanConfig::new(ScanParams::new(0.4, 4))
        .with_block_size(16)
        .with_threads(1)
        .with_seed(7)
}

/// FNV-1a over the canonicalized labels, then one byte per role.
fn clustering_hash(mut c: Clustering) -> u64 {
    c.canonicalize();
    let mut bytes: Vec<u8> = c.labels.iter().flat_map(|l| l.to_le_bytes()).collect();
    bytes.extend(c.roles.iter().map(|&r| r as u8));
    fnv1a(&bytes)
}

fn assert_pinned(
    g: &CsrGraph,
    config: AnyScanConfig,
    blocks: u64,
    unions: UnionBreakdown,
    stats: SimStats,
    hash: u64,
) {
    let mut algo = AnyScan::new(g, config);
    let clustering = algo.run();
    assert_eq!(algo.blocks_executed(), blocks, "block count");
    assert_eq!(algo.union_breakdown(), unions, "unions per step");
    assert_eq!(algo.stats(), stats, "σ counters");
    let got = clustering_hash(clustering);
    assert_eq!(got, hash, "labels and roles hash to {got:#018x}");
}

#[test]
fn one_thread_sbm_run_is_pinned() {
    assert_pinned(
        &sbm(),
        sbm_config(),
        425,
        UnionBreakdown {
            step1: 9,
            step2: 6,
            step3: 3,
        },
        SimStats {
            sigma_evals: 10449,
            cache_hits: 9441,
            cache_misses: 10449,
            early_accepts: 436,
            early_rejects: 8022,
            path_merge: 292,
            path_batched: 10157,
            ..SimStats::default()
        },
        0xa8d4d0c5ea3ad2d7,
    );
}

#[test]
fn one_thread_lfr_run_is_pinned() {
    assert_pinned(
        &lfr_graph(),
        lfr_config(),
        68,
        UnionBreakdown {
            step1: 22,
            step2: 32,
            step3: 6,
        },
        SimStats {
            sigma_evals: 3426,
            lemma5_filtered: 4,
            cache_hits: 2472,
            cache_misses: 3430,
            early_accepts: 350,
            early_rejects: 1529,
            path_merge: 409,
            path_bitmap: 352,
            path_batched: 2665,
            ..SimStats::default()
        },
        0xe1bafe8ad3804369,
    );
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Steps a fresh run to `blocks` executed blocks.
fn run_to(g: &CsrGraph, blocks: u64) -> AnyScan<'_> {
    let mut algo = AnyScan::new(g, sbm_config());
    while algo.blocks_executed() < blocks {
        algo.step();
    }
    algo
}

#[test]
fn older_images_resume_like_an_uninterrupted_run() {
    let g = sbm();
    let mut uninterrupted = AnyScan::new(&g, sbm_config());
    let mut expected = uninterrupted.run();
    expected.canonicalize();

    for (name, phase, blocks) in [
        ("sbm-step1.asck", Phase::Summarize, 30),
        ("sbm-step2.asck", Phase::MergeStrong, 47),
        ("sbm-step3.asck", Phase::MergeWeak, 110),
    ] {
        let image = Checkpoint::load(&fixture(name)).expect("fixture parses");
        assert_eq!((image.phase(), image.blocks()), (phase, blocks), "{name}");
        let mut resumed = AnyScan::resume(&g, &image, 1).expect("fixture restores");

        // The union counts at the image, the live count of the step in
        // progress included, equal the uninterrupted run's at that block.
        let at_image = run_to(&g, blocks);
        assert_eq!(
            resumed.union_breakdown(),
            at_image.union_breakdown(),
            "{name}: unions at the image"
        );
        let live = match phase {
            Phase::Summarize => at_image.union_breakdown().step1,
            Phase::MergeStrong => at_image.union_breakdown().step2,
            _ => at_image.union_breakdown().step3,
        };
        assert!(live > 0, "{name}: the step in progress has merged already");

        let mut got = resumed.run();
        got.canonicalize();
        assert_eq!(got.labels, expected.labels, "{name}: labels");
        assert_eq!(got.roles, expected.roles, "{name}: roles");
        assert_eq!(
            resumed.union_breakdown(),
            uninterrupted.union_breakdown(),
            "{name}: unions"
        );
        assert_eq!(
            resumed.blocks_executed(),
            uninterrupted.blocks_executed(),
            "{name}: blocks"
        );

        // σ counters are not checkpointed: a resumed run counts the work
        // after the image. Resuming this build's own image of the same
        // block must do exactly that work.
        let own = Checkpoint::from_bytes(at_image.checkpoint().to_bytes()).expect("own image");
        let mut twin = AnyScan::resume(&g, &own, 1).expect("own image restores");
        twin.run();
        assert_eq!(resumed.stats(), twin.stats(), "{name}: σ counters");
    }
}
