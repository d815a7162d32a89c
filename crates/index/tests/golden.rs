//! Golden bytes for the `ASIX` format: the serialized index of fixed seeded
//! graphs must hash to pinned values at every thread count, so a rewrite of
//! the build or of the writer cannot change a single output byte unnoticed.

use anyscan_graph::gen::{
    erdos_renyi, lfr, planted_partition, rmat, LfrParams, PlantedPartitionParams, RmatParams,
    WeightModel,
};
use anyscan_graph::io::framing::fnv1a;
use anyscan_graph::CsrGraph;
use anyscan_index::io::write_index;
use anyscan_index::{IndexBuildOptions, SimilarityIndex};
use anyscan_scan_common::SketchMode;
use anyscan_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn er() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(101);
    erdos_renyi(&mut rng, 300, 2_400, WeightModel::uniform_default())
}

fn sbm() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(102);
    planted_partition(&mut rng, &PlantedPartitionParams::well_separated(400, 8)).0
}

fn lfr_graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(103);
    lfr(&mut rng, &LfrParams::paper_defaults(600, 12.0)).0
}

/// Hubs at the lowest ids: degree order and id order disagree on many
/// edges, which exercises which endpoint scores each edge.
fn skewed_rmat() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(104);
    rmat(&mut rng, &RmatParams::graph500(9, 8))
}

fn asix_hash(g: &CsrGraph, threads: usize, sketch: SketchMode) -> u64 {
    let opts = IndexBuildOptions {
        sketch,
        ..Default::default()
    };
    let idx = SimilarityIndex::build_with_options(g, threads, opts, &Telemetry::disabled());
    let mut buf = Vec::new();
    write_index(&idx, &mut buf).unwrap();
    fnv1a(&buf)
}

fn assert_golden(name: &str, g: &CsrGraph, sketch: SketchMode, want: u64) {
    for threads in [1, 2, 8] {
        let got = asix_hash(g, threads, sketch);
        assert_eq!(
            got, want,
            "{name} ({sketch:?}) at {threads} threads hashes to {got:#018x}"
        );
    }
}

#[test]
fn erdos_renyi_bytes_are_pinned() {
    assert_golden("ER", &er(), SketchMode::Off, 0x850493d6835fc9bd);
}

#[test]
fn sbm_bytes_are_pinned() {
    assert_golden("SBM", &sbm(), SketchMode::Off, 0x1109c0dccf7571f9);
}

#[test]
fn lfr_bytes_are_pinned() {
    assert_golden("LFR", &lfr_graph(), SketchMode::Off, 0x5e28dd78ff34c796);
}

#[test]
fn skewed_rmat_bytes_are_pinned() {
    assert_golden("R-MAT", &skewed_rmat(), SketchMode::Off, 0x900bf3304ebe1893);
}

#[test]
fn approx_sketch_bytes_are_pinned() {
    assert_golden(
        "R-MAT",
        &skewed_rmat(),
        SketchMode::Approx,
        0x9d10fdcbe4294152,
    );
}
