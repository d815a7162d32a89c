//! The dynamic subsystem's headline guarantees, property-tested:
//!
//! 1. After any random interleaving of inserts, removes and reweights —
//!    applied in arbitrary batch sizes — the repaired index is bit-identical
//!    to a from-scratch [`SimilarityIndex::build`] on the final graph, and
//!    any `(ε, μ)` query answers bit-identically (labels *and* roles, in
//!    original vertex ids) to a query on that fresh index.
//! 2. The dynamic query is SCAN-equivalent (Lemma 4) to full anySCAN driver
//!    runs on the final graph across exact-preserving kernel configurations
//!    (sketch mode off/assist × hub bitmaps on/off).
//! 3. Crash-mid-batch recovery: a fault-injected panic during a log save
//!    loses nothing — load + replay + re-feeding the tail of the source
//!    trace converges to the same bits as an uninterrupted run.

use anyscan::{AnyScan, AnyScanConfig};
use anyscan_dynamic::{DynamicIndex, EdgeOp, EdgeUpdate, UpdateLog};
use anyscan_graph::{CsrGraph, GraphBuilder, VertexId};
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::verify::check_scan_equivalent;
use anyscan_scan_common::ScanParams;
use anyscan_telemetry::Telemetry;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (8usize..32)
        .prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32, 0.1f64..1.0);
            (Just(n), proptest::collection::vec(edge, 0..90))
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

/// Raw op material: endpoint seeds, op selector and weight. Endpoints are
/// reduced mod |V| (bumping collisions) so every update is structurally
/// valid; sequence numbers are assigned 1..
fn arb_ops() -> impl Strategy<Value = Vec<(u32, u32, u8, f64)>> {
    proptest::collection::vec((0u32..64, 0u32..64, 0u8..3, 0.1f64..2.0), 1..50)
}

fn materialize(n: usize, raw: &[(u32, u32, u8, f64)]) -> Vec<EdgeUpdate> {
    raw.iter()
        .enumerate()
        .map(|(i, &(a, b, kind, w))| {
            let u = a % n as u32;
            let mut v = b % n as u32;
            if v == u {
                v = (u + 1) % n as u32;
            }
            let op = match kind {
                0 => EdgeOp::Insert(w),
                1 => EdgeOp::Remove,
                _ => EdgeOp::Reweight(w),
            };
            EdgeUpdate {
                seq: (i + 1) as u64,
                u,
                v,
                op,
            }
        })
        .collect()
}

/// Applies `updates` in chunks of `batch` and returns the engine.
fn run_dynamic(g: &CsrGraph, updates: &[EdgeUpdate], batch: usize, threads: usize) -> DynamicIndex {
    let mut d = DynamicIndex::new(g, threads).expect("fresh engine");
    for chunk in updates.chunks(batch.max(1)) {
        d.apply_batch(chunk, &Telemetry::disabled())
            .expect("valid batch");
    }
    d
}

fn assert_index_bits_eq(a: &SimilarityIndex, b: &SimilarityIndex) {
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    assert_eq!(a.mu_max(), b.mu_max());
    for v in 0..a.num_vertices() as VertexId {
        let (ia, sa) = a.neighbor_order(v);
        let (ib, sb) = b.neighbor_order(v);
        assert_eq!(ia, ib, "neighbor order of {v}");
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(sa), bits(sb), "σ bits of {v}");
    }
    for mu in 1..=a.mu_max().max(b.mu_max()) {
        let (va, ta) = a.core_order(mu);
        let (vb, tb) = b.core_order(mu);
        assert_eq!(va, vb, "core order at mu={mu}");
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ta), bits(tb), "thresholds at mu={mu}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tentpole acceptance: after every batch the index equals a fresh
    /// build, and any (ε, μ) query is bit-identical to the fresh index's.
    #[test]
    fn interleaved_updates_equal_fresh_build(
        g in arb_graph(),
        raw in arb_ops(),
        batch in 1usize..9,
        threads in 1usize..4,
        eps in 0.1f64..0.95,
        mu in 1usize..7,
    ) {
        let updates = materialize(g.num_vertices(), &raw);
        let d = run_dynamic(&g, &updates, batch, threads);
        let final_csr = d.to_csr().expect("snapshot");
        let fresh = SimilarityIndex::build(&final_csr, threads);
        assert_index_bits_eq(d.index(), &fresh);

        let params = ScanParams::new(eps, mu);
        let ours = d.query(params);
        let theirs = fresh.query(&final_csr, params);
        prop_assert_eq!(&ours.labels, &theirs.labels);
        prop_assert_eq!(&ours.roles, &theirs.roles);
    }

    /// Batch-size invariance: one update at a time, mid-size batches and a
    /// single mega-batch all land on identical bits.
    #[test]
    fn batch_split_is_irrelevant(
        g in arb_graph(),
        raw in arb_ops(),
        threads in 1usize..3,
    ) {
        let updates = materialize(g.num_vertices(), &raw);
        let one = run_dynamic(&g, &updates, 1, threads);
        let some = run_dynamic(&g, &updates, 5, threads);
        let all = run_dynamic(&g, &updates, updates.len(), threads);
        assert_index_bits_eq(one.index(), some.index());
        assert_index_bits_eq(one.index(), all.index());
    }

    /// Satellite: dynamic queries are SCAN-equivalent to a full driver run
    /// on the final graph.
    #[test]
    fn dynamic_query_matches_driver_across_modes(
        g in arb_graph(),
        raw in arb_ops(),
        eps in 0.15f64..0.9,
        mu in 1usize..6,
    ) {
        let updates = materialize(g.num_vertices(), &raw);
        let d = run_dynamic(&g, &updates, 7, 2);
        let final_csr = d.to_csr().expect("snapshot");
        let params = ScanParams::new(eps, mu);
        let ours = d.query(params);

        let config = AnyScanConfig::new(params).with_auto_block_size(final_csr.num_vertices());
        let driver = AnyScan::new(&final_csr, config).run();
        if let Err(e) = check_scan_equivalent(&final_csr, params, &driver, &ours) {
            prop_assert!(false, "divergence from driver (eps={eps}, mu={mu}): {e}");
        }
    }
}

/// Crash mid-batch: the log save for batch 2 panics (injected), the writer
/// dies, and recovery — load, replay, re-feed the tail of the source trace —
/// converges to the bits of an uninterrupted run.
#[test]
fn crash_mid_batch_resume_converges() {
    let dir = std::env::temp_dir().join(format!("asul-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.asul");

    let mut b = GraphBuilder::new(12);
    for (u, v, w) in [
        (0, 1, 0.9),
        (1, 2, 0.8),
        (2, 3, 0.7),
        (3, 4, 0.9),
        (5, 6, 0.6),
    ] {
        b.add_edge(u, v, w);
    }
    let base = b.build();
    let trace = materialize(
        12,
        &[
            (0, 7, 0, 0.5),
            (1, 2, 2, 1.5),
            (2, 3, 1, 0.0),
            (4, 8, 0, 0.9),
            (5, 6, 1, 0.0),
            (7, 9, 0, 0.4),
            (0, 1, 2, 0.3),
            (8, 9, 0, 0.8),
            (10, 11, 0, 0.7),
        ],
    );

    // Uninterrupted reference run.
    let clean = run_dynamic(&base, &trace, 3, 2);

    // Writer loop: apply a batch, append to the log, save. The second save
    // panics (crash between durability points): each save hits the
    // `dynamic::log_write` site twice (inject_io + inject_write), so hit 3
    // is save #2's entry point.
    anyscan_faults::configure("dynamic::log_write", anyscan_faults::FaultAction::Panic, 3);
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut engine = DynamicIndex::new(&base, 2).unwrap();
        let mut log = UpdateLog::new(&base);
        for chunk in trace.chunks(3) {
            engine.apply_batch(chunk, &Telemetry::disabled()).unwrap();
            log.append_batch(chunk).unwrap();
            log.save(&path).unwrap();
        }
    }));
    anyscan_faults::clear();
    assert!(crashed.is_err(), "the injected panic must fire");

    // Recovery: the durable log holds exactly batch 1; replay it, then feed
    // the tail of the source trace past the recovered watermark.
    let recovered = UpdateLog::load(&path).unwrap();
    assert_eq!(
        recovered.applied_seq(),
        3,
        "only the first batch was durable"
    );
    let mut engine = recovered
        .replay(&base, 2, 3, &Telemetry::disabled())
        .unwrap();
    let mut log = recovered.clone();
    let tail: Vec<EdgeUpdate> = trace
        .iter()
        .filter(|u| u.seq > recovered.applied_seq())
        .copied()
        .collect();
    for chunk in tail.chunks(3) {
        engine.apply_batch(chunk, &Telemetry::disabled()).unwrap();
        log.append_batch(chunk).unwrap();
        log.save(&path).unwrap();
    }

    assert_index_bits_eq(engine.index(), clean.index());
    assert_eq!(engine.applied_seq(), clean.applied_seq());
    assert_eq!(
        UpdateLog::load(&path).unwrap().applied_seq(),
        trace.last().unwrap().seq
    );

    let _ = std::fs::remove_dir_all(&dir);
}
