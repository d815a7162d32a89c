//! A failed commit on a dynamic daemon: when the mutation log cannot be
//! saved, the batch is answered `Internal` and nothing it wrote becomes
//! visible — no epoch swap, no durable-watermark advance, and no `Run` on
//! the engine's unsaved state — until the next batch commits.
//!
//! This file is its own test binary (own process) because failpoints are
//! process-global: the armed `dynamic::log_write` fault must be consumed by
//! this daemon's save and by nothing else.

use anyscan::{AnyScan, AnyScanConfig};
use anyscan_dynamic::{DynamicIndex, EdgeOp, EdgeUpdate, UpdateLog};
use anyscan_faults::FaultAction;
use anyscan_graph::gen::{planted_partition, PlantedPartitionParams};
use anyscan_graph::CsrGraph;
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::ScanParams;
use anyscan_serve::protocol::{
    ErrorCode, LabelBlock, Request, Response, WireUpdate, UPDATE_INSERT, UPDATE_REMOVE,
};
use anyscan_serve::{QuerySummary, Server, ServerConfig};
use anyscan_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 0.5;
const MU: u32 = 4;

fn test_graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(43);
    let (g, _) = planted_partition(&mut rng, &PlantedPartitionParams::well_separated(150, 3));
    g
}

fn insert(u: u32, v: u32, w: f64) -> WireUpdate {
    WireUpdate {
        kind: UPDATE_INSERT,
        u,
        v,
        w,
    }
}

fn remove(u: u32, v: u32) -> WireUpdate {
    WireUpdate {
        kind: UPDATE_REMOVE,
        u,
        v,
        w: 0.0,
    }
}

/// Applies `batches` to a fresh engine with the daemon's sequence rule.
fn mirror(batches: &[&[WireUpdate]]) -> CsrGraph {
    let mut engine = DynamicIndex::new(&test_graph(), 1).unwrap();
    let mut seq = 0u64;
    for batch in batches {
        let updates: Vec<EdgeUpdate> = batch
            .iter()
            .map(|up| {
                seq += 1;
                let op = if up.kind == UPDATE_INSERT {
                    EdgeOp::Insert(up.w)
                } else {
                    EdgeOp::Remove
                };
                EdgeUpdate {
                    seq,
                    u: up.u,
                    v: up.v,
                    op,
                }
            })
            .collect();
        engine
            .apply_batch(&updates, &Telemetry::disabled())
            .unwrap();
    }
    engine.to_csr().unwrap()
}

fn labels(server: &Server) -> LabelBlock {
    match server.dispatch(Request::Query {
        eps: EPS,
        mu: MU,
        want_labels: true,
    }) {
        Response::Query {
            labels: Some(block),
            ..
        } => block,
        other => panic!("unexpected response {other:?}"),
    }
}

fn rebuilt_labels(g: &CsrGraph) -> LabelBlock {
    let c = SimilarityIndex::build(g, 1).query(g, ScanParams::new(EPS, MU as usize));
    LabelBlock {
        roles: c
            .roles
            .iter()
            .map(|&r| anyscan_serve::role_code(r))
            .collect(),
        labels: c.labels,
    }
}

fn run(server: &Server) -> Response {
    server.dispatch(Request::Run {
        eps: EPS,
        mu: MU,
        deadline_ms: 0,
        max_blocks: 0,
    })
}

fn run_summary(g: &CsrGraph) -> QuerySummary {
    let config = AnyScanConfig::new(ScanParams::new(EPS, MU as usize))
        .with_auto_block_size(g.num_vertices())
        .with_threads(ServerConfig::default().threads);
    let c = AnyScan::new(g, config).run();
    let rc = c.role_counts();
    QuerySummary {
        clusters: c.num_clusters() as u32,
        cores: rc.cores as u32,
        borders: rc.borders as u32,
        hubs: rc.hubs as u32,
        outliers: rc.outliers as u32,
    }
}

#[test]
fn failed_log_save_keeps_the_durable_epoch_and_refuses_runs() {
    let dir = std::env::temp_dir().join(format!("serve-commit-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("daemon.asul");
    let g = test_graph();
    let engine = DynamicIndex::new(&g, 1).unwrap();
    let log = Some((UpdateLog::new(&g), log_path.clone()));
    let server =
        Server::new_dynamic(engine, log, ServerConfig::default(), Telemetry::disabled()).unwrap();

    let committed: &[WireUpdate] = &[insert(0, 149, 0.9), insert(1, 100, 0.8)];
    let lost: &[WireUpdate] = &[remove(1, 100), insert(2, 120, 1.5), insert(3, 121, 1.5)];
    let next: &[WireUpdate] = &[insert(4, 140, 0.7)];

    // One committed batch: epoch 1, whose graph no `Run` has built yet.
    match server.dispatch(Request::ApplyUpdates {
        updates: committed.to_vec(),
    }) {
        Response::ApplyUpdates {
            seq: 2, epoch: 1, ..
        } => {}
        other => panic!("unexpected response {other:?}"),
    }
    let durable = mirror(&[committed]);
    let before = labels(&server);
    assert_eq!(before, rebuilt_labels(&durable));
    let unsaved = mirror(&[committed, lost]);
    assert_ne!(
        rebuilt_labels(&unsaved),
        before,
        "the lost batch must change the answer, or the checks below prove nothing"
    );

    // The next batch applies in the engine, but its log save fails.
    anyscan_faults::configure("dynamic::log_write", FaultAction::IoError, 1);
    let failed = server.dispatch(Request::ApplyUpdates {
        updates: lost.to_vec(),
    });
    anyscan_faults::clear();
    match failed {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Internal),
        other => panic!("a failed save must answer Internal, got {other:?}"),
    }
    assert_eq!(
        server.current_epoch(),
        1,
        "no epoch swap without durability"
    );
    assert_eq!(server.durable_watermark(), 2, "the watermark stays durable");
    assert_eq!(labels(&server), before, "queries keep the durable answer");
    match run(&server) {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("durable"), "got: {message}");
        }
        other => panic!("a run must not see the unsaved graph, got {other:?}"),
    }

    // The next batch commits: the log now saves the earlier batch too, and
    // the epoch advances by exactly one.
    let total = (committed.len() + lost.len() + next.len()) as u64;
    match server.dispatch(Request::ApplyUpdates {
        updates: next.to_vec(),
    }) {
        Response::ApplyUpdates { seq, epoch, .. } => {
            assert_eq!(seq, total);
            assert_eq!(epoch, 2);
        }
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(server.durable_watermark(), total);
    assert_eq!(UpdateLog::load(&log_path).unwrap().applied_seq(), total);
    let now = mirror(&[committed, lost, next]);
    assert_eq!(labels(&server), rebuilt_labels(&now));
    match run(&server) {
        Response::Run { summary, .. } => assert_eq!(summary, run_summary(&now)),
        other => panic!("unexpected response {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
