//! End-to-end tests of the dynamic daemon: `ApplyUpdates` batches mutate the
//! resident graph through the incremental engine while concurrent clients
//! keep querying, and every post-swap answer is bit-identical to a
//! from-scratch index on the mutated graph.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use anyscan::RunControl;
use anyscan_dynamic::{DynamicIndex, EdgeOp, EdgeUpdate, UpdateLog};
use anyscan_graph::gen::{planted_partition, PlantedPartitionParams};
use anyscan_graph::CsrGraph;
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::ScanParams;
use anyscan_serve::protocol::{
    read_frame, write_frame, ErrorCode, Request, Response, WireUpdate, RESPONSE_FRAME_LIMIT,
    UPDATE_INSERT, UPDATE_REMOVE, UPDATE_REWEIGHT,
};
use anyscan_serve::{Listener, Server, ServerConfig};
use anyscan_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 0.5;
const MU: u32 = 4;

fn test_graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(41);
    let (g, _) = planted_partition(&mut rng, &PlantedPartitionParams::well_separated(200, 3));
    g
}

struct Daemon {
    server: Arc<Server>,
    addr: std::net::SocketAddr,
    stop: RunControl,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start_dynamic(log: Option<(UpdateLog, std::path::PathBuf)>) -> Daemon {
        let g = test_graph();
        let engine = DynamicIndex::new(&g, 2).unwrap();
        let server = Arc::new(
            Server::new_dynamic(engine, log, ServerConfig::default(), Telemetry::enabled())
                .unwrap(),
        );
        let (listener, addr) = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let stop = RunControl::new();
        let join = {
            let server = Arc::clone(&server);
            let stop = stop.clone();
            std::thread::spawn(move || server.serve(listener, &stop))
        };
        Daemon {
            server,
            addr,
            stop,
            join: Some(join),
        }
    }

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr).unwrap();
        s.set_nodelay(true).unwrap();
        s
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.cancel();
        if let Some(join) = self.join.take() {
            join.join().unwrap().unwrap();
        }
    }
}

fn call<S: Read + Write>(stream: &mut S, request: &Request) -> Response {
    write_frame(stream, &request.encode()).unwrap();
    let payload = read_frame(stream, RESPONSE_FRAME_LIMIT)
        .unwrap()
        .expect("daemon closed the connection");
    Response::decode(&payload).unwrap()
}

/// Three batches that exercise all three ops, including relaxed no-ops.
fn batches() -> Vec<Vec<WireUpdate>> {
    vec![
        vec![
            WireUpdate {
                kind: UPDATE_INSERT,
                u: 0,
                v: 199,
                w: 0.9,
            },
            WireUpdate {
                kind: UPDATE_INSERT,
                u: 1,
                v: 150,
                w: 0.8,
            },
            WireUpdate {
                kind: UPDATE_REMOVE,
                u: 0,
                v: 199,
                w: 0.0,
            },
        ],
        vec![
            WireUpdate {
                kind: UPDATE_REWEIGHT,
                u: 1,
                v: 150,
                w: 0.3,
            },
            WireUpdate {
                kind: UPDATE_REMOVE,
                u: 7,
                v: 123,
                w: 0.0,
            }, // likely absent
            WireUpdate {
                kind: UPDATE_INSERT,
                u: 50,
                v: 51,
                w: 1.5,
            },
        ],
        vec![
            WireUpdate {
                kind: UPDATE_INSERT,
                u: 60,
                v: 170,
                w: 0.7,
            },
            WireUpdate {
                kind: UPDATE_REWEIGHT,
                u: 60,
                v: 170,
                w: 0.2,
            },
        ],
    ]
}

/// Mirrors the daemon's mutations client-side (same seq assignment rule) so
/// the test can compute the expected final state independently.
fn mirror_engine(batches: &[Vec<WireUpdate>]) -> DynamicIndex {
    let g = test_graph();
    let mut engine = DynamicIndex::new(&g, 1).unwrap();
    let mut seq = 0u64;
    for batch in batches {
        let updates: Vec<EdgeUpdate> = batch
            .iter()
            .map(|up| {
                seq += 1;
                let op = match up.kind {
                    UPDATE_INSERT => EdgeOp::Insert(up.w),
                    UPDATE_REMOVE => EdgeOp::Remove,
                    _ => EdgeOp::Reweight(up.w),
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
    engine
}

#[test]
fn updates_apply_under_concurrent_queries_and_match_fresh_build() {
    let dir = std::env::temp_dir().join(format!("serve-dyn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("daemon.asul");
    let log = UpdateLog::new(&test_graph());
    let daemon = Daemon::start_dynamic(Some((log, log_path.clone())));

    // Background clients hammer queries for the whole update sequence; every
    // answer must decode and be internally consistent, whatever epoch it saw.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let mut conn = daemon.connect();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match call(
                        &mut conn,
                        &Request::Query {
                            eps: EPS,
                            mu: MU,
                            want_labels: false,
                        },
                    ) {
                        Response::Query { .. } => served += 1,
                        Response::Error {
                            code: ErrorCode::Overloaded,
                            ..
                        } => {}
                        other => panic!("unexpected response {other:?}"),
                    }
                }
                served
            })
        })
        .collect();

    let mut writer = daemon.connect();
    let mut expect_seq = 0u64;
    for (i, batch) in batches().into_iter().enumerate() {
        let len = batch.len() as u64;
        expect_seq += len;
        match call(&mut writer, &Request::ApplyUpdates { updates: batch }) {
            Response::ApplyUpdates {
                applied,
                skipped,
                seq,
                epoch,
            } => {
                assert_eq!(
                    seq, expect_seq,
                    "daemon assigns contiguous sequence numbers"
                );
                assert_eq!(epoch, (i + 1) as u64, "every batch installs a new epoch");
                assert_eq!(applied + skipped, len, "every update is accounted for");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let served = r.join().unwrap();
        assert!(served > 0, "readers must have been answered during updates");
    }

    // The served snapshot now equals a from-scratch index on the mirrored
    // final graph, bit for bit.
    let mirror = mirror_engine(&batches());
    let final_csr = mirror.to_csr().unwrap();
    let fresh = SimilarityIndex::build(&final_csr, 1);
    let expected = fresh.query(&final_csr, ScanParams::new(EPS, MU as usize));
    let mut conn = daemon.connect();
    match call(
        &mut conn,
        &Request::Query {
            eps: EPS,
            mu: MU,
            want_labels: true,
        },
    ) {
        Response::Query {
            labels: Some(block),
            ..
        } => {
            assert_eq!(block.labels, expected.labels);
            let expected_roles: Vec<u8> = expected
                .roles
                .iter()
                .map(|&r| anyscan_serve::role_code(r))
                .collect();
            assert_eq!(block.roles, expected_roles);
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Ping reports the accepted batches; the durable log carries them all.
    match call(&mut conn, &Request::Ping) {
        Response::Ping(health) => assert_eq!(health.stats.updates, 3),
        other => panic!("unexpected response {other:?}"),
    }
    let durable = UpdateLog::load(&log_path).unwrap();
    assert_eq!(durable.applied_seq(), expect_seq);
    assert_eq!(durable.entries().len(), expect_seq as usize);
    assert_eq!(daemon.server.current_epoch(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_batches_are_rejected_without_an_epoch_swap() {
    let daemon = Daemon::start_dynamic(None);
    let mut conn = daemon.connect();

    // Out-of-range endpoint: typed BadRequest, nothing applied.
    match call(
        &mut conn,
        &Request::ApplyUpdates {
            updates: vec![WireUpdate {
                kind: UPDATE_INSERT,
                u: 0,
                v: 100_000,
                w: 1.0,
            }],
        },
    ) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(daemon.server.current_epoch(), 0);

    // Empty batch: a no-op success echoing the current state.
    match call(&mut conn, &Request::ApplyUpdates { updates: vec![] }) {
        Response::ApplyUpdates {
            applied: 0,
            skipped: 0,
            seq: 0,
            epoch: 0,
        } => {}
        other => panic!("unexpected response {other:?}"),
    }

    // A valid batch still lands after the rejection.
    match call(
        &mut conn,
        &Request::ApplyUpdates {
            updates: vec![WireUpdate {
                kind: UPDATE_INSERT,
                u: 0,
                v: 1,
                w: 1.0,
            }],
        },
    ) {
        Response::ApplyUpdates {
            applied: 1,
            seq: 1,
            epoch: 1,
            ..
        } => {}
        other => panic!("unexpected response {other:?}"),
    }
}

#[test]
fn static_daemon_rejects_apply_updates() {
    let g = test_graph();
    let idx = SimilarityIndex::build(&g, 1);
    let perm = anyscan_graph::VertexPermutation::identity(g.num_vertices());
    let server = Arc::new(
        Server::new(g, perm, idx, ServerConfig::default(), Telemetry::disabled()).unwrap(),
    );
    assert!(!server.is_dynamic());
    let resp = server.dispatch(Request::ApplyUpdates {
        updates: vec![WireUpdate {
            kind: UPDATE_REMOVE,
            u: 0,
            v: 1,
            w: 0.0,
        }],
    });
    match resp {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("dynamic"), "got: {message}");
        }
        other => panic!("unexpected response {other:?}"),
    }
}

/// The summary a `Run` response carries, computed locally.
fn summary_of(c: &anyscan_scan_common::Clustering) -> anyscan_serve::QuerySummary {
    let rc = c.role_counts();
    anyscan_serve::QuerySummary {
        clusters: c.num_clusters() as u32,
        cores: rc.cores as u32,
        borders: rc.borders as u32,
        hubs: rc.hubs as u32,
        outliers: rc.outliers as u32,
    }
}

#[test]
fn run_after_writes_clusters_the_mutated_graph() {
    // Dynamic epochs after the first build their graph on the first `Run`;
    // it must be the mutated graph, built once and reused within the epoch.
    let daemon = Daemon::start_dynamic(None);
    let mut conn = daemon.connect();
    for batch in batches() {
        match call(&mut conn, &Request::ApplyUpdates { updates: batch }) {
            Response::ApplyUpdates { .. } => {}
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(daemon.server.current_epoch(), 3);

    let mirror = mirror_engine(&batches()).to_csr().unwrap();
    let params = ScanParams::new(EPS, MU as usize);
    // The daemon's run configuration (one worker thread by default).
    let config = anyscan::AnyScanConfig::new(params)
        .with_auto_block_size(mirror.num_vertices())
        .with_threads(ServerConfig::default().threads);
    let expected = summary_of(&anyscan::AnyScan::new(&mirror, config).run());

    let run = Request::Run {
        eps: EPS,
        mu: MU,
        deadline_ms: 0,
        max_blocks: 0,
    };
    let first = match call(&mut conn, &run) {
        Response::Run {
            summary,
            completion,
            ..
        } => {
            assert_eq!(
                completion,
                anyscan_serve::completion_code(anyscan::Completion::Complete)
            );
            assert_eq!(summary, expected, "run must cluster the mutated graph");
            summary
        }
        other => panic!("unexpected response {other:?}"),
    };
    match call(&mut conn, &run) {
        Response::Run { summary, .. } => assert_eq!(summary, first, "same epoch, same answer"),
        other => panic!("unexpected response {other:?}"),
    }
    assert_eq!(
        daemon.server.current_epoch(),
        3,
        "runs never move the epoch"
    );

    let fresh = SimilarityIndex::build(&mirror, 1).query(&mirror, params);
    match call(
        &mut conn,
        &Request::Query {
            eps: EPS,
            mu: MU,
            want_labels: true,
        },
    ) {
        Response::Query {
            labels: Some(block),
            ..
        } => {
            assert_eq!(block.labels, fresh.labels);
            let roles: Vec<u8> = fresh
                .roles
                .iter()
                .map(|&r| anyscan_serve::role_code(r))
                .collect();
            assert_eq!(block.roles, roles);
        }
        other => panic!("unexpected response {other:?}"),
    }
}
