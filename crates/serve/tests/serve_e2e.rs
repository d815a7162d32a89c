//! End-to-end daemon tests over real TCP connections on an OS-chosen port.
//!
//! The headline check is the ISSUE's concurrency-correctness criterion:
//! N parallel clients issuing identical `(eps, mu)` queries must receive
//! responses *bit-identical* to each other and to the serially computed
//! `index query` answer.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use anyscan::RunControl;
use anyscan_graph::gen::{planted_partition, PlantedPartitionParams};
use anyscan_graph::reorder::reorder;
use anyscan_graph::{CsrGraph, ReorderMode, VertexPermutation};
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::{Clustering, ScanParams};
use anyscan_serve::protocol::{
    read_frame, write_frame, ErrorCode, LabelBlock, QuerySummary, Request, Response,
    RESPONSE_FRAME_LIMIT,
};
use anyscan_serve::server::role_code;
use anyscan_serve::{Listener, Server, ServerConfig};
use anyscan_telemetry::{Counter, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f64 = 0.5;
const MU: u32 = 4;

fn test_graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(7);
    let (g, _) = planted_partition(&mut rng, &PlantedPartitionParams::well_separated(300, 3));
    g
}

struct Daemon {
    server: Arc<Server>,
    addr: std::net::SocketAddr,
    stop: RunControl,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(config: ServerConfig) -> Daemon {
        let g = test_graph();
        let perm = VertexPermutation::identity(g.num_vertices());
        Daemon::start_on(g, perm, config)
    }

    /// A daemon over `g` (already relabeled by `perm`, as `serve` does for a
    /// reordered index) answering in original vertex ids.
    fn start_on(g: CsrGraph, perm: VertexPermutation, config: ServerConfig) -> Daemon {
        let idx = SimilarityIndex::build(&g, 1);
        let server = Arc::new(Server::new(g, perm, idx, config, Telemetry::enabled()).unwrap());
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

    /// How many index queries the daemon has run: a cache hit runs none.
    fn index_queries(&self) -> u64 {
        let report = self.server.telemetry().report().unwrap();
        report.counter(Counter::IndexQueries)
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

/// One request/response exchange, returning the raw response payload.
fn call_raw<S: Read + Write>(stream: &mut S, request: &Request) -> Vec<u8> {
    write_frame(stream, &request.encode()).unwrap();
    read_frame(stream, RESPONSE_FRAME_LIMIT)
        .unwrap()
        .expect("daemon closed the connection")
}

fn call<S: Read + Write>(stream: &mut S, request: &Request) -> Response {
    Response::decode(&call_raw(stream, request)).unwrap()
}

/// The serially computed ground truth: what `index query` would answer.
fn serial_answer() -> (QuerySummary, LabelBlock) {
    let g = test_graph();
    let idx = SimilarityIndex::build(&g, 1);
    wire_form(idx.query(&g, ScanParams::new(EPS, MU as usize)))
}

fn wire_form(c: Clustering) -> (QuerySummary, LabelBlock) {
    let rc = c.role_counts();
    (
        QuerySummary {
            clusters: c.num_clusters() as u32,
            cores: rc.cores as u32,
            borders: rc.borders as u32,
            hubs: rc.hubs as u32,
            outliers: rc.outliers as u32,
        },
        LabelBlock {
            labels: c.labels.clone(),
            roles: c.roles.iter().copied().map(role_code).collect(),
        },
    )
}

#[test]
fn concurrent_queries_are_bit_identical_to_serial() {
    let daemon = Daemon::start(ServerConfig::default());
    let (summary, labels) = serial_answer();
    let expected = Response::Query {
        summary,
        labels: Some(labels),
    }
    .encode();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let mut stream = daemon.connect();
            std::thread::spawn(move || {
                call_raw(
                    &mut stream,
                    &Request::Query {
                        eps: EPS,
                        mu: MU,
                        want_labels: true,
                    },
                )
            })
        })
        .collect();
    for client in clients {
        let raw = client.join().unwrap();
        assert_eq!(
            raw, expected,
            "a concurrent response diverged from the serial answer"
        );
    }
    assert_eq!(daemon.server.stats().queries, 8);
    assert_eq!(daemon.server.stats().protocol_errors, 0);
}

#[test]
fn membership_lookups_match_full_labels() {
    let daemon = Daemon::start(ServerConfig::default());
    let (_, labels) = serial_answer();
    let mut stream = daemon.connect();
    for vertex in [0u32, 1, 57, 150, 299] {
        match call(
            &mut stream,
            &Request::Membership {
                vertex,
                eps: EPS,
                mu: MU,
            },
        ) {
            Response::Membership { label, role } => {
                assert_eq!(label, labels.labels[vertex as usize], "vertex {vertex}");
                assert_eq!(role, labels.roles[vertex as usize], "vertex {vertex}");
            }
            other => panic!("expected Membership, got {other:?}"),
        }
    }
}

#[test]
fn anytime_runs_complete_and_respect_budgets() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut stream = daemon.connect();
    // Unbounded run: completes exactly.
    match call(
        &mut stream,
        &Request::Run {
            eps: EPS,
            mu: MU,
            deadline_ms: 0,
            max_blocks: 0,
        },
    ) {
        Response::Run {
            completion, blocks, ..
        } => {
            assert_eq!(completion, 0, "expected a complete run");
            assert!(blocks > 0);
        }
        other => panic!("expected Run, got {other:?}"),
    }
    // One-block budget: the anytime driver stops early with a typed label.
    match call(
        &mut stream,
        &Request::Run {
            eps: EPS,
            mu: MU,
            deadline_ms: 0,
            max_blocks: 1,
        },
    ) {
        Response::Run { completion, .. } => {
            assert_eq!(completion, 3, "expected budget_exhausted");
        }
        other => panic!("expected Run, got {other:?}"),
    }
}

#[test]
fn bad_requests_get_typed_errors_and_the_connection_survives() {
    let daemon = Daemon::start(ServerConfig::default());
    let mut stream = daemon.connect();

    // Unknown opcode: typed BadRequest, stream stays usable.
    write_frame(&mut stream, &[0x7f, 1, 2, 3]).unwrap();
    let payload = read_frame(&mut stream, RESPONSE_FRAME_LIMIT)
        .unwrap()
        .unwrap();
    match Response::decode(&payload).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected Error, got {other:?}"),
    }

    // Semantic violations: eps out of range, vertex out of range.
    for request in [
        Request::Query {
            eps: 1.5,
            mu: MU,
            want_labels: false,
        },
        Request::Query {
            eps: EPS,
            mu: 0,
            want_labels: false,
        },
        Request::Membership {
            vertex: 300,
            eps: EPS,
            mu: MU,
        },
    ] {
        match call(&mut stream, &request) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected Error for {request:?}, got {other:?}"),
        }
    }

    // The same connection still answers work after all those rejections.
    match call(&mut stream, &Request::Ping) {
        Response::Ping(health) => assert!(health.stats.requests >= 4),
        other => panic!("expected Ping, got {other:?}"),
    }

    // An oversized frame is answered best-effort and the connection closed.
    let mut fresh = daemon.connect();
    fresh.write_all(&u32::MAX.to_le_bytes()).unwrap();
    fresh.flush().unwrap();
    let answer = read_frame(&mut fresh, RESPONSE_FRAME_LIMIT).unwrap();
    if let Some(payload) = answer {
        match Response::decode(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected Error, got {other:?}"),
        }
        // ... and then EOF.
        assert!(read_frame(&mut fresh, RESPONSE_FRAME_LIMIT)
            .unwrap()
            .is_none());
    }
    assert!(daemon.server.stats().protocol_errors >= 1);
}

#[test]
fn saturated_admission_returns_typed_overloaded() {
    let daemon = Daemon::start(ServerConfig {
        max_inflight: 1,
        queue_depth: 0,
        ..ServerConfig::default()
    });
    // Deterministically hold the only execution slot.
    let permit = daemon.server.admission().acquire().unwrap();
    let mut stream = daemon.connect();
    match call(
        &mut stream,
        &Request::Query {
            eps: EPS,
            mu: MU,
            want_labels: false,
        },
    ) {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Overloaded);
            assert!(message.contains("overloaded"), "{message}");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Pings still answer while saturated (health checks bypass admission).
    assert!(matches!(
        call(&mut stream, &Request::Ping),
        Response::Ping(_)
    ));
    assert_eq!(daemon.server.stats().overloaded, 1);

    // Releasing the slot restores service on the same connection.
    drop(permit);
    for _ in 0..100 {
        if daemon.server.admission().inflight() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(matches!(
        call(
            &mut stream,
            &Request::Query {
                eps: EPS,
                mu: MU,
                want_labels: false,
            },
        ),
        Response::Query { .. }
    ));
}

#[test]
fn shutdown_request_drains_the_daemon() {
    let mut daemon = Daemon::start(ServerConfig::default());
    let mut stream = daemon.connect();
    assert!(matches!(
        call(&mut stream, &Request::Shutdown),
        Response::Shutdown
    ));
    let join = daemon.join.take().unwrap();
    // The accept loop notices the stop flag and exits on its own.
    join.join().unwrap().unwrap();
    assert!(daemon.server.is_stopping());
}

/// A repeated labelled `Query` is answered from the wire-form cache: both
/// frames equal the serial answer byte for byte, yet only the first ran an
/// index query. A `Membership` read after the hit indexes the same block.
#[test]
fn repeated_labelled_query_hits_the_cache_with_identical_frames() {
    let daemon = Daemon::start(ServerConfig::default());
    let (summary, labels) = serial_answer();
    let expected = Response::Query {
        summary,
        labels: Some(labels.clone()),
    }
    .encode();
    let query = Request::Query {
        eps: EPS,
        mu: MU,
        want_labels: true,
    };
    let mut stream = daemon.connect();
    assert_eq!(call_raw(&mut stream, &query), expected, "miss frame");
    assert_eq!(call_raw(&mut stream, &query), expected, "hit frame");
    assert_eq!(daemon.index_queries(), 1, "the second answer was not a hit");

    for vertex in [0u32, 42, 150, 299] {
        let request = Request::Membership {
            vertex,
            eps: EPS,
            mu: MU,
        };
        assert_eq!(
            call(&mut stream, &request),
            Response::Membership {
                label: labels.labels[vertex as usize],
                role: labels.roles[vertex as usize],
            },
            "vertex {vertex}"
        );
    }
    assert_eq!(
        daemon.index_queries(),
        1,
        "lookups after the hit recomputed"
    );
}

/// A `Membership` miss caches the block without its summary; the `Query`
/// that follows hits and counts the summary then. Its frame equals the one
/// a daemon answering the `Query` alone sends, even when the miss ran on
/// four workers and the lone `Query` on one.
#[test]
fn membership_miss_then_query_sends_the_lone_query_frame() {
    let query = Request::Query {
        eps: EPS,
        mu: MU,
        want_labels: true,
    };
    let alone = Daemon::start(ServerConfig::default());
    let expected = call_raw(&mut alone.connect(), &query);

    let daemon = Daemon::start(ServerConfig {
        threads: 4,
        ..ServerConfig::default()
    });
    let mut stream = daemon.connect();
    let lookup = Request::Membership {
        vertex: 42,
        eps: EPS,
        mu: MU,
    };
    assert!(matches!(
        call(&mut stream, &lookup),
        Response::Membership { .. }
    ));
    assert_eq!(call_raw(&mut stream, &query), expected);
    assert_eq!(
        daemon.index_queries(),
        1,
        "the Query after the lookup missed"
    );
}

/// A daemon over a degree-reordered graph answers in original ids: its miss
/// and hit frames both equal the serial `index query` answer mapped back
/// through the permutation and canonicalized, as `--labels-out` writes it.
#[test]
fn reordered_daemon_answers_match_serial_in_original_ids() {
    let (g, perm) = reorder(&test_graph(), ReorderMode::Degree);
    assert!(
        !perm.is_identity(),
        "the test needs a non-identity permutation"
    );
    let params = ScanParams::new(EPS, MU as usize);
    let mut c = SimilarityIndex::build(&g, 1).query(&g, params);
    c.labels = perm.to_original(&c.labels);
    c.roles = perm.to_original(&c.roles);
    c.canonicalize();
    let (summary, labels) = wire_form(c);
    let expected = Response::Query {
        summary,
        labels: Some(labels.clone()),
    }
    .encode();

    let daemon = Daemon::start_on(g, perm, ServerConfig::default());
    let query = Request::Query {
        eps: EPS,
        mu: MU,
        want_labels: true,
    };
    let mut stream = daemon.connect();
    assert_eq!(call_raw(&mut stream, &query), expected, "miss frame");
    assert_eq!(call_raw(&mut stream, &query), expected, "hit frame");
    assert_eq!(daemon.index_queries(), 1);
    let request = Request::Membership {
        vertex: 7,
        eps: EPS,
        mu: MU,
    };
    assert_eq!(
        call(&mut stream, &request),
        Response::Membership {
            label: labels.labels[7],
            role: labels.roles[7],
        }
    );
}
