//! What the two daemon workloads share: starting and stopping a `Server` on
//! a unix socket with one closed-loop client, the cold-start loop, the
//! traced replays and the per-layer metrics both report the same way.

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use anyscan::RunControl;
use anyscan_client::{Client, ClientError, Endpoint};
use anyscan_graph::CsrGraph;
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::Clustering;
use anyscan_serve::server::role_code;
use anyscan_serve::{DecodeError, Listener, Request, Response, Server, ServerConfig};
use anyscan_telemetry::{Counter, Report, Telemetry};

use crate::stats::{mean, median, ms, quantile};
use crate::sys::process_cpu_ns;
use crate::trace::Tracer;
use crate::{Outcome, THREADS};

/// Cold starts before and again after the timed loop; `setup_s` is the
/// median of all of them, so it samples the whole run.
pub const SETUP_REPS: usize = 3;

/// Default daemon knobs, except that anytime runs may use every thread.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        threads: THREADS,
        ..ServerConfig::default()
    }
}

/// A serving daemon on a unix socket, with the one connection the
/// workload's client uses.
pub struct Daemon {
    pub server: Arc<Server>,
    pub client: Client,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds `socket`, serves on a thread and waits for the first `Ping`
    /// to be answered.
    pub fn start(server: Server, socket: &Path) -> Daemon {
        let path = socket.to_str().expect("socket path is UTF-8").to_string();
        let listener = Listener::bind_unix(&path).expect("bind the unix socket");
        let server = Arc::new(server);
        let serving = Arc::clone(&server);
        let thread = std::thread::spawn(move || serving.serve(listener, &RunControl::new()));
        let mut client = Client::connect(Endpoint::Unix(path)).expect("connect to the daemon");
        match client.call(&Request::Ping) {
            Ok(Response::Ping(_)) => {}
            other => panic!("daemon did not answer Ping: {other:?}"),
        }
        Daemon {
            server,
            client,
            thread,
        }
    }

    /// Asks the daemon to shut down and waits until it has.
    pub fn stop(mut self) {
        let reply = self.client.call(&Request::Shutdown);
        assert!(
            matches!(reply, Ok(Response::Shutdown)),
            "daemon did not acknowledge Shutdown: {reply:?}"
        );
        drop(self.client);
        self.thread
            .join()
            .expect("serve thread panicked")
            .expect("serve loop failed");
    }
}

/// One cold start: the serving daemon, its seconds and, when traced, the
/// CPU nanoseconds its index build used.
pub struct ColdStart {
    pub daemon: Daemon,
    pub secs: f64,
    pub build_cpu_ns: u64,
}

/// Cold starts `reps`, one after another, stopping each daemon before the
/// next starts. Returns the last one, still serving, and every one's
/// seconds.
pub fn cold_starts(
    reps: Range<usize>,
    mut start: impl FnMut(usize) -> ColdStart,
) -> (ColdStart, Vec<f64>) {
    let mut secs = Vec::new();
    let mut last: Option<ColdStart> = None;
    for rep in reps {
        if let Some(previous) = last.take() {
            previous.daemon.stop();
        }
        let next = start(rep);
        secs.push(next.secs);
        last = Some(next);
    }
    (last.expect("at least one cold start"), secs)
}

/// The untraced setup samples taken after the timed loop.
pub fn cold_starts_after(start: impl FnMut(usize) -> ColdStart) -> Vec<f64> {
    let (last, secs) = cold_starts(SETUP_REPS..2 * SETUP_REPS, start);
    last.daemon.stop();
    secs
}

/// The traced cold starts. Only the last one's index build records the
/// program's own telemetry, so its counters describe exactly one build.
/// Returns that daemon, the build's report and its CPU utilisation.
pub fn traced_cold_starts(
    tracer: &Tracer,
    mut start: impl FnMut(usize, Telemetry) -> ColdStart,
) -> (Daemon, Report, f64) {
    let build = Telemetry::enabled();
    let (last, _) = cold_starts(0..SETUP_REPS, |rep| {
        let telemetry = if rep + 1 == SETUP_REPS {
            build.clone()
        } else {
            Telemetry::disabled()
        };
        start(rep, telemetry)
    });
    let build_ms = tracer
        .duration_ms("index.build", SETUP_REPS as u64 - 1)
        .unwrap_or(f64::NAN);
    let cpu_util = last.build_cpu_ns as f64 / (build_ms * 1e6 * THREADS as f64);
    let report = build.report().expect("telemetry was enabled");
    (last.daemon, report, cpu_util)
}

/// `SimilarityIndex::build` under an `index.build` span; when traced, also
/// the CPU nanoseconds the build used.
pub fn build_index(
    g: &CsrGraph,
    rep: usize,
    tracer: &Tracer,
    telemetry: &Telemetry,
) -> (SimilarityIndex, u64) {
    let cpu0 = if tracer.enabled() {
        process_cpu_ns()
    } else {
        0
    };
    let idx = tracer.span("index.build", rep as u64, || {
        SimilarityIndex::build_traced(g, THREADS, telemetry)
    });
    let cpu = if tracer.enabled() {
        process_cpu_ns() - cpu0
    } else {
        0
    };
    (idx, cpu)
}

/// Index queries the server has run so far (its telemetry must be on).
fn index_queries(server: &Server) -> u64 {
    server
        .telemetry()
        .report()
        .map_or(0, |r| r.counter(Counter::IndexQueries))
}

fn is_write(r: &Request) -> bool {
    matches!(r, Request::ApplyUpdates { .. })
}

/// Round trips of the traced socket replay.
pub struct SocketPhase {
    pub read_rtt: Vec<f64>,
    pub hit_rtt: Vec<f64>,
}

/// Sends `plan` over the daemon's connection, each call under a
/// `client.call` span. A read is a cache hit when the daemon ran no index
/// query for it. `check` judges every answer.
pub fn socket_phase(
    daemon: &mut Daemon,
    plan: &[Request],
    tracer: &Tracer,
    out: &mut Outcome,
    mut check: impl FnMut(&Request, Result<Response, ClientError>) -> Result<(), String>,
) -> SocketPhase {
    let mut phase = SocketPhase {
        read_rtt: Vec::new(),
        hit_rtt: Vec::new(),
    };
    for (i, request) in plan.iter().enumerate() {
        let before = index_queries(&daemon.server);
        let t = Instant::now();
        let response = tracer.span("client.call", i as u64, || daemon.client.call(request));
        let elapsed = ms(t.elapsed());
        if !is_write(request) {
            phase.read_rtt.push(elapsed);
            if index_queries(&daemon.server) == before {
                phase.hit_rtt.push(elapsed);
            }
        }
        out.check(check(request, response));
    }
    phase
}

/// One request through the in-process protocol and server.
pub struct Exchange {
    pub response: Result<Response, DecodeError>,
    pub dispatch_ms: f64,
}

/// Reads and response sizes of one in-process replay.
#[derive(Default)]
pub struct Replay {
    pub wall_s: f64,
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    bytes: usize,
    requests: usize,
}

impl Replay {
    /// Encodes `request`, decodes it, dispatches it and encodes and decodes
    /// the response, each step under its span, inside a `bench.request`
    /// span. Reads are sorted into cache hits and misses.
    pub fn exchange(
        &mut self,
        server: &Server,
        request: &Request,
        id: u64,
        tracer: &Tracer,
    ) -> Exchange {
        let before = index_queries(server);
        let (response, dispatch_ms, bytes) = tracer.span("bench.request", id, || {
            let wire = tracer.span("protocol.encode", id, || request.encode());
            let decoded = tracer
                .span("protocol.decode", id, || Request::decode(&wire))
                .expect("request round-trips");
            let t = Instant::now();
            let response = tracer.span("serve.dispatch", id, || server.dispatch(decoded));
            let dispatch_ms = ms(t.elapsed());
            let wire = tracer.span("protocol.encode", id, || response.encode());
            let decoded = tracer.span("protocol.decode", id, || Response::decode(&wire));
            (decoded, dispatch_ms, wire.len())
        });
        self.bytes += bytes;
        self.requests += 1;
        if !is_write(request) {
            if index_queries(server) == before {
                self.hit_ms.push(dispatch_ms);
            } else {
                self.miss_ms.push(dispatch_ms);
            }
        }
        Exchange {
            response,
            dispatch_ms,
        }
    }
}

/// The per-layer metrics both daemon workloads report the same way.
pub fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    build: &Report,
    build_cpu_util: f64,
    socket: &SocketPhase,
    plain: &Replay,
    traced: &Replay,
) {
    let per_request = |name: &str| -> f64 {
        let totals: Vec<f64> = (0..traced.requests)
            .map(|i| tracer.durations_ms_for(name, i as u64).iter().sum())
            .collect();
        mean(&totals)
    };
    let loads = tracer.durations_ms("graph.load");
    let build_ms = tracer.durations_ms("index.build");
    let index_ms = tracer.durations_ms("index.query");
    let sigma_ns = build.span_total("index_sigma").map_or(0, |s| s.total_ns);
    let evals = build.counter(Counter::IndexSigmaEvals);
    let reads = socket.read_rtt.len();

    out.metric("graph.load_s", median(&loads) / 1e3, loads.len());
    out.metric("parallel.cpu_util", build_cpu_util, 1);
    out.metric("kernel.sigma_evals", evals as f64, 1);
    let batched = build.counter(Counter::SigmaPathBatched);
    out.metric("kernel.path_batched", batched as f64, 1);
    let probed = build.counter(Counter::SigmaPathProbe);
    out.metric("kernel.path_probe", probed as f64, 1);
    out.check(if batched + probed == evals {
        Ok(())
    } else {
        Err(format!(
            "index build paths sum to {}, sigma evals {evals}",
            batched + probed
        ))
    });
    let ns_per_sigma = sigma_ns as f64 / evals.max(1) as f64;
    out.metric("kernel.ns_per_sigma", ns_per_sigma, 1);
    out.metric("index.build_s", median(&build_ms) / 1e3, build_ms.len());
    out.metric("index.sigma_evals", evals as f64, 1);
    out.metric("index.query_p50_ms", median(&index_ms), index_ms.len());
    let index_p90 = quantile(&index_ms, 0.9);
    out.metric("index.query_p90_ms", index_p90, index_ms.len());
    let hit_ms = &traced.hit_ms;
    out.metric("serve.dispatch_hit_ms", median(hit_ms), hit_ms.len());
    let miss_ms = &traced.miss_ms;
    out.metric("serve.dispatch_miss_ms", median(miss_ms), miss_ms.len());
    let hit_ratio = socket.hit_rtt.len() as f64 / reads.max(1) as f64;
    out.metric("serve.cache_hit_ratio", hit_ratio, reads);
    let requests = traced.requests;
    out.metric(
        "protocol.encode_ms",
        per_request("protocol.encode"),
        requests,
    );
    out.metric(
        "protocol.decode_ms",
        per_request("protocol.decode"),
        requests,
    );
    let bytes = traced.bytes as f64 / requests.max(1) as f64;
    out.metric("protocol.response_bytes", bytes, requests);
    let hit_rtt = &socket.hit_rtt;
    let overhead = median(hit_rtt) - median(hit_ms);
    out.metric("client.rtt_overhead_ms", overhead, hit_rtt.len());
    out.metric("client.hit_rtt_ms", median(hit_rtt), hit_rtt.len());
    out.metric("client.read_p90_ms", quantile(&socket.read_rtt, 0.9), reads);
    let overhead = traced.wall_s / plain.wall_s - 1.0;
    out.metric("trace.overhead_ratio", overhead, 1);
}

/// Fingerprint of a label/role block as the protocol carries it.
pub fn fingerprint(labels: &[u32], roles: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    for &l in labels {
        h.write_u32(l);
    }
    h.write(roles);
    h.finish()
}

/// Fingerprint of an in-process clustering, in the protocol's encoding.
pub fn fingerprint_of(c: &Clustering) -> u64 {
    let roles: Vec<u8> = c.roles.iter().copied().map(role_code).collect();
    fingerprint(&c.labels, &roles)
}
