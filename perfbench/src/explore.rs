//! `explore-gr02x8`: interactive exploration of the GR02 analogue at scale 8
//! through a static daemon. Cold start is load → `SimilarityIndex::build` →
//! `Server::new` → a `Ping` answered on a unix socket. Then one closed-loop
//! client follows a seeded path over a 7 ε × 5 μ grid and sends `Query`
//! with labels. The grid has more points than the daemon's
//! 16-entry cache, so both cache hits and misses occur, at the same
//! positions in every run of a seed.

use std::collections::BTreeMap;
use std::time::Instant;

use anyscan_graph::{CsrGraph, VertexPermutation};
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::ScanParams;
use anyscan_serve::{Request, Response, Server};
use anyscan_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::daemon::{
    build_index, cold_starts, cold_starts_after, fingerprint, fingerprint_of, layer_metrics,
    server_config, socket_phase, traced_cold_starts, ColdStart, Daemon, Replay, SETUP_REPS,
};
use crate::stats::{median, ms, quantile};
use crate::sys::peak_rss_mb;
use crate::trace::Tracer;
use crate::{load_graph, Outcome, Run, THREADS};

const EPS: [f64; 7] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
const MU: [u32; 5] = [3, 4, 5, 6, 7];
/// Requests the traced run replays, over the socket and in process.
const TRACE_REQUESTS: usize = 120;

/// The seeded path over the grid. Three requests in ten go to the point
/// used longest ago, which the 16-entry cache no longer holds (a miss);
/// the other seven return to one of the eight points used most recently
/// (a hit). Misses therefore cycle through every grid point equally often,
/// and hits and misses land at the same positions for every seed.
struct Walk {
    rng: StdRng,
    /// Grid indices by last use, most recent last.
    recency: Vec<usize>,
    step: u64,
}

impl Walk {
    fn new(seed: u64) -> Walk {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6578_706c);
        let mut recency: Vec<usize> = (0..EPS.len() * MU.len()).collect();
        recency.shuffle(&mut rng);
        Walk {
            rng,
            recency,
            step: 0,
        }
    }

    /// The eight most recent points, oldest first: sending these first
    /// fills the cache the way the path assumes.
    fn warm_up(&self) -> Vec<(usize, f64, u32)> {
        let recent = &self.recency[self.recency.len() - RECENT..];
        recent.iter().map(|&p| point(p)).collect()
    }

    /// The next grid point as (index, ε, μ).
    fn next(&mut self) -> (usize, f64, u32) {
        let pos = if self.step % 10 < 3 {
            0
        } else {
            self.recency.len() - 1 - self.rng.gen_range(0..RECENT)
        };
        self.step += 1;
        let p = self.recency.remove(pos);
        self.recency.push(p);
        point(p)
    }
}

/// Points a cache hit returns to.
const RECENT: usize = 8;

fn point(p: usize) -> (usize, f64, u32) {
    (p, EPS[p / MU.len()], MU[p % MU.len()])
}

fn query(eps: f64, mu: u32) -> Request {
    Request::Query {
        eps,
        mu,
        want_labels: true,
    }
}

fn labels_of(response: &Response) -> Result<u64, String> {
    match response {
        Response::Query {
            labels: Some(block),
            ..
        } => Ok(fingerprint(&block.labels, &block.roles)),
        other => Err(format!(
            "expected a Query answer with labels, got {other:.80?}"
        )),
    }
}

/// One cold start: load, build, serve, answer `Ping`.
fn cold_start(run: &Run, rep: usize, tracer: &Tracer, telemetry: Telemetry) -> ColdStart {
    let id = rep as u64;
    let t = Instant::now();
    let (daemon, build_cpu_ns) = tracer.span("bench.cold_start", id, || {
        let g = tracer.span("graph.load", id, || load_graph(&run.graph));
        let (idx, cpu) = build_index(&g, rep, tracer, &telemetry);
        let perm = VertexPermutation::identity(g.num_vertices());
        let server = tracer.span("serve.new", id, || {
            Server::new(g, perm, idx, server_config(), telemetry).expect("index matches its graph")
        });
        let socket = run.work.join(format!("explore-{rep}.sock"));
        let daemon = tracer.span("client.connect_ping", id, || Daemon::start(server, &socket));
        (daemon, cpu)
    });
    ColdStart {
        daemon,
        secs: t.elapsed().as_secs_f64(),
        build_cpu_ns,
    }
}

/// Serial answers for every grid point, by grid index.
fn reference(g: &CsrGraph) -> BTreeMap<usize, u64> {
    let idx = SimilarityIndex::build(g, 1);
    (0..EPS.len() * MU.len())
        .map(|p| {
            let (_, eps, mu) = point(p);
            let c = idx.query(g, ScanParams::new(eps, mu as usize));
            (p, fingerprint_of(&c))
        })
        .collect()
}

pub fn measure(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let untraced = |rep| cold_start(run, rep, &Tracer::new(false), Telemetry::disabled());
    let (first, mut setup) = cold_starts(0..SETUP_REPS, untraced);
    let mut daemon = first.daemon;
    out.graph = (daemon.server.num_vertices(), daemon.server.num_edges());

    let mut walk = Walk::new(run.seed);
    let mut answers = Vec::new();
    // Sends one query; returns its round trip in ms. Checking the labels
    // is left out of the round trip.
    let mut send = |daemon: &mut Daemon, (point, eps, mu): (usize, f64, u32)| {
        let t = Instant::now();
        let response = daemon.client.call(&query(eps, mu));
        let rtt = ms(t.elapsed());
        let answer = response
            .map_err(|e| e.to_string())
            .and_then(|r| labels_of(&r));
        answers.push((point, answer));
        rtt
    };
    for step in walk.warm_up() {
        send(&mut daemon, step);
    }
    let mut rtt = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds {
        rtt.push(send(&mut daemon, walk.next()));
    }
    let loop_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    daemon.stop();
    setup.extend(cold_starts_after(untraced));

    let truth = reference(&load_graph(&run.graph));
    for (point, answer) in answers {
        out.check(answer.and_then(|h| {
            if h == truth[&point] {
                Ok(())
            } else {
                Err(format!(
                    "labels at grid point {point} differ from the serial answer"
                ))
            }
        }));
    }

    out.metric("setup_s", median(&setup), setup.len());
    out.metric("latency_p50_ms", median(&rtt), rtt.len());
    out.metric("latency_p90_ms", quantile(&rtt, 0.9), rtt.len());
    out.metric("ops_per_s", rtt.len() as f64 / loop_s, rtt.len());
    out.metric("peak_rss_mb", rss, 1);
    let n = setup.len();
    out.detail("setup_s (load+build+serve+ping)", median(&setup), "s", n);
    out.detail("query_p50_ms", median(&rtt), "ms", rtt.len());
    out.detail("query_p90_ms", quantile(&rtt, 0.9), "ms", rtt.len());
    out
}

pub fn trace(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(true);
    let (mut daemon, build, build_cpu_util) = traced_cold_starts(&tracer, |rep, telemetry| {
        cold_start(run, rep, &tracer, telemetry)
    });
    out.graph = (daemon.server.num_vertices(), daemon.server.num_edges());

    // The same request prefix over the socket ...
    let mut walk = Walk::new(run.seed);
    let mut steps = walk.warm_up();
    steps.extend((0..TRACE_REQUESTS).map(|_| walk.next()));
    let plan: Vec<Request> = steps.iter().map(|&(_, eps, mu)| query(eps, mu)).collect();
    let socket = socket_phase(&mut daemon, &plan, &tracer, &mut out, |_, response| {
        response
            .map_err(|e| e.to_string())
            .and_then(|r| labels_of(&r).map(|_| ()))
    });
    daemon.stop();

    // ... and in process, layer by layer: once without spans, once with.
    let g = load_graph(&run.graph);
    let idx = SimilarityIndex::build(&g, THREADS);
    let plain = replay(
        &g,
        &idx,
        &plan,
        &Tracer::new(false),
        &mut Outcome::default(),
    );
    let traced = replay(&g, &idx, &plan, &tracer, &mut out);

    layer_metrics(
        &mut out,
        &tracer,
        &build,
        build_cpu_util,
        &socket,
        &plain,
        &traced,
    );
    out.self_times = tracer.self_time_by_layer();
    out.spans_written = tracer.write_jsonl(&run.work.join("spans.jsonl")).is_ok();
    out
}

/// Replays `plan` into a fresh in-process server, and answers each request
/// serially with `SimilarityIndex::query` too: the serial answer is the
/// correctness reference.
fn replay(
    g: &CsrGraph,
    idx: &SimilarityIndex,
    plan: &[Request],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Replay {
    let perm = VertexPermutation::identity(g.num_vertices());
    let server = Server::new(
        g.clone(),
        perm,
        idx.clone(),
        server_config(),
        Telemetry::enabled(),
    )
    .expect("index matches its graph");
    let mut r = Replay::default();
    let start = Instant::now();
    for (i, request) in plan.iter().enumerate() {
        let id = i as u64;
        let answer = r.exchange(&server, request, id, tracer).response;
        let Request::Query { eps, mu, .. } = *request else {
            unreachable!("explore sends queries only")
        };
        let params = ScanParams::new(eps, mu as usize);
        let serial = tracer.span("index.query", id, || idx.query(g, params));
        out.check(
            answer
                .map_err(|e| format!("{e:?}"))
                .and_then(|r| labels_of(&r))
                .and_then(|h| {
                    if h == fingerprint_of(&serial) {
                        Ok(())
                    } else {
                        Err(format!(
                            "in-process answer {i} differs from the serial query"
                        ))
                    }
                }),
        );
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}
