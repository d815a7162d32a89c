//! `live-gr02x2`: writes beside reads on a dynamic daemon with a fresh
//! durable ASUL log, on the GR02 analogue at scale 2. One closed-loop client
//! sends a seeded mix: 80 % `Membership`, 15 % label-less `Query` over an
//! 8-point grid and 5 % `ApplyUpdates` batches of 16 edges. Every write
//! swaps the epoch and clears the query cache, so the reads after it miss.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use anyscan_dynamic::{DynGraph, DynamicIndex, EdgeOp, EdgeUpdate, UpdateLog};
use anyscan_graph::CsrGraph;
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::{Clustering, ScanParams};
use anyscan_serve::server::role_code;
use anyscan_serve::{Request, Response, Server, WireUpdate, UPDATE_INSERT, UPDATE_REMOVE};
use anyscan_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::daemon::{
    build_index, cold_starts, cold_starts_after, fingerprint, fingerprint_of, layer_metrics,
    server_config, socket_phase, traced_cold_starts, ColdStart, Daemon, Replay, SETUP_REPS,
};
use crate::stats::{mean, median, ms, quantile};
use crate::sys::peak_rss_mb;
use crate::trace::Tracer;
use crate::{load_graph, Outcome, Run, THREADS};

const EPS: [f64; 4] = [0.4, 0.5, 0.6, 0.7];
const MU: [u32; 2] = [4, 5];
/// Edge updates per `ApplyUpdates` batch.
const BATCH: usize = 16;
/// Requests the traced run replays, over the socket and in process.
const TRACE_REQUESTS: usize = 400;

fn point(p: usize) -> (f64, u32) {
    (EPS[p / MU.len()], MU[p % MU.len()])
}

/// The seeded request mix. Writes are drawn against a mirror of the graph
/// as the daemon will hold it, so removals name existing edges and inserts
/// new ones; the mirror is also the base of the final correctness check.
struct Mix {
    ops: StdRng,
    writes: StdRng,
    mirror: DynGraph,
}

impl Mix {
    fn new(g: &CsrGraph, seed: u64) -> Mix {
        Mix {
            ops: StdRng::seed_from_u64(seed ^ 0x6c69_7665),
            writes: StdRng::seed_from_u64(seed ^ 0x7772_6974),
            mirror: DynGraph::from_csr(g),
        }
    }

    fn next(&mut self) -> Request {
        let n = self.mirror.num_vertices() as u32;
        let roll = self.ops.gen_range(0..100);
        let (eps, mu) = point(self.ops.gen_range(0..EPS.len() * MU.len()));
        if roll < 80 {
            let vertex = self.ops.gen_range(0..n);
            Request::Membership { vertex, eps, mu }
        } else if roll < 95 {
            Request::Query {
                eps,
                mu,
                want_labels: false,
            }
        } else {
            Request::ApplyUpdates {
                updates: (0..BATCH).map(|k| self.update(k % 2 == 0)).collect(),
            }
        }
    }

    /// Half the updates insert an absent edge, half remove a present one.
    fn update(&mut self, insert: bool) -> WireUpdate {
        let n = self.mirror.num_vertices() as u32;
        loop {
            let u = self.writes.gen_range(0..n);
            if insert {
                let v = self.writes.gen_range(0..n);
                if u != v && self.mirror.edge_weight(u, v).is_none() {
                    let w = self.writes.gen_range(0.5..1.0);
                    self.mirror.set_edge(u, v, w);
                    return WireUpdate {
                        kind: UPDATE_INSERT,
                        u,
                        v,
                        w,
                    };
                }
            } else {
                let row = self.mirror.row(u);
                let (v, _) = row[self.writes.gen_range(0..row.len())];
                if v != u {
                    self.mirror.remove_edge(u, v);
                    return WireUpdate {
                        kind: UPDATE_REMOVE,
                        u,
                        v,
                        w: 0.0,
                    };
                }
            }
        }
    }
}

/// Checks a response has the shape its request asks for.
fn shape(request: &Request, response: &Response, epoch: &mut u64) -> Result<(), String> {
    match (request, response) {
        (Request::Membership { .. }, Response::Membership { .. }) => Ok(()),
        (Request::Query { .. }, Response::Query { labels: None, .. }) => Ok(()),
        (
            Request::ApplyUpdates { updates },
            Response::ApplyUpdates {
                applied,
                skipped,
                epoch: e,
                ..
            },
        ) => {
            *epoch += 1;
            if applied + skipped != updates.len() as u64 || *e != *epoch {
                Err(format!(
                    "write answered applied {applied} + skipped {skipped} at epoch {e}, \
                     expected {} updates at epoch {epoch}",
                    updates.len()
                ))
            } else {
                Ok(())
            }
        }
        (_, other) => Err(format!("unexpected answer {other:.80?}")),
    }
}

/// One cold start: load, build, adopt the index for updates, serve with a
/// fresh log file, answer `Ping`.
fn cold_start(run: &Run, rep: usize, tracer: &Tracer, telemetry: Telemetry) -> ColdStart {
    let id = rep as u64;
    let log_path = run.work.join(format!("live-{rep}.asul"));
    let socket = run.work.join(format!("live-{rep}.sock"));
    let t = Instant::now();
    let (daemon, build_cpu_ns) = tracer.span("bench.cold_start", id, || {
        let g = tracer.span("graph.load", id, || load_graph(&run.graph));
        let (idx, cpu) = build_index(&g, rep, tracer, &telemetry);
        let server = dynamic_server(&g, idx, &log_path, telemetry, tracer, id);
        let daemon = tracer.span("client.connect_ping", id, || Daemon::start(server, &socket));
        (daemon, cpu)
    });
    ColdStart {
        daemon,
        secs: t.elapsed().as_secs_f64(),
        build_cpu_ns,
    }
}

fn dynamic_server(
    g: &CsrGraph,
    idx: SimilarityIndex,
    log_path: &Path,
    telemetry: Telemetry,
    tracer: &Tracer,
    id: u64,
) -> Server {
    let engine = tracer.span("dynamic.from_parts", id, || {
        DynamicIndex::from_parts(g, idx, THREADS).expect("index matches its graph")
    });
    tracer.span("serve.new", id, || {
        let log = Some((UpdateLog::new(g), log_path.to_path_buf()));
        Server::new_dynamic(engine, log, server_config(), telemetry)
            .expect("fresh engine and log agree")
    })
}

/// Final-epoch labels at every grid point must equal a from-scratch build
/// on the mutated graph.
fn check_final(daemon: &mut Daemon, mutated: &DynGraph, out: &mut Outcome) {
    let g = mutated.to_csr().expect("mirror is a valid graph");
    let idx = SimilarityIndex::build(&g, THREADS);
    for p in 0..EPS.len() * MU.len() {
        let (eps, mu) = point(p);
        let truth = fingerprint_of(&idx.query(&g, ScanParams::new(eps, mu as usize)));
        let request = Request::Query {
            eps,
            mu,
            want_labels: true,
        };
        out.check(match daemon.client.call(&request) {
            Ok(Response::Query {
                labels: Some(block),
                ..
            }) if fingerprint(&block.labels, &block.roles) == truth => Ok(()),
            Ok(Response::Query { .. }) => Err(format!(
                "final labels at (eps {eps}, mu {mu}) differ from a rebuild"
            )),
            other => Err(format!("final query failed: {other:.80?}")),
        });
    }
}

pub fn measure(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let untraced = |rep| cold_start(run, rep, &Tracer::new(false), Telemetry::disabled());
    let (first, mut setup) = cold_starts(0..SETUP_REPS, untraced);
    let mut daemon = first.daemon;
    let base = load_graph(&run.graph);
    out.graph = (base.num_vertices(), base.num_edges());
    let mut mix = Mix::new(&base, run.seed);
    drop(base);

    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut epoch = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < run.seconds {
        let request = mix.next();
        let t = Instant::now();
        let response = daemon.client.call(&request);
        let elapsed = ms(t.elapsed());
        if matches!(request, Request::ApplyUpdates { .. }) {
            writes.push(elapsed);
        } else {
            reads.push(elapsed);
        }
        out.check(
            response
                .map_err(|e| e.to_string())
                .and_then(|r| shape(&request, &r, &mut epoch)),
        );
    }
    let loop_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    check_final(&mut daemon, &mix.mirror, &mut out);
    daemon.stop();
    setup.extend(cold_starts_after(untraced));

    let requests = reads.len() + writes.len();
    out.metric("setup_s", median(&setup), setup.len());
    out.metric("latency_p50_ms", median(&writes), writes.len());
    out.metric("latency_p90_ms", quantile(&writes, 0.9), writes.len());
    out.metric("ops_per_s", requests as f64 / loop_s, requests);
    out.metric("peak_rss_mb", rss, 1);
    let n = setup.len();
    out.detail("setup_s (load+build+dynamic+serve)", median(&setup), "s", n);
    out.detail("read_p90_ms", quantile(&reads, 0.9), "ms", reads.len());
    out.detail("write_p50_ms", median(&writes), "ms", writes.len());
    out.detail("write_p90_ms", quantile(&writes, 0.9), "ms", writes.len());
    out
}

pub fn trace(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new(true);
    let (mut daemon, build, build_cpu_util) = traced_cold_starts(&tracer, |rep, telemetry| {
        cold_start(run, rep, &tracer, telemetry)
    });
    let g = load_graph(&run.graph);
    out.graph = (g.num_vertices(), g.num_edges());
    let mut mix = Mix::new(&g, run.seed);
    let plan: Vec<Request> = (0..TRACE_REQUESTS).map(|_| mix.next()).collect();

    // The request prefix over the socket ...
    let mut epoch = 0;
    let socket = socket_phase(
        &mut daemon,
        &plan,
        &tracer,
        &mut out,
        |request, response| {
            response
                .map_err(|e| e.to_string())
                .and_then(|r| shape(request, &r, &mut epoch))
        },
    );
    check_final(&mut daemon, &mix.mirror, &mut out);
    daemon.stop();

    // ... and in process, layer by layer: once without spans, once with.
    let idx = SimilarityIndex::build(&g, THREADS);
    let quiet = Tracer::new(false);
    let (plain, _) = replay(
        run,
        "plain",
        &g,
        &idx,
        &plan,
        &quiet,
        &mut Outcome::default(),
    );
    let (traced, writes) = replay(run, "traced", &g, &idx, &plan, &tracer, &mut out);

    layer_metrics(
        &mut out,
        &tracer,
        &build,
        build_cpu_util,
        &socket,
        &plain,
        &traced,
    );
    let apply_ms = tracer.durations_ms("dynamic.apply_batch");
    let save_ms = tracer.durations_ms("log.save");
    let batches = writes.commit_ms.len();
    out.metric("serve.commit_ms", mean(&writes.commit_ms), batches);
    out.metric("dynamic.apply_batch_ms", median(&apply_ms), apply_ms.len());
    let per_batch = batches.max(1) as f64;
    out.metric(
        "dynamic.sigma_reevals",
        writes.sigma_reevals / per_batch,
        batches,
    );
    let repaired = writes.orders_repaired / per_batch;
    out.metric("dynamic.orders_repaired", repaired, batches);
    out.metric("log.save_ms", median(&save_ms), save_ms.len());
    out.metric("log.bytes_per_save", writes.log_bytes / per_batch, batches);
    out.self_times = tracer.self_time_by_layer();
    out.spans_written = tracer.write_jsonl(&run.work.join("spans.jsonl")).is_ok();
    out
}

/// What the writes of one in-process replay did, summed over batches.
#[derive(Default)]
struct Writes {
    commit_ms: Vec<f64>,
    sigma_reevals: f64,
    orders_repaired: f64,
    log_bytes: f64,
}

/// Replays `plan` into a fresh in-process dynamic server. Each write is
/// also applied to a mirror `DynamicIndex` and appended to a mirror log that
/// is saved, which times the dynamic and log layers on their own; each read
/// is checked against the mirror's answer.
fn replay(
    run: &Run,
    name: &str,
    g: &CsrGraph,
    idx: &SimilarityIndex,
    plan: &[Request],
    tracer: &Tracer,
    out: &mut Outcome,
) -> (Replay, Writes) {
    let log_path = run.work.join(format!("replay-{name}.asul"));
    let quiet = Tracer::new(false);
    let server = dynamic_server(g, idx.clone(), &log_path, Telemetry::enabled(), &quiet, 0);
    let mut mirror = DynamicIndex::from_parts(g, idx.clone(), THREADS).expect("index matches");
    let mut log = UpdateLog::new(g);
    let mirror_log = run.work.join(format!("mirror-{name}.asul"));
    let mut answers: HashMap<(u64, u32), Clustering> = HashMap::new();
    let (mut r, mut w) = (Replay::default(), Writes::default());
    let start = Instant::now();
    for (i, request) in plan.iter().enumerate() {
        let id = i as u64;
        let exchange = r.exchange(&server, request, id, tracer);
        let answer = match exchange.response {
            Ok(answer) => answer,
            Err(e) => {
                out.check(Err(format!("response {i} does not decode: {e:?}")));
                continue;
            }
        };
        match request {
            Request::ApplyUpdates { updates } => {
                let batch = to_batch(updates, mirror.applied_seq());
                let t = Instant::now();
                let stats = tracer
                    .span("dynamic.apply_batch", id, || {
                        mirror.apply_batch(&batch, &Telemetry::disabled())
                    })
                    .expect("mirror accepts the batch");
                w.commit_ms.push(exchange.dispatch_ms - ms(t.elapsed()));
                log.append_batch(&batch)
                    .expect("mirror log accepts the batch");
                tracer
                    .span("log.save", id, || log.save(&mirror_log))
                    .expect("mirror log saves");
                w.log_bytes += std::fs::metadata(&mirror_log).map_or(0, |m| m.len()) as f64;
                w.sigma_reevals += stats.sigma_reevals as f64;
                w.orders_repaired += stats.orders_repaired as f64;
                answers.clear();
                out.check(match answer {
                    Response::ApplyUpdates { seq, .. } if seq == mirror.applied_seq() => Ok(()),
                    other => Err(format!("write {i} answered {other:.80?}")),
                });
            }
            Request::Membership { eps, mu, .. } | Request::Query { eps, mu, .. } => {
                let c = answers.entry((eps.to_bits(), *mu)).or_insert_with(|| {
                    tracer.span("index.query", id, || {
                        mirror.query(ScanParams::new(*eps, *mu as usize))
                    })
                });
                out.check(match (request, answer) {
                    (Request::Membership { vertex, .. }, Response::Membership { label, role })
                        if label == c.labels[*vertex as usize]
                            && role == role_code(c.roles[*vertex as usize]) =>
                    {
                        Ok(())
                    }
                    (Request::Query { .. }, Response::Query { summary, .. })
                        if summary.clusters as usize == c.num_clusters() =>
                    {
                        Ok(())
                    }
                    (_, other) => Err(format!("read {i} differs from the mirror: {other:.80?}")),
                });
            }
            _ => unreachable!("the mix sends reads and writes only"),
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    (r, w)
}

/// The sequenced batch the daemon commits for `updates`.
fn to_batch(updates: &[WireUpdate], applied: u64) -> Vec<EdgeUpdate> {
    updates
        .iter()
        .zip(applied + 1..)
        .map(|(up, seq)| EdgeUpdate {
            seq,
            u: up.u,
            v: up.v,
            op: if up.kind == UPDATE_REMOVE {
                EdgeOp::Remove
            } else {
                EdgeOp::Insert(up.w)
            },
        })
        .collect()
}
