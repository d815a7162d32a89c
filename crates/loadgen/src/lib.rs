//! Load harness for the `anyscan serve` daemon.
//!
//! A run spins up `concurrency` workers, each with its own connection and
//! seeded RNG, drawing requests from a weighted mix (full `(ε, μ)` queries,
//! per-vertex membership lookups, deadline-bounded anytime runs) until a
//! shared [`IterationGate`] closes. Two loop disciplines:
//!
//! - **closed loop** (default): each worker sends as fast as responses come
//!   back — measures capacity;
//! - **open loop** (`rate`): tickets map to absolute send times on a fixed
//!   schedule — measures latency at a target arrival rate, the discipline
//!   that exposes queueing delay instead of hiding it behind backpressure.
//!
//! Results merge into a [`Summary`] (sort-based p50/p95/p99, throughput,
//! outcome buckets) and can be written as the workspace's trace-JSON
//! (`Report::to_json` with the percentiles in `meta`), so the same
//! `anyscan-trace-check` binary that gates clustering traces gates load
//! reports too.

pub mod gate;
pub mod metrics;

use std::sync::Arc;
use std::time::{Duration, Instant};

use anyscan_client::{Client, ClientConfig, RetryPolicy};
use anyscan_serve::protocol::{
    ErrorCode, Request, Response, WireUpdate, UPDATE_INSERT, UPDATE_REMOVE, UPDATE_REWEIGHT,
};
use anyscan_telemetry::{Counter, Recorder, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use anyscan_client::{wait_ready, ClientError, Endpoint};
pub use gate::IterationGate;
pub use metrics::{Outcome, Summary, WorkerMetrics};

/// Relative weights of the request mix (zero disables a shape).
#[derive(Debug, Clone, Copy)]
pub struct MixWeights {
    pub query: u32,
    pub lookup: u32,
    pub run: u32,
    /// `ApplyUpdates` batches — only meaningful against a `--dynamic` daemon
    /// (a static daemon answers them with a typed `BadRequest`).
    pub update: u32,
}

impl Default for MixWeights {
    /// Lookup-heavy, like real traffic: 6 lookups : 3 queries : 1 run.
    fn default() -> Self {
        MixWeights {
            query: 3,
            lookup: 6,
            run: 1,
            update: 0,
        }
    }
}

impl MixWeights {
    fn total(&self) -> u32 {
        self.query + self.lookup + self.run + self.update
    }

    /// Parses `"query:3,lookup:6,run:1,update:2"` (missing shapes default
    /// to 0).
    pub fn parse(raw: &str) -> Result<MixWeights, String> {
        let mut mix = MixWeights {
            query: 0,
            lookup: 0,
            run: 0,
            update: 0,
        };
        for part in raw.split(',') {
            let (name, weight) = part
                .split_once(':')
                .ok_or_else(|| format!("bad mix part {part:?}, want name:weight"))?;
            let weight: u32 = weight
                .trim()
                .parse()
                .map_err(|_| format!("bad mix weight in {part:?}"))?;
            match name.trim() {
                "query" => mix.query = weight,
                "lookup" => mix.lookup = weight,
                "run" => mix.run = weight,
                "update" => mix.update = weight,
                other => return Err(format!("unknown mix shape {other:?}")),
            }
        }
        if mix.total() == 0 {
            return Err("mix has zero total weight".into());
        }
        Ok(mix)
    }
}

/// Everything one load run needs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Every known daemon address. Each worker holds a failover-aware
    /// [`Client`] over the whole list: reads rotate onto the survivors when
    /// an endpoint dies, writes chase the `NotPrimary` leader hint.
    pub endpoints: Vec<Endpoint>,
    /// Per-request socket deadline (None = block forever).
    pub request_timeout: Option<Duration>,
    /// Connect/transport failures retry under this policy *inside* the
    /// client — a refused or reset connect is backoff-and-retried, and only
    /// counts as a request error once the whole budget is spent.
    pub retry: RetryPolicy,
    pub concurrency: usize,
    /// Stop after this many requests (None = unbounded by count).
    pub iterations: Option<u64>,
    /// Stop after this wall-clock duration (None = unbounded by time).
    pub duration: Option<Duration>,
    /// Open-loop arrival rate in requests/second across all workers
    /// (None = closed loop).
    pub rate: Option<f64>,
    pub mix: MixWeights,
    pub eps: f64,
    pub mu: u32,
    /// `Run` requests carry this per-request deadline (0 = none).
    pub run_deadline_ms: u32,
    /// `Run` requests carry this block budget (0 = none).
    pub run_max_blocks: u64,
    /// Vertex-id space for membership lookups and generated updates
    /// (exclusive upper bound).
    pub vertices: u32,
    /// Updates per generated `ApplyUpdates` batch.
    pub update_batch: u32,
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            endpoints: vec![Endpoint::Tcp("127.0.0.1:7411".into())],
            request_timeout: Some(Duration::from_secs(10)),
            retry: RetryPolicy::default(),
            concurrency: 4,
            iterations: None,
            duration: Some(Duration::from_secs(5)),
            rate: None,
            mix: MixWeights::default(),
            eps: 0.5,
            mu: 4,
            run_deadline_ms: 50,
            run_max_blocks: 0,
            vertices: 1,
            update_batch: 8,
            seed: 42,
        }
    }
}

impl RunConfig {
    /// Whether the run can send a request that carries vertex ids — a
    /// `Membership` lookup or an `ApplyUpdates` batch — and so needs the
    /// daemon's vertex-id space. A run bounded to zero requests sends none.
    pub fn sends_vertex_ids(&self) -> bool {
        let sends_any = self.iterations != Some(0) && self.duration != Some(Duration::ZERO);
        sends_any && (self.mix.lookup > 0 || self.mix.update > 0)
    }
}

fn pick_request(config: &RunConfig, rng: &mut StdRng) -> Request {
    let mut roll = rng.gen_range(0..config.mix.total());
    if roll < config.mix.query {
        return Request::Query {
            eps: config.eps,
            mu: config.mu,
            want_labels: false,
        };
    }
    roll -= config.mix.query;
    if roll < config.mix.lookup {
        return Request::Membership {
            vertex: rng.gen_range(0..config.vertices.max(1)),
            eps: config.eps,
            mu: config.mu,
        };
    }
    roll -= config.mix.lookup;
    if roll < config.mix.run {
        return Request::Run {
            eps: config.eps,
            mu: config.mu,
            deadline_ms: config.run_deadline_ms,
            max_blocks: config.run_max_blocks,
        };
    }
    Request::ApplyUpdates {
        updates: random_update_batch(config, rng),
    }
}

/// A random write batch over the daemon's vertex-id space: mostly inserts
/// (so the graph doesn't drain to empty), the rest reweights and removes.
/// The daemon treats removes/reweights of absent edges as relaxed no-ops,
/// so blind generation is safe.
fn random_update_batch(config: &RunConfig, rng: &mut StdRng) -> Vec<WireUpdate> {
    let n = config.vertices.max(2);
    (0..config.update_batch.max(1))
        .map(|_| {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n - 1);
            if v >= u {
                v += 1; // never a self-loop
            }
            let kind = match rng.gen_range(0..10u32) {
                0..=5 => UPDATE_INSERT,
                6..=7 => UPDATE_REWEIGHT,
                _ => UPDATE_REMOVE,
            };
            let w = if kind == UPDATE_REMOVE {
                0.0
            } else {
                rng.gen_range(0.05..1.0)
            };
            WireUpdate { kind, u, v, w }
        })
        .collect()
}

fn classify(response: &Response) -> Outcome {
    match response {
        Response::Error {
            code: ErrorCode::Overloaded,
            ..
        } => Outcome::Overloaded,
        Response::Error { .. } => Outcome::Error,
        _ => Outcome::Ok,
    }
}

/// Drives one load run to completion (see module docs). Counters land on
/// `telemetry` (`load_sent` / `load_ok` / `load_overloaded` / `load_errors`)
/// under a `load_run` span.
pub fn run(config: &RunConfig, telemetry: &Telemetry) -> Summary {
    assert!(
        !config.endpoints.is_empty(),
        "load run needs at least one endpoint"
    );
    let _span = telemetry.span("load_run");
    let gate = Arc::new(IterationGate::new(config.iterations, config.duration));
    let interval = config
        .rate
        .map(|r| Duration::from_secs_f64(1.0 / r.max(1e-9)));
    let start = Instant::now();
    let workers: Vec<_> = (0..config.concurrency.max(1))
        .map(|w| {
            let gate = Arc::clone(&gate);
            let config = config.clone();
            let telemetry = telemetry.clone();
            std::thread::spawn(move || {
                worker_loop(&config, &gate, interval, start, w as u64, &telemetry)
            })
        })
        .collect();
    let metrics = workers
        .into_iter()
        .map(|j| j.join().expect("load worker panicked"))
        .collect();
    Summary::from_workers(metrics, start.elapsed())
}

fn worker_loop(
    config: &RunConfig,
    gate: &IterationGate,
    interval: Option<Duration>,
    start: Instant,
    worker: u64,
    telemetry: &Telemetry,
) -> WorkerMetrics {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(worker));
    let mut metrics = WorkerMetrics::default();
    // One failover-aware client per worker. Refused/reset connects go
    // through its backoff-and-retry (the pre-PR-9 harness counted them as
    // instant request errors without ever retrying); a request only lands
    // in the error bucket once the whole retry budget is spent.
    let mut client = Client::new(ClientConfig {
        endpoints: config.endpoints.clone(),
        request_timeout: config.request_timeout,
        retry: config.retry.clone(),
        seed: config.seed.wrapping_add(worker) ^ 0xb0ff_0ff5,
    })
    .expect("load endpoints validated by run()");
    while let Some(ticket) = gate.next() {
        // Open loop: the ticket index fixes the intended send time; latency
        // is measured from it, so queueing delay is charged to the server
        // (no coordinated omission).
        let intended = match interval {
            Some(iv) => {
                let at = start + iv.mul_f64(ticket as f64);
                if let Some(sleep) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(sleep);
                }
                at
            }
            None => Instant::now(),
        };
        let request = pick_request(config, &mut rng);
        telemetry.add(Counter::LoadSent, 1);
        match client.call(&request) {
            Ok(response) => {
                let outcome = classify(&response);
                metrics.record(outcome, Some(intended.elapsed()));
                telemetry.add(
                    match outcome {
                        Outcome::Ok => Counter::LoadOk,
                        Outcome::Overloaded => Counter::LoadOverloaded,
                        Outcome::Error => Counter::LoadErrors,
                    },
                    1,
                );
            }
            Err(_) => {
                // The retry budget is spent: now it is a request error.
                telemetry.add(Counter::LoadErrors, 1);
                metrics.record(Outcome::Error, None);
            }
        }
    }
    // Reconnects are recovery, not failure — tallied apart from errors.
    let reconnects = client.stats().reconnects;
    metrics.set_reconnects(reconnects);
    telemetry.add(Counter::LoadReconnects, reconnects);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_rejects() {
        let m = MixWeights::parse("query:3,lookup:6,run:1").unwrap();
        assert_eq!((m.query, m.lookup, m.run, m.update), (3, 6, 1, 0));
        let m = MixWeights::parse("lookup:1,update:2").unwrap();
        assert_eq!((m.query, m.lookup, m.run, m.update), (0, 1, 0, 2));
        assert!(MixWeights::parse("query:0").is_err());
        assert!(MixWeights::parse("warp:1").is_err());
        assert!(MixWeights::parse("query").is_err());
    }

    #[test]
    fn only_runs_that_can_send_vertex_ids_need_the_id_space() {
        let mix = |query, lookup, update| MixWeights {
            query,
            lookup,
            run: 0,
            update,
        };
        let config = |mix, iterations, duration| RunConfig {
            mix,
            iterations,
            duration,
            ..RunConfig::default()
        };
        let secs = Some(Duration::from_secs(1));
        // Lookups or updates in the mix, with requests to send: needed.
        assert!(config(MixWeights::default(), None, secs).sends_vertex_ids());
        assert!(config(mix(1, 1, 0), Some(10), None).sends_vertex_ids());
        assert!(config(mix(0, 0, 1), None, None).sends_vertex_ids());
        // A query-only mix never names a vertex.
        assert!(!config(mix(1, 0, 0), Some(10), secs).sends_vertex_ids());
        // A zero-request run (an `--iterations 0 --shutdown` drain) sends
        // nothing, whatever its mix.
        assert!(!config(MixWeights::default(), Some(0), None).sends_vertex_ids());
        assert!(!config(mix(0, 1, 1), Some(0), secs).sends_vertex_ids());
        assert!(!config(mix(0, 1, 1), None, Some(Duration::ZERO)).sends_vertex_ids());
    }

    #[test]
    fn pick_request_honors_zero_weights() {
        let config = RunConfig {
            mix: MixWeights {
                query: 0,
                lookup: 1,
                run: 0,
                update: 0,
            },
            vertices: 10,
            ..RunConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            match pick_request(&config, &mut rng) {
                Request::Membership { vertex, .. } => assert!(vertex < 10),
                other => panic!("mix produced {other:?}"),
            }
        }
    }

    #[test]
    fn update_mix_generates_valid_batches() {
        let config = RunConfig {
            mix: MixWeights {
                query: 0,
                lookup: 0,
                run: 0,
                update: 1,
            },
            vertices: 16,
            update_batch: 5,
            ..RunConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut kinds = [0u32; 3];
        for _ in 0..200 {
            match pick_request(&config, &mut rng) {
                Request::ApplyUpdates { updates } => {
                    assert_eq!(updates.len(), 5);
                    for up in updates {
                        assert!(up.u < 16 && up.v < 16 && up.u != up.v);
                        assert!(up.kind <= UPDATE_REWEIGHT);
                        if up.kind != UPDATE_REMOVE {
                            assert!(up.w.is_finite() && up.w > 0.0);
                        }
                        kinds[up.kind as usize] += 1;
                    }
                }
                other => panic!("mix produced {other:?}"),
            }
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "all three ops should appear: {kinds:?}"
        );
    }

    #[test]
    fn classify_buckets_outcomes() {
        assert_eq!(classify(&Response::Shutdown), Outcome::Ok);
        assert_eq!(
            classify(&Response::Error {
                code: ErrorCode::Overloaded,
                message: String::new()
            }),
            Outcome::Overloaded
        );
        assert_eq!(
            classify(&Response::Error {
                code: ErrorCode::Internal,
                message: String::new()
            }),
            Outcome::Error
        );
    }
}
