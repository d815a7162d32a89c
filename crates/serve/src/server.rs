//! The daemon: accept loop, per-connection dispatch, admission and caching.
//!
//! A [`Server`] owns one graph + similarity index pair, loaded once at
//! startup. Connections each get an OS thread (request parsing is cheap and
//! the expensive work — index sweeps, anytime runs — is bounded by the
//! admission queue, not by connection count). Every admitted request runs
//! under a [`Permit`](crate::admission::Permit); anytime runs are further
//! serialized by the process-wide worker pool, which allows one parallel
//! region at a time.
//!
//! The accept loop is nonblocking and polls a [`RunControl`] stop token —
//! the same cooperative cancellation primitive the anytime driver uses — so
//! SIGINT and `Shutdown` requests both drain the daemon at a safe boundary.
//!
//! Identical-to-serial guarantee: queries are answered exactly like the
//! `index query` CLI path — the index's recorded reorder is applied by the
//! caller before [`Server::new`], and per-vertex output is mapped back to
//! original ids (with the same canonicalization rule: only when the
//! permutation is non-identity). A daemon response and a serial CLI run on
//! the same ASIX file are therefore bit-identical.
//!
//! The query cache holds answers in wire form: the [`LabelBlock`] (labels
//! plus role codes, in original ids) is built once, when a `(ε, μ)` first
//! misses, and its summary once, when a `Query` first asks for it. A
//! labelled `Query` hit copies the summary and clones the block; a
//! `Membership` hit indexes the block directly. Nothing is recounted or
//! re-mapped per hit. A miss runs the index query on
//! [`ServerConfig::threads`] workers.
//!
//! Dynamic daemons ([`Server::new_dynamic`]) additionally accept
//! `ApplyUpdates` batches. Reads and writes coexist through an **epoch
//! swap**: the read path clones an `Arc` snapshot (index + epoch counter)
//! under a briefly-held read lock, the single writer applies the batch
//! through the incremental engine *outside* any lock queries touch, then
//! installs the engine's copy-on-write repaired index — shared, not copied —
//! as the new snapshot (and clears the memoized-query cache) under the write
//! lock. Queries in flight keep their old snapshot — they answer for the
//! epoch they started in — and every query admitted after the swap sees the
//! repaired index. The mutation log, when configured, is saved *before* the
//! swap: an update is never visible to readers unless it is durable.
//!
//! `Query` and `Membership` answer from the index alone
//! ([`SimilarityIndex::query_offline_traced`]), on static and dynamic
//! daemons alike. Only `Run` needs a [`CsrGraph`]: a static daemon and a
//! dynamic daemon's first epoch carry it from construction; a later epoch
//! builds it lazily, at most once, from the engine under the writer mutex
//! — and only while the engine still holds exactly that epoch's index, so a
//! run never sees state that is not durable.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use anyscan::{AnyScan, AnyScanConfig, Completion, RunControl};
use anyscan_dynamic::{DynamicIndex, EdgeOp, EdgeUpdate, UpdateLog};
use anyscan_graph::{CsrGraph, VertexPermutation};
use anyscan_index::SimilarityIndex;
use anyscan_scan_common::{Clustering, Role, ScanParams};
use anyscan_telemetry::{Counter, Recorder, Telemetry};

use crate::admission::AdmissionQueue;
use crate::protocol::{
    read_frame, write_frame, DecodeError, ErrorCode, FrameError, Health, LabelBlock, QuerySummary,
    Request, Response, ServeStats, WireUpdate, REQUEST_FRAME_LIMIT, ROLE_PRIMARY, ROLE_REPLICA,
    UPDATE_INSERT, UPDATE_REMOVE, UPDATE_REWEIGHT,
};

/// Tuning knobs of a [`Server`]; see field docs for defaults.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads for anytime `Run` requests and for the index query
    /// behind a `Query` or `Membership` cache miss (default 1). Answers do
    /// not depend on it.
    pub threads: usize,
    /// Concurrent requests executing (admission slots, default 4).
    pub max_inflight: usize,
    /// Requests allowed to wait for a slot before `Overloaded` (default 16).
    pub queue_depth: usize,
    /// Memoized `(eps, mu)` answers kept for queries/lookups
    /// (default 16, 0 disables the cache).
    pub cache_entries: usize,
    /// Per-connection read/write timeout (`--conn-timeout-ms`); `None`
    /// (the default) keeps connections blocking forever. When set, a
    /// stalled or half-open client is answered with a typed
    /// [`ErrorCode::Timeout`] (best-effort) and its connection closed, so
    /// it can no longer pin daemon resources indefinitely.
    pub conn_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 1,
            max_inflight: 4,
            queue_depth: 16,
            cache_entries: 16,
            conn_timeout: None,
        }
    }
}

/// Always-on request tallies (independent of the telemetry handle) so
/// `Ping` can answer health probes even on an untraced daemon.
#[derive(Debug, Default)]
struct Stats {
    requests: AtomicU64,
    queries: AtomicU64,
    lookups: AtomicU64,
    runs: AtomicU64,
    overloaded: AtomicU64,
    protocol_errors: AtomicU64,
    updates: AtomicU64,
    timeouts: AtomicU64,
}

impl Stats {
    fn snapshot(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// The immutable state one generation of readers shares: the index, the
/// graph it indexes (only `Run` reads it, so later dynamic epochs build it on
/// first use — see [`Server::run_epoch`]), and a monotonically increasing
/// generation counter. Static daemons live in epoch 0 forever; dynamic
/// daemons install a new epoch per applied batch.
struct Epoch {
    index: Arc<SimilarityIndex>,
    graph: OnceLock<CsrGraph>,
    epoch: u64,
}

/// Writer-side state of a dynamic daemon, serialized by its mutex: the
/// incremental engine (graph mirror + repaired index) and the mutation log.
/// The log is always present in dynamic mode — it is the back-fill source
/// for replica subscriptions — but only persisted when a path is
/// configured; without one the "durability point" degrades to the in-memory
/// append.
struct DynamicState {
    engine: DynamicIndex,
    log: UpdateLog,
    log_path: Option<PathBuf>,
}

/// Publication point of the replication stream: the sequence number of the
/// last *durable* update plus the condvar subscription threads park on.
/// Advanced (and notified) after the log save, before the epoch swap — so
/// an entry is shipped to replicas only once the primary's disk has it.
struct Durability {
    seq: Mutex<u64>,
    advanced: Condvar,
}

/// One loaded graph + index pair answering requests (see module docs).
pub struct Server {
    epoch: RwLock<Arc<Epoch>>,
    perm: VertexPermutation,
    config: ServerConfig,
    admission: AdmissionQueue,
    telemetry: Telemetry,
    stats: Stats,
    stopping: AtomicBool,
    active_conns: AtomicUsize,
    /// Writer state; `None` for static daemons (`ApplyUpdates` rejected).
    dynamic: Option<Mutex<DynamicState>>,
    /// [`ROLE_PRIMARY`] (accepts writes) or [`ROLE_REPLICA`] (rejects them
    /// with `NotPrimary`). Static daemons are nominally primary.
    role: AtomicU8,
    /// Monotonic replication term; bumped by promotion, adopted from higher
    /// terms seen on the replication stream, carried in every shipped frame.
    term: AtomicU64,
    /// Where a replica believes its primary lives — the `NotPrimary` hint.
    leader_hint: Mutex<String>,
    /// Durable-watermark publication point for subscription threads.
    durability: Durability,
    /// Tiny LRU of wire-form answers ([`CachedAnswer`]: summary plus label
    /// block, in original vertex ids) keyed `(eps.to_bits(), mu, epoch)`;
    /// hits move to the back, evictions pop the front. Cleared on every
    /// epoch swap, so entries always describe the epoch being served.
    cache: Mutex<Vec<(CacheKey, Arc<CachedAnswer>)>>,
}

/// Query-cache key: `(eps.to_bits(), mu, epoch)`. The epoch component makes
/// a slow reader's late insert (computed against a pre-swap snapshot)
/// unreachable to post-swap readers; the swap's cache clear just frees the
/// memory.
type CacheKey = (u64, u32, u64);

/// One memoized `(eps, mu)` answer, in the form the wire carries it. Built
/// once per miss; the only per-vertex copy the cache keeps.
struct CachedAnswer {
    /// Counted on first use: a `Membership` miss reads one vertex of the
    /// block and never pays for the summary.
    summary: OnceLock<QuerySummary>,
    block: LabelBlock,
}

impl CachedAnswer {
    /// Moves `c`'s arrays into the block. Roles are coded once here rather
    /// than on every hit; `Role` and its wire code are both one byte, so
    /// the standard library's in-place collect reuses the role array's
    /// allocation.
    fn new(c: Clustering) -> CachedAnswer {
        CachedAnswer {
            summary: OnceLock::new(),
            block: LabelBlock {
                labels: c.labels,
                roles: c.roles.into_iter().map(role_code).collect(),
            },
        }
    }

    /// The answer's summary, counted from the block the first time it is
    /// asked for.
    fn summary(&self) -> QuerySummary {
        *self.summary.get_or_init(|| {
            let mut roles = [0u32; 256];
            for &code in &self.block.roles {
                roles[code as usize] += 1;
            }
            QuerySummary {
                clusters: Clustering::count_clusters(&self.block.labels) as u32,
                cores: roles[role_code(Role::Core) as usize],
                borders: roles[role_code(Role::Border) as usize],
                hubs: roles[role_code(Role::Hub) as usize],
                outliers: roles[role_code(Role::Outlier) as usize],
            }
        })
    }
}

impl Server {
    /// Builds a server over a graph already relabeled by the index's
    /// recorded reorder (the caller applies it, exactly as `index query`
    /// does) and the permutation that maps labels back to original ids.
    pub fn new(
        graph: CsrGraph,
        perm: VertexPermutation,
        index: SimilarityIndex,
        config: ServerConfig,
        telemetry: Telemetry,
    ) -> Result<Server, String> {
        Server::with_shared_index(graph, perm, Arc::new(index), config, telemetry)
    }

    /// [`Server::new`] over an index that may be shared (a dynamic engine's
    /// snapshot): epoch 0 carries `graph`, so `Run` never has to build it.
    fn with_shared_index(
        graph: CsrGraph,
        perm: VertexPermutation,
        index: Arc<SimilarityIndex>,
        config: ServerConfig,
        telemetry: Telemetry,
    ) -> Result<Server, String> {
        index.check_graph(&graph)?;
        Ok(Server {
            admission: AdmissionQueue::new(config.max_inflight, config.queue_depth),
            epoch: RwLock::new(Arc::new(Epoch {
                index,
                graph: OnceLock::from(graph),
                epoch: 0,
            })),
            perm,
            config,
            telemetry,
            stats: Stats::default(),
            stopping: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
            dynamic: None,
            role: AtomicU8::new(ROLE_PRIMARY),
            term: AtomicU64::new(0),
            leader_hint: Mutex::new(String::new()),
            durability: Durability {
                seq: Mutex::new(0),
                advanced: Condvar::new(),
            },
            cache: Mutex::new(Vec::new()),
        })
    }

    /// Builds a *dynamic* daemon around an incremental engine (and an
    /// optional durable mutation log saved to `log`'s path after every
    /// accepted batch). The engine may already carry replayed updates — the
    /// first epoch snapshots its current state, sharing the engine's index
    /// and keeping the CSR built here for the shipping log's fingerprint.
    /// Dynamic mode runs in original vertex ids (the engine rejects
    /// reordered indexes), so the permutation is the identity.
    pub fn new_dynamic(
        engine: DynamicIndex,
        log: Option<(UpdateLog, PathBuf)>,
        config: ServerConfig,
        telemetry: Telemetry,
    ) -> Result<Server, String> {
        let graph = engine.to_csr().map_err(|e| e.to_string())?;
        let (log, log_path) = match log {
            Some((l, path)) => {
                if l.applied_seq() != engine.applied_seq() {
                    return Err(format!(
                        "update log watermark {} disagrees with engine watermark {}",
                        l.applied_seq(),
                        engine.applied_seq()
                    ));
                }
                (l, Some(path))
            }
            // No durable log configured: keep an in-memory shipping log
            // anchored at the engine's watermark so replication still works
            // (back-fill reaches only as far back as this process's own
            // commits).
            None => (UpdateLog::new_at(&graph, engine.applied_seq()), None),
        };
        let term = log.term();
        let watermark = engine.applied_seq();
        let index = Arc::clone(engine.shared_index());
        let perm = VertexPermutation::identity(graph.num_vertices());
        let mut server = Server::with_shared_index(graph, perm, index, config, telemetry)?;
        server.term.store(term, Ordering::Relaxed);
        *server.durability.seq.get_mut().unwrap() = watermark;
        server.dynamic = Some(Mutex::new(DynamicState {
            engine,
            log,
            log_path,
        }));
        Ok(server)
    }

    /// Turns this (not-yet-serving) daemon into a replica of `primary`: all
    /// write opcodes answer [`ErrorCode::NotPrimary`] with the given
    /// address as the leader hint, until a `Promote` arrives.
    pub fn become_replica(&self, primary: &str) {
        self.role.store(ROLE_REPLICA, Ordering::Release);
        *self.leader_hint.lock().unwrap() = primary.to_string();
    }

    /// The daemon's current replication role ([`ROLE_PRIMARY`] /
    /// [`ROLE_REPLICA`]).
    pub fn role(&self) -> u8 {
        self.role.load(Ordering::Acquire)
    }

    /// The replication term the daemon currently serves under.
    pub fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// Sequence number of the last durable update (0 on a static daemon).
    pub fn durable_watermark(&self) -> u64 {
        *self.durability.seq.lock().unwrap()
    }

    /// Whether this daemon accepts `ApplyUpdates`.
    pub fn is_dynamic(&self) -> bool {
        self.dynamic.is_some()
    }

    /// The generation counter of the snapshot currently serving queries.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.read().unwrap().epoch
    }

    /// The admission queue (exposed so tests can saturate it directly).
    pub fn admission(&self) -> &AdmissionQueue {
        &self.admission
    }

    /// The telemetry handle requests record into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Current request tallies (what `Ping` answers with).
    pub fn stats(&self) -> ServeStats {
        self.stats.snapshot()
    }

    /// Number of vertices served (original = reordered count).
    pub fn num_vertices(&self) -> usize {
        self.epoch.read().unwrap().index.num_vertices()
    }

    /// Number of undirected edges served (of the current epoch).
    pub fn num_edges(&self) -> u64 {
        self.epoch.read().unwrap().index.num_edges()
    }

    /// The snapshot the read path uses: cloned out of the lock so queries
    /// never hold it while working.
    fn snapshot(&self) -> Arc<Epoch> {
        Arc::clone(&self.epoch.read().unwrap())
    }

    /// The snapshot a `Run` executes on, with its graph built. Epochs that
    /// carry no graph yet (every dynamic epoch after the first) get it from
    /// the engine's mirror, at most once per epoch: the build holds the
    /// writer mutex, so no commit moves the engine meanwhile, and it only
    /// proceeds while the engine's index *is* the served one. An engine
    /// ahead of the served epoch holds a batch whose log save failed; that
    /// state is not durable, so the run is refused rather than served from
    /// it.
    fn run_epoch(&self) -> Result<Arc<Epoch>, String> {
        let ep = self.snapshot();
        if ep.graph.get().is_some() {
            return Ok(ep);
        }
        let dynamic = self
            .dynamic
            .as_ref()
            .expect("static epochs carry their graph");
        let state = dynamic.lock().unwrap();
        // Re-read under the writer mutex: a commit may have swapped epochs
        // (or another run built this one's graph) while we waited.
        let ep = self.snapshot();
        if ep.graph.get().is_some() {
            return Ok(ep);
        }
        if !Arc::ptr_eq(state.engine.shared_index(), &ep.index) {
            return Err(format!(
                "engine state is ahead of the durable epoch {} (a log save failed); \
                 runs resume after the next committed batch",
                ep.epoch
            ));
        }
        let graph = state
            .engine
            .to_csr()
            .map_err(|e| format!("epoch snapshot failed: {e}"))?;
        let _ = ep.graph.set(graph);
        Ok(ep)
    }

    /// True once a `Shutdown` request (or the stop token) began draining.
    pub fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Accepts and serves connections until `ctl` cancels or a `Shutdown`
    /// request arrives, then drains active connections (bounded wait).
    pub fn serve(self: &Arc<Self>, listener: Listener, ctl: &RunControl) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            if ctl.is_canceled() || self.is_stopping() {
                self.stopping.store(true, Ordering::Release);
                break;
            }
            match listener.accept() {
                Ok(conn) => {
                    let server = Arc::clone(self);
                    server.active_conns.fetch_add(1, Ordering::AcqRel);
                    std::thread::spawn(move || {
                        server.handle_conn(conn);
                        server.active_conns.fetch_sub(1, Ordering::AcqRel);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        // Drain: in-flight requests finish (bounded by the run deadline cap
        // a client can request); hung clients are abandoned after 5s.
        let drain_deadline = Instant::now() + Duration::from_secs(5);
        while self.active_conns.load(Ordering::Acquire) > 0 && Instant::now() < drain_deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }

    fn handle_conn(self: &Arc<Self>, mut conn: Conn) {
        if let Err(e) = conn.set_timeouts(self.config.conn_timeout) {
            eprintln!("serve: setting connection timeouts failed: {e}");
            return;
        }
        loop {
            let payload = match read_frame(&mut conn, REQUEST_FRAME_LIMIT) {
                Ok(Some(payload)) => payload,
                Ok(None) => return,
                Err(FrameError::Io(e)) if is_timeout(&e) => {
                    // The peer stalled past --conn-timeout-ms: typed close
                    // (best-effort — a half-open peer won't read it) so it
                    // can no longer pin daemon resources.
                    self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                    self.telemetry.add(Counter::ServeTimeouts, 1);
                    let resp = Response::Error {
                        code: ErrorCode::Timeout,
                        message: "connection timed out".into(),
                    };
                    let _ = write_frame(&mut conn, &resp.encode());
                    return;
                }
                Err(e) => {
                    self.note_protocol_error(&e.to_string());
                    // Oversized leaves the stream positioned before the
                    // payload; the connection cannot be resynchronized, so
                    // answer (best-effort) and close either way.
                    if matches!(e, FrameError::Oversized { .. }) {
                        let resp = Response::Error {
                            code: ErrorCode::BadRequest,
                            message: e.to_string(),
                        };
                        let _ = write_frame(&mut conn, &resp.encode());
                    }
                    return;
                }
            };
            let request = match Request::decode(&payload) {
                Ok(request) => request,
                Err(e) => {
                    // The frame layer stayed in sync; reject just this
                    // request and keep the connection.
                    self.note_protocol_error(&e.to_string());
                    let resp = Response::Error {
                        code: ErrorCode::BadRequest,
                        message: decode_error_message(&e),
                    };
                    if write_frame(&mut conn, &resp.encode()).is_err() {
                        return;
                    }
                    continue;
                }
            };
            if let Request::Subscribe { watermark } = request {
                // The connection becomes a one-way replication stream and
                // never returns to request/response framing.
                self.stats.requests.fetch_add(1, Ordering::Relaxed);
                self.telemetry.add(Counter::ServeRequests, 1);
                self.serve_subscription(&mut conn, watermark);
                return;
            }
            let close = matches!(request, Request::Shutdown);
            let response = self.dispatch(request);
            if write_frame(&mut conn, &response.encode()).is_err() || close {
                return;
            }
        }
    }

    /// Streams committed log entries to one subscribed replica until the
    /// daemon drains, the peer drops, or this daemon stops being primary.
    fn serve_subscription(&self, conn: &mut Conn, watermark: u64) {
        let refuse = |conn: &mut Conn, resp: Response| {
            let _ = write_frame(conn, &resp.encode());
        };
        if self.dynamic.is_none() {
            return refuse(
                conn,
                bad_request("daemon is not in dynamic mode (start with --dynamic)".into()),
            );
        }
        if self.role() != ROLE_PRIMARY {
            return refuse(
                conn,
                Response::Error {
                    code: ErrorCode::NotPrimary,
                    message: self.leader_hint.lock().unwrap().clone(),
                },
            );
        }
        let durable = self.durable_watermark();
        if watermark > durable {
            // ASUL-tail edge case: a subscriber from the future gets a
            // typed rejection, never a hang waiting for entries that can't
            // exist.
            return refuse(
                conn,
                bad_request(format!(
                    "subscribe watermark {watermark} is ahead of the primary's durable \
                     watermark {durable}"
                )),
            );
        }
        let ack = anyscan_faults::inject_io("repl::ack").and_then(|()| {
            write_frame(
                conn,
                &Response::Subscribed {
                    term: self.term(),
                    watermark: durable,
                }
                .encode(),
            )
        });
        if let Err(e) = ack {
            eprintln!("serve: replication ack failed: {e}");
            return;
        }
        self.telemetry.add(Counter::ReplSubscribes, 1);

        // Back-fill from the log, then push each batch as its durability
        // point passes. `sent` tracks the last shipped sequence number.
        let mut sent = watermark;
        loop {
            if self.is_stopping() || self.role() != ROLE_PRIMARY {
                return;
            }
            let batch: Vec<EdgeUpdate> = {
                let durable = self.durable_watermark();
                let state = self.dynamic.as_ref().unwrap().lock().unwrap();
                state
                    .log
                    .entries_after(sent)
                    .iter()
                    .take_while(|e| e.seq <= durable)
                    .copied()
                    .collect()
            };
            if !batch.is_empty() {
                let last = batch.last().unwrap().seq;
                let count = batch.len() as u64;
                let frame = Response::LogEntries {
                    term: self.term(),
                    entries: batch,
                };
                let sent_ok = anyscan_faults::inject_io("repl::send_entry")
                    .and_then(|()| write_frame(conn, &frame.encode()));
                if let Err(e) = sent_ok {
                    eprintln!("serve: replication stream write failed: {e}");
                    return;
                }
                self.telemetry.add(Counter::ReplEntriesShipped, count);
                sent = last;
                continue;
            }
            // Nothing to ship: park until the durable watermark advances
            // (bounded, so stop/demotion is noticed promptly).
            let guard = self.durability.seq.lock().unwrap();
            if *guard <= sent {
                let _ = self
                    .durability
                    .advanced
                    .wait_timeout(guard, Duration::from_millis(100))
                    .unwrap();
            }
        }
    }

    fn note_protocol_error(&self, detail: &str) {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        self.telemetry.add(Counter::ServeProtocolErrors, 1);
        eprintln!("serve: protocol error: {detail}");
    }

    /// The health/readiness probe `Ping` answers with.
    pub fn health(&self) -> Health {
        Health {
            role: self.role(),
            term: self.term(),
            epoch: self.current_epoch(),
            watermark: self.durable_watermark(),
            inflight: self.admission.inflight() as u32,
            queued: self.admission.queued() as u32,
            stats: self.stats.snapshot(),
        }
    }

    /// Executes one decoded request. `Ping`/`Shutdown`/`Promote` bypass
    /// admission (health checks and failover must answer *especially* under
    /// overload); everything else holds an admission permit for the
    /// duration.
    pub fn dispatch(&self, request: Request) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.telemetry.add(Counter::ServeRequests, 1);
        match request {
            Request::Ping => Response::Ping(self.health()),
            Request::Shutdown => {
                self.stopping.store(true, Ordering::Release);
                Response::Shutdown
            }
            Request::Promote => self.promote(),
            Request::Subscribe { .. } => {
                bad_request("subscribe must be the only request on its connection".into())
            }
            _ if self.is_stopping() => Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "daemon is draining".into(),
            },
            work => {
                let permit = match self.admission.acquire() {
                    Ok(permit) => permit,
                    Err(overloaded) => {
                        self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
                        self.telemetry.add(Counter::ServeOverloaded, 1);
                        return Response::Error {
                            code: ErrorCode::Overloaded,
                            message: overloaded.to_string(),
                        };
                    }
                };
                let response = self.execute(work);
                drop(permit);
                response
            }
        }
    }

    fn execute(&self, request: Request) -> Response {
        match request {
            Request::Query {
                eps,
                mu,
                want_labels,
            } => {
                let params = match self.check_params(eps, mu) {
                    Ok(params) => params,
                    Err(resp) => return resp,
                };
                let _span = self.telemetry.span("serve_query");
                self.stats.queries.fetch_add(1, Ordering::Relaxed);
                self.telemetry.add(Counter::ServeQueries, 1);
                let answer = self.cached_query(&self.snapshot(), params);
                Response::Query {
                    summary: answer.summary(),
                    labels: want_labels.then(|| answer.block.clone()),
                }
            }
            Request::Membership { vertex, eps, mu } => {
                let params = match self.check_params(eps, mu) {
                    Ok(params) => params,
                    Err(resp) => return resp,
                };
                let ep = self.snapshot();
                if vertex as usize >= ep.index.num_vertices() {
                    return bad_request(format!(
                        "vertex {vertex} out of range (|V| = {})",
                        ep.index.num_vertices()
                    ));
                }
                let _span = self.telemetry.span("serve_lookup");
                self.stats.lookups.fetch_add(1, Ordering::Relaxed);
                self.telemetry.add(Counter::ServeLookups, 1);
                let block = &self.cached_query(&ep, params).block;
                Response::Membership {
                    label: block.labels[vertex as usize],
                    role: block.roles[vertex as usize],
                }
            }
            Request::ApplyUpdates { updates } => self.apply_updates(&updates),
            Request::Run {
                eps,
                mu,
                deadline_ms,
                max_blocks,
            } => {
                let params = match self.check_params(eps, mu) {
                    Ok(params) => params,
                    Err(resp) => return resp,
                };
                let _span = self.telemetry.span("serve_run");
                self.stats.runs.fetch_add(1, Ordering::Relaxed);
                self.telemetry.add(Counter::ServeRuns, 1);
                let ep = match self.run_epoch() {
                    Ok(ep) => ep,
                    Err(message) => {
                        return Response::Error {
                            code: ErrorCode::Internal,
                            message,
                        }
                    }
                };
                let graph = ep.graph.get().expect("run_epoch returns a built graph");
                let config = AnyScanConfig::new(params)
                    .with_auto_block_size(graph.num_vertices())
                    .with_threads(self.config.threads);
                let mut ctl = RunControl::new();
                if deadline_ms > 0 {
                    ctl = ctl.with_deadline(Duration::from_millis(u64::from(deadline_ms)));
                }
                if max_blocks > 0 {
                    ctl = ctl.with_max_blocks(max_blocks);
                }
                // Per-block snapshot indices restart at 0 every run, so each
                // run records into its own child handle: counters fold back
                // into the daemon trace below, snapshots stay per-run (the
                // daemon trace keeps a schema-valid snapshot sequence).
                let run_telemetry = if self.telemetry.is_enabled() {
                    Telemetry::enabled()
                } else {
                    Telemetry::disabled()
                };
                let mut algo = AnyScan::new(graph, config).with_telemetry(run_telemetry.clone());
                let outcome = algo.run_controlled(&ctl);
                if let Some(report) = run_telemetry.report() {
                    for &c in Counter::ALL.iter() {
                        let total = report.counters[c as usize];
                        if total > 0 {
                            self.telemetry.add(c, total);
                        }
                    }
                }
                match outcome {
                    Ok(partial) => {
                        let c = self.to_original(partial.clustering);
                        Response::Run {
                            summary: summarize(&c),
                            completion: completion_code(partial.completion),
                            blocks: partial.blocks,
                        }
                    }
                    Err(e) => Response::Error {
                        code: ErrorCode::Internal,
                        message: e.to_string(),
                    },
                }
            }
            // Ping/Shutdown/Promote/Subscribe are handled before admission
            // in `dispatch` (Subscribe in the connection loop itself).
            Request::Ping => Response::Ping(self.health()),
            Request::Shutdown => Response::Shutdown,
            Request::Promote => self.promote(),
            Request::Subscribe { .. } => {
                bad_request("subscribe must be the only request on its connection".into())
            }
        }
    }

    /// `Promote`: make this daemon a writable primary. Idempotent on a
    /// primary (answers its current coordinates without bumping the term);
    /// on a replica, bumps the term past everything it has seen — fencing
    /// the old primary, whose frames now carry a stale term — persists it,
    /// and flips the role (the replica feed notices and exits).
    pub fn promote(&self) -> Response {
        let Some(dynamic) = &self.dynamic else {
            return bad_request("daemon is not in dynamic mode (start with --dynamic)".into());
        };
        let mut state = dynamic.lock().unwrap();
        if self.role() == ROLE_PRIMARY {
            return Response::Promoted {
                term: self.term(),
                epoch: self.current_epoch(),
                watermark: self.durable_watermark(),
            };
        }
        let new_term = self.term() + 1;
        state.log.set_term(new_term);
        if let Some(path) = &state.log_path {
            // Fence durably: a restart after promotion must come back with
            // the bumped term, not the old primary's.
            if let Err(e) = state.log.save(path) {
                return Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("persisting promoted term failed: {e}"),
                };
            }
        }
        self.term.store(new_term, Ordering::Release);
        self.leader_hint.lock().unwrap().clear();
        self.role.store(ROLE_PRIMARY, Ordering::Release);
        Response::Promoted {
            term: new_term,
            epoch: self.current_epoch(),
            watermark: self.durable_watermark(),
        }
    }

    fn check_params(&self, eps: f64, mu: u32) -> Result<ScanParams, Response> {
        if !(eps.is_finite() && eps > 0.0 && eps <= 1.0) {
            return Err(bad_request(format!("eps must be in (0,1], got {eps}")));
        }
        if mu == 0 {
            return Err(bad_request("mu must be >= 1".into()));
        }
        Ok(ScanParams::new(eps, mu as usize))
    }

    /// Applies one `ApplyUpdates` batch through the incremental engine and
    /// epoch-swaps the repaired snapshot in. Single-writer: the dynamic
    /// mutex serializes batches; queries keep reading the previous epoch
    /// until the swap (see module docs).
    fn apply_updates(&self, updates: &[WireUpdate]) -> Response {
        let Some(dynamic) = &self.dynamic else {
            return bad_request("daemon is not in dynamic mode (start with --dynamic)".into());
        };
        if self.role() != ROLE_PRIMARY {
            // Writes belong to the primary: the typed rejection carries the
            // leader hint so a failover-aware client can follow it.
            return Response::Error {
                code: ErrorCode::NotPrimary,
                message: self.leader_hint.lock().unwrap().clone(),
            };
        }
        let _span = self.telemetry.span("serve_apply_updates");
        let mut state = dynamic.lock().unwrap();
        if updates.is_empty() {
            return Response::ApplyUpdates {
                applied: 0,
                skipped: 0,
                seq: state.engine.applied_seq(),
                epoch: self.current_epoch(),
            };
        }

        // The primary owns the global mutation order: sequence numbers are
        // assigned here, contiguously after the engine's watermark.
        let mut seq = state.engine.applied_seq();
        let batch: Vec<EdgeUpdate> = updates
            .iter()
            .map(|up| {
                seq += 1;
                let op = match up.kind {
                    UPDATE_INSERT => EdgeOp::Insert(up.w),
                    UPDATE_REMOVE => EdgeOp::Remove,
                    UPDATE_REWEIGHT => EdgeOp::Reweight(up.w),
                    // Unreachable: the decoder rejects unknown kinds.
                    other => unreachable!("wire kind {other} survived decoding"),
                };
                EdgeUpdate {
                    seq,
                    u: up.u,
                    v: up.v,
                    op,
                }
            })
            .collect();

        match self.commit_batch(&mut state, &batch) {
            Ok((stats, epoch)) => {
                self.stats.updates.fetch_add(1, Ordering::Relaxed);
                Response::ApplyUpdates {
                    applied: stats.applied,
                    skipped: stats.skipped,
                    seq: stats.last_seq,
                    epoch,
                }
            }
            Err(CommitError::Rejected(msg)) => bad_request(msg),
            Err(CommitError::Internal(msg)) => Response::Error {
                code: ErrorCode::Internal,
                message: msg,
            },
        }
    }

    /// Applies one replicated batch on a replica, exactly as the primary
    /// committed it (primary-assigned sequence numbers, primary's term).
    /// Entries at or below the replica's watermark — back-fill overlap
    /// after a reconnect — are skipped. Term fencing: a frame from a lower
    /// term is refused (the sender was deposed); a higher term is adopted.
    pub fn apply_replicated(&self, term: u64, entries: &[EdgeUpdate]) -> Result<(), ReplError> {
        let Some(dynamic) = &self.dynamic else {
            return Err(ReplError::Apply("daemon is not in dynamic mode".into()));
        };
        let current = self.term();
        if term < current {
            return Err(ReplError::Fenced {
                seen: term,
                ours: current,
            });
        }
        let mut state = dynamic.lock().unwrap();
        if term > current {
            state.log.set_term(term);
            self.term.store(term, Ordering::Release);
        }
        let floor = state.engine.applied_seq();
        let fresh: Vec<EdgeUpdate> = entries.iter().filter(|e| e.seq > floor).copied().collect();
        if fresh.is_empty() {
            return Ok(());
        }
        let count = fresh.len() as u64;
        match self.commit_batch(&mut state, &fresh) {
            Ok(_) => {
                self.telemetry.add(Counter::ReplEntriesApplied, count);
                Ok(())
            }
            Err(CommitError::Rejected(msg)) | Err(CommitError::Internal(msg)) => {
                Err(ReplError::Apply(msg))
            }
        }
    }

    /// The shared commit tail of both write paths: engine apply, log
    /// append + save (durability), durable-watermark publication (wakes
    /// subscription streams), then the epoch swap (visibility). Returns the
    /// batch stats and the new epoch.
    fn commit_batch(
        &self,
        state: &mut DynamicState,
        batch: &[EdgeUpdate],
    ) -> Result<(anyscan_dynamic::BatchStats, u64), CommitError> {
        let stats = state
            .engine
            .apply_batch(batch, &self.telemetry)
            // apply_batch only fails validation here, and rejection is
            // atomic — engine state (and therefore the served epoch) is
            // untouched.
            .map_err(|e| CommitError::Rejected(e.to_string()))?;

        // Durability before shipping and before visibility: the log is
        // saved before replicas can be sent the entries and before readers
        // can observe the new epoch. A failed save is an internal error;
        // the engine has advanced but neither the watermark nor the epoch
        // has — the daemon keeps serving (and shipping) the last durable
        // state and the batch reports failure.
        state
            .log
            .append_batch(batch)
            .map_err(|e| CommitError::Internal(format!("update log write failed: {e}")))?;
        if let Some(path) = &state.log_path {
            state
                .log
                .save(path)
                .map_err(|e| CommitError::Internal(format!("update log write failed: {e}")))?;
        }

        let index = Arc::clone(state.engine.shared_index());

        // Publish durability: subscription threads may ship the batch from
        // this point on.
        {
            let mut durable = self.durability.seq.lock().unwrap();
            *durable = stats.last_seq;
            self.durability.advanced.notify_all();
        }

        // The swap: writer excludes readers only for the Arc replacement
        // and cache clear, never for the repair work above.
        let (new_epoch, retired, evicted) = {
            let mut ep = self.epoch.write().unwrap();
            let new_epoch = ep.epoch + 1;
            let next = Arc::new(Epoch {
                index,
                graph: OnceLock::new(),
                epoch: new_epoch,
            });
            let retired = std::mem::replace(&mut *ep, next);
            let evicted = std::mem::take(&mut *self.cache.lock().unwrap());
            (new_epoch, retired, evicted)
        };
        // The retired epoch is usually the last holder of the previous
        // index: free it (and the evicted answers) outside the lock.
        drop((retired, evicted));
        Ok((stats, new_epoch))
    }

    /// An index query in original vertex ids, memoized in wire form.
    /// Concurrent misses on the same key may compute twice; the results are
    /// identical (the sweep is deterministic), so last-insert-wins is
    /// harmless. Keys carry the snapshot's epoch, so a slow pre-swap reader
    /// can never poison post-swap answers.
    fn cached_query(&self, ep: &Epoch, params: ScanParams) -> Arc<CachedAnswer> {
        let key = (params.epsilon.to_bits(), params.mu as u32, ep.epoch);
        if self.config.cache_entries > 0 {
            let mut cache = self.cache.lock().unwrap();
            if let Some(pos) = cache.iter().position(|(k, _)| *k == key) {
                let hit = cache.remove(pos);
                let c = Arc::clone(&hit.1);
                cache.push(hit);
                return c;
            }
        }
        let c = Arc::new(CachedAnswer::new(
            self.to_original(ep.index.query_offline_traced(
                params,
                self.config.threads,
                &self.telemetry,
            )),
        ));
        if self.config.cache_entries > 0 {
            let mut cache = self.cache.lock().unwrap();
            if !cache.iter().any(|(k, _)| *k == key) {
                cache.push((key, Arc::clone(&c)));
                if cache.len() > self.config.cache_entries {
                    cache.remove(0);
                }
            }
        }
        c
    }

    /// Same mapping as the CLI's `to_original_ids`: only a non-identity
    /// permutation relabels (and canonicalizes), keeping daemon output
    /// bit-identical to serial `index query --labels-out`.
    fn to_original(&self, mut c: Clustering) -> Clustering {
        if !self.perm.is_identity() {
            c.labels = self.perm.to_original(&c.labels);
            c.roles = self.perm.to_original(&c.roles);
            c.canonicalize();
        }
        c
    }
}

/// Why a commit failed, split by whose fault it is: `Rejected` is the
/// client's batch (validation; engine untouched), `Internal` is the
/// daemon's own persistence/snapshot machinery.
enum CommitError {
    Rejected(String),
    Internal(String),
}

/// Replica-side failure applying a replicated frame.
#[derive(Debug)]
pub enum ReplError {
    /// The frame carried a term below ours: its sender was deposed. The
    /// feed must drop the connection rather than apply fenced writes.
    Fenced { seen: u64, ours: u64 },
    /// The batch failed to apply or persist locally.
    Apply(String),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Fenced { seen, ours } => {
                write!(f, "fenced: frame term {seen} below local term {ours}")
            }
            ReplError::Apply(msg) => write!(f, "replicated apply failed: {msg}"),
        }
    }
}

impl std::error::Error for ReplError {}

/// Whether an I/O error is a read/write timeout (both kinds occur in the
/// wild: unix sockets report `WouldBlock`, TCP reports `TimedOut`).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn bad_request(message: String) -> Response {
    Response::Error {
        code: ErrorCode::BadRequest,
        message,
    }
}

fn decode_error_message(e: &DecodeError) -> String {
    format!("undecodable request: {e}")
}

fn summarize(c: &Clustering) -> QuerySummary {
    let rc = c.role_counts();
    QuerySummary {
        clusters: c.num_clusters() as u32,
        cores: rc.cores as u32,
        borders: rc.borders as u32,
        hubs: rc.hubs as u32,
        outliers: rc.outliers as u32,
    }
}

/// [`Role`] → wire code (see `protocol::role_name`).
pub fn role_code(role: Role) -> u8 {
    match role {
        Role::Core => 0,
        Role::Border => 1,
        Role::Hub => 2,
        Role::Outlier => 3,
        Role::Unclassified => 4,
    }
}

/// [`Completion`] → wire code (see `protocol::completion_name`).
pub fn completion_code(completion: Completion) -> u8 {
    match completion {
        Completion::Complete => 0,
        Completion::Canceled => 1,
        Completion::DeadlineExpired => 2,
        Completion::BudgetExhausted => 3,
        Completion::Suspended => 4,
    }
}

/// A bound listening socket: TCP everywhere, unix-domain where available.
pub enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds a TCP listener; `addr` may use port 0 for an OS-chosen port
    /// (read it back from the returned address).
    pub fn bind_tcp(addr: &str) -> std::io::Result<(Listener, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok((Listener::Tcp(listener), local))
    }

    /// Binds a unix-domain socket, replacing a stale socket file.
    #[cfg(unix)]
    pub fn bind_unix(path: &str) -> std::io::Result<Listener> {
        if std::fs::metadata(path).is_ok() {
            std::fs::remove_file(path)?;
        }
        Ok(Listener::Unix(UnixListener::bind(path)?))
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nonblocking(false)?;
                Ok(Conn::Unix(stream))
            }
        }
    }
}

/// One accepted connection (blocking mode).
pub enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Applies the per-connection read/write timeout (`None` = blocking
    /// forever, the pre-hardening behavior).
    pub fn set_timeouts(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}
