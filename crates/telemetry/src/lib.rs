//! Structured telemetry for the anytime pipeline.
//!
//! anySCAN's value proposition is *anytime* progress: the interesting
//! behavior of a run is not its end-to-end wall time but how cluster quality
//! and state-machine composition evolve per block (the paper's Figs. 8–12).
//! This crate records that evolution as structured data:
//!
//! * **counters** ([`Counter`]) — kernel work (σ evaluations, filter hits,
//!   edge-cache hits/misses, early exits), driver events (super-nodes
//!   created, pruned candidates, border adoptions) and per-step unions,
//!   accumulated in lock-free cache-padded shards so parallel workers never
//!   contend on a line;
//! * **spans** ([`Telemetry::span`]) — named wall-time intervals (per-step
//!   timers, index builds and queries), aggregated by name;
//! * **anytime snapshots** ([`BlockSnapshot`]) — one record per block
//!   iteration: the 7-state vertex histogram, super-node count and DSU
//!   component count at that block boundary;
//! * **pool utilization** ([`PoolUtilization`]) — per-slot busy time and
//!   chunk claims plus per-worker parked time from the persistent worker
//!   pool.
//!
//! Everything sits behind the [`Recorder`] trait. The [`Telemetry`] handle
//! is the cheap-to-clone front door: a disabled handle (the default) holds
//! no recorder and every call degrades to **one branch on an `Option`** —
//! no allocation, no atomics, no time reads — so production hot paths pay
//! nothing measurable when tracing is off.
//!
//! A finished run is exported as a [`Report`] and serialized to JSON with
//! [`Report::to_json`]; [`validate::validate_trace`] (and the
//! `anyscan-trace-check` binary) check that schema, which CI gates on.

pub mod json;
pub mod validate;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of vertex states in the anytime state machine (Fig. 3 of the
/// paper). [`BlockSnapshot::states`] is indexed by state discriminant.
pub const NUM_VERTEX_STATES: usize = 7;

/// Display names of the vertex states, in discriminant order.
pub const VERTEX_STATE_NAMES: [&str; NUM_VERTEX_STATES] = [
    "untouched",
    "unprocessed_noise",
    "processed_noise",
    "unprocessed_border",
    "processed_border",
    "unprocessed_core",
    "processed_core",
];

/// Every counter the pipeline records. The set is closed so counter storage
/// is a fixed array per shard and aggregation is a loop, not a hash map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Merge-join σ evaluations entered (full or early-stopped).
    SigmaEvals,
    /// Pairs dismissed by the O(1) Lemma-5 filter.
    Lemma5Filtered,
    /// SCAN++-style similarity-sharing evaluations.
    SharedEvals,
    /// ε-decisions answered by the symmetric edge-decision cache.
    EdgeCacheHits,
    /// Adjacent-pair decisions that had to be computed and stored.
    EdgeCacheMisses,
    /// Merge-joins accepted before exhausting either neighbor list.
    EarlyAccepts,
    /// Merge-joins rejected by the remaining-suffix bound.
    EarlyRejects,
    /// Super-nodes created in Step 1.
    SupernodesCreated,
    /// Vertices marked noise by the `|Γ(p)| < μ` shortcut (no range query).
    DegreeShortcutNoise,
    /// Step-2 candidates skipped because their super-nodes already share a
    /// cluster.
    Step2Pruned,
    /// Step-3 candidates skipped because no neighbor straddles clusters.
    Step3Pruned,
    /// Noise vertices adopted as borders in Step 4.
    BorderAdoptions,
    /// `decide_core` calls that had to do real work (state not yet decided).
    CoreChecks,
    /// Successful `Union` operations during Step 1 (sequential tail).
    UnionsStep1,
    /// Successful `Union` operations during Step 2.
    UnionsStep2,
    /// Successful `Union` operations during Step 3.
    UnionsStep3,
    /// σ evaluations performed while building the similarity index (one per
    /// undirected edge; mirror arcs are copied, not recomputed).
    IndexSigmaEvals,
    /// (ε, μ) queries answered from the similarity index.
    IndexQueries,
    /// Core vertices found across all index queries.
    IndexCoresFound,
    /// Border vertices attached across all index queries.
    IndexBordersAttached,
    /// Times a `RunControl` trip (cancel / deadline / budget) stopped a run.
    CancelTrips,
    /// Checkpoints successfully written (atomic temp+fsync+rename cycles).
    CheckpointsWritten,
    /// Runs restored from an `ASCK` checkpoint.
    ResumeLoads,
    /// Faults fired by the `anyscan-faults` failpoint facility.
    FaultsInjected,
    /// σ evaluations that took the classic (or branchless) merge-join path.
    SigmaPathMerge,
    /// σ evaluations diverted to the hash probe (size-mismatched pairs).
    SigmaPathProbe,
    /// σ evaluations decided through a hub bitmap (word-wise AND or
    /// bit-test + weight gather).
    SigmaPathBitmap,
    /// σ evaluations through a batched dense-row gather (range queries and
    /// the index build's row pass).
    SigmaPathBatched,
    /// σ decisions emitted directly from a MinHash sketch estimate (approx
    /// mode only; stays zero in assist mode, keeping the `sigma_path_*`
    /// partition of `sigma_evals` exact).
    SigmaPathSketch,
    /// Assist-mode confirmations: exact decisions routed by a confident
    /// sketch estimate whose exact verdict agreed with the sketch's side.
    SketchConfirms,
    /// Requests admitted and answered by the serving daemon (all opcodes).
    ServeRequests,
    /// Index re-cluster requests answered by the daemon.
    ServeQueries,
    /// Per-vertex membership/role lookups answered by the daemon.
    ServeLookups,
    /// Anytime full runs executed by the daemon.
    ServeRuns,
    /// Requests rejected with a typed `Overloaded` response (admission
    /// queue full).
    ServeOverloaded,
    /// Malformed frames / undecodable requests the daemon rejected.
    ServeProtocolErrors,
    /// Requests the load generator sent.
    LoadSent,
    /// Ok responses the load generator received.
    LoadOk,
    /// Typed `Overloaded` rejections the load generator received.
    LoadOverloaded,
    /// Transport or protocol errors the load generator observed.
    LoadErrors,
    /// Edge mutations (insert / remove / reweight) the dynamic update
    /// subsystem applied to its resident graph.
    DynUpdatesApplied,
    /// σ re-evaluations triggered by update batches (edges incident to a
    /// touched neighborhood). Each is also counted in `sigma_evals` and
    /// `sigma_path_merge`, so the `sigma_path_*` partition stays exact.
    DynSigmaReevals,
    /// Neighbor-order (and matching core-order) repairs applied in place to
    /// the similarity index — one per vertex whose order changed.
    DynIndexRepairs,
    /// Replica subscriptions a primary accepted (back-fill + live stream).
    ReplSubscribes,
    /// ASUL entries a primary shipped to replicas (per entry, per replica).
    ReplEntriesShipped,
    /// Replicated ASUL entries a replica applied to its resident engine.
    ReplEntriesApplied,
    /// Connections the daemon closed for exceeding the per-connection
    /// read/write timeout (`--conn-timeout-ms`).
    ServeTimeouts,
    /// Reconnects the load generator's client performed after a refused,
    /// reset, or timed-out connection (counted separately from request
    /// errors).
    LoadReconnects,
}

impl Counter {
    /// All counters, in storage order.
    pub const ALL: [Counter; 48] = [
        Counter::SigmaEvals,
        Counter::Lemma5Filtered,
        Counter::SharedEvals,
        Counter::EdgeCacheHits,
        Counter::EdgeCacheMisses,
        Counter::EarlyAccepts,
        Counter::EarlyRejects,
        Counter::SupernodesCreated,
        Counter::DegreeShortcutNoise,
        Counter::Step2Pruned,
        Counter::Step3Pruned,
        Counter::BorderAdoptions,
        Counter::CoreChecks,
        Counter::UnionsStep1,
        Counter::UnionsStep2,
        Counter::UnionsStep3,
        Counter::IndexSigmaEvals,
        Counter::IndexQueries,
        Counter::IndexCoresFound,
        Counter::IndexBordersAttached,
        Counter::CancelTrips,
        Counter::CheckpointsWritten,
        Counter::ResumeLoads,
        Counter::FaultsInjected,
        Counter::SigmaPathMerge,
        Counter::SigmaPathProbe,
        Counter::SigmaPathBitmap,
        Counter::SigmaPathBatched,
        Counter::SigmaPathSketch,
        Counter::SketchConfirms,
        Counter::ServeRequests,
        Counter::ServeQueries,
        Counter::ServeLookups,
        Counter::ServeRuns,
        Counter::ServeOverloaded,
        Counter::ServeProtocolErrors,
        Counter::LoadSent,
        Counter::LoadOk,
        Counter::LoadOverloaded,
        Counter::LoadErrors,
        Counter::DynUpdatesApplied,
        Counter::DynSigmaReevals,
        Counter::DynIndexRepairs,
        Counter::ReplSubscribes,
        Counter::ReplEntriesShipped,
        Counter::ReplEntriesApplied,
        Counter::ServeTimeouts,
        Counter::LoadReconnects,
    ];

    /// Number of counters (array sizing).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SigmaEvals => "sigma_evals",
            Counter::Lemma5Filtered => "lemma5_filtered",
            Counter::SharedEvals => "shared_evals",
            Counter::EdgeCacheHits => "edge_cache_hits",
            Counter::EdgeCacheMisses => "edge_cache_misses",
            Counter::EarlyAccepts => "early_accepts",
            Counter::EarlyRejects => "early_rejects",
            Counter::SupernodesCreated => "supernodes_created",
            Counter::DegreeShortcutNoise => "degree_shortcut_noise",
            Counter::Step2Pruned => "step2_pruned",
            Counter::Step3Pruned => "step3_pruned",
            Counter::BorderAdoptions => "border_adoptions",
            Counter::CoreChecks => "core_checks",
            Counter::UnionsStep1 => "unions_step1",
            Counter::UnionsStep2 => "unions_step2",
            Counter::UnionsStep3 => "unions_step3",
            Counter::IndexSigmaEvals => "index_sigma_evals",
            Counter::IndexQueries => "index_queries",
            Counter::IndexCoresFound => "index_cores_found",
            Counter::IndexBordersAttached => "index_borders_attached",
            Counter::CancelTrips => "cancel_trips",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::ResumeLoads => "resume_loads",
            Counter::FaultsInjected => "faults_injected",
            Counter::SigmaPathMerge => "sigma_path_merge",
            Counter::SigmaPathProbe => "sigma_path_probe",
            Counter::SigmaPathBitmap => "sigma_path_bitmap",
            Counter::SigmaPathBatched => "sigma_path_batched",
            Counter::SigmaPathSketch => "sigma_path_sketch",
            Counter::SketchConfirms => "sketch_confirms",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeQueries => "serve_queries",
            Counter::ServeLookups => "serve_lookups",
            Counter::ServeRuns => "serve_runs",
            Counter::ServeOverloaded => "serve_overloaded",
            Counter::ServeProtocolErrors => "serve_protocol_errors",
            Counter::LoadSent => "load_sent",
            Counter::LoadOk => "load_ok",
            Counter::LoadOverloaded => "load_overloaded",
            Counter::LoadErrors => "load_errors",
            Counter::DynUpdatesApplied => "dyn_updates_applied",
            Counter::DynSigmaReevals => "dyn_sigma_reevals",
            Counter::DynIndexRepairs => "dyn_index_repairs",
            Counter::ReplSubscribes => "repl_subscribes",
            Counter::ReplEntriesShipped => "repl_entries_shipped",
            Counter::ReplEntriesApplied => "repl_entries_applied",
            Counter::ServeTimeouts => "serve_timeouts",
            Counter::LoadReconnects => "load_reconnects",
        }
    }
}

/// One anytime snapshot, taken at a block boundary of the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSnapshot {
    /// Global block-iteration index (0-based, strictly increasing).
    pub index: u64,
    /// Phase the block belonged to (`"summarize"`, `"merge_strong"`, …; see
    /// `validate::KNOWN_PHASES`).
    pub phase: &'static str,
    /// Vertices handled in this block.
    pub block_len: u64,
    /// Wall time of this block iteration, nanoseconds.
    pub elapsed_ns: u64,
    /// Cumulative driver wall time at the boundary, nanoseconds.
    pub cumulative_ns: u64,
    /// Vertex-state histogram over the 7 states, discriminant order.
    /// Sums to |V| at every boundary.
    pub states: [u64; NUM_VERTEX_STATES],
    /// Super-nodes created so far.
    pub supernodes: u64,
    /// Distinct DSU components among the super-nodes.
    pub components: u64,
    /// Successful unions so far (all steps).
    pub unions: u64,
}

/// Utilization of one participant slot of the worker pool. Slot 0 is always
/// the submitting thread; slots `1..` are pool workers (assignment to OS
/// threads varies per job).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotUtilization {
    pub slot: u32,
    /// Time spent executing job bodies, nanoseconds.
    pub busy_ns: u64,
    /// Chunks dynamically claimed from the shared cursor.
    pub chunks: u64,
    /// Jobs this slot participated in.
    pub jobs: u64,
}

/// Snapshot of the persistent worker pool's utilization counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolUtilization {
    /// Parallel regions dispatched.
    pub jobs: u64,
    /// Per-slot busy/claim counters (only slots that ever participated).
    pub slots: Vec<SlotUtilization>,
    /// Per spawned worker: time parked between jobs, nanoseconds.
    pub worker_parked_ns: Vec<u64>,
}

impl PoolUtilization {
    /// Counter-wise `self - base`, for scoping a process-global pool's
    /// counters to one run. Saturates (a slot absent in `base` is new).
    pub fn delta_since(&self, base: &PoolUtilization) -> PoolUtilization {
        let base_slot = |slot: u32| {
            base.slots
                .iter()
                .find(|s| s.slot == slot)
                .copied()
                .unwrap_or_default()
        };
        PoolUtilization {
            jobs: self.jobs.saturating_sub(base.jobs),
            slots: self
                .slots
                .iter()
                .map(|s| {
                    let b = base_slot(s.slot);
                    SlotUtilization {
                        slot: s.slot,
                        busy_ns: s.busy_ns.saturating_sub(b.busy_ns),
                        chunks: s.chunks.saturating_sub(b.chunks),
                        jobs: s.jobs.saturating_sub(b.jobs),
                    }
                })
                .collect(),
            worker_parked_ns: self
                .worker_parked_ns
                .iter()
                .enumerate()
                .map(|(i, &ns)| {
                    ns.saturating_sub(base.worker_parked_ns.get(i).copied().unwrap_or(0))
                })
                .collect(),
        }
    }
}

/// Aggregated wall time of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTotal {
    pub name: &'static str,
    pub total_ns: u64,
    pub count: u64,
}

/// The recording surface every instrumented component talks to.
///
/// Implemented by [`ShardedRecorder`] (records), [`NoopRecorder`] (drops
/// everything) and [`Telemetry`] (dispatches to one or the other behind a
/// single branch).
pub trait Recorder {
    /// Whether records are kept. Instrumentation may use this to skip
    /// *computing* expensive payloads (e.g. a state histogram), not just
    /// recording them.
    fn is_enabled(&self) -> bool;
    /// Adds `delta` to a counter.
    fn add(&self, counter: Counter, delta: u64);
    /// Records one completed wall-time interval under `name`.
    fn record_span(&self, name: &'static str, ns: u64);
    /// Records one anytime block snapshot.
    fn record_block(&self, snapshot: BlockSnapshot);
    /// Publishes the run's pool-utilization delta (last write wins).
    fn set_pool(&self, pool: PoolUtilization);
}

/// A recorder that drops everything (the explicit form of a disabled
/// [`Telemetry`] handle).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
    fn add(&self, _: Counter, _: u64) {}
    fn record_span(&self, _: &'static str, _: u64) {}
    fn record_block(&self, _: BlockSnapshot) {}
    fn set_pool(&self, _: PoolUtilization) {}
}

/// Shards are padded to two cache lines so two workers bumping counters
/// never write-share a line (64-byte lines; 128 covers adjacent-line
/// prefetcher pairs).
#[repr(align(128))]
struct Shard {
    counters: [AtomicU64; Counter::COUNT],
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Number of counter shards. Threads map onto shards round-robin; 16 shards
/// keep contention negligible up to far more workers than the pool runs.
const NUM_SHARDS: usize = 16;

thread_local! {
    /// This thread's shard index, assigned once, round-robin.
    static SHARD: usize = {
        static NEXT: OnceLock<AtomicUsize> = OnceLock::new();
        NEXT.get_or_init(|| AtomicUsize::new(0))
            .fetch_add(1, Ordering::Relaxed)
            % NUM_SHARDS
    };
}

/// The recording implementation: lock-free sharded counters, mutex-guarded
/// span and snapshot logs (both are off the per-vertex hot path — spans end
/// per phase, snapshots per block).
pub struct ShardedRecorder {
    shards: Box<[Shard]>,
    spans: Mutex<Vec<(&'static str, u64)>>,
    snapshots: Mutex<Vec<BlockSnapshot>>,
    pool: Mutex<Option<PoolUtilization>>,
}

impl Default for ShardedRecorder {
    fn default() -> Self {
        ShardedRecorder::new()
    }
}

impl ShardedRecorder {
    /// Fresh recorder with all counters at zero.
    pub fn new() -> Self {
        ShardedRecorder {
            shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
            spans: Mutex::new(Vec::new()),
            snapshots: Mutex::new(Vec::new()),
            pool: Mutex::new(None),
        }
    }

    /// Aggregates all shards into one total per counter.
    pub fn counter_totals(&self) -> [u64; Counter::COUNT] {
        let mut totals = [0u64; Counter::COUNT];
        for shard in self.shards.iter() {
            for (t, c) in totals.iter_mut().zip(&shard.counters) {
                *t += c.load(Ordering::Relaxed);
            }
        }
        totals
    }

    /// Drains the state into an immutable [`Report`].
    pub fn report(&self) -> Report {
        let raw_spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        let mut spans: Vec<SpanTotal> = Vec::new();
        for &(name, ns) in raw_spans.iter() {
            match spans.iter_mut().find(|s| s.name == name) {
                Some(s) => {
                    s.total_ns += ns;
                    s.count += 1;
                }
                None => spans.push(SpanTotal {
                    name,
                    total_ns: ns,
                    count: 1,
                }),
            }
        }
        Report {
            counters: self.counter_totals(),
            spans,
            snapshots: self
                .snapshots
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
            pool: self.pool.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }
}

impl Recorder for ShardedRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, counter: Counter, delta: u64) {
        let shard = SHARD.with(|s| *s);
        self.shards[shard].counters[counter as usize].fetch_add(delta, Ordering::Relaxed);
    }

    fn record_span(&self, name: &'static str, ns: u64) {
        self.spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((name, ns));
    }

    fn record_block(&self, snapshot: BlockSnapshot) {
        self.snapshots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(snapshot);
    }

    fn set_pool(&self, pool: PoolUtilization) {
        *self.pool.lock().unwrap_or_else(|e| e.into_inner()) = Some(pool);
    }
}

/// The cheap-to-clone telemetry handle threaded through the pipeline.
///
/// [`Telemetry::disabled`] (also [`Default`]) carries no recorder: every
/// method is one `Option` branch and returns immediately, so instrumented
/// code needs no `cfg` or generics to be free when tracing is off.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<ShardedRecorder>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A recording handle.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(ShardedRecorder::new())),
        }
    }

    /// A no-op handle (the default).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Starts a wall-time span recorded (under `name`) when the guard
    /// drops. On a disabled handle the guard holds no timestamp and drops
    /// for free.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            telemetry: self,
            name,
            start: self.inner.as_ref().map(|_| Instant::now()),
        }
    }

    /// Builds the report, or `None` on a disabled handle.
    pub fn report(&self) -> Option<Report> {
        self.inner.as_ref().map(|r| r.report())
    }
}

impl Recorder for Telemetry {
    #[inline]
    fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    #[inline]
    fn add(&self, counter: Counter, delta: u64) {
        if let Some(r) = &self.inner {
            r.add(counter, delta);
        }
    }

    #[inline]
    fn record_span(&self, name: &'static str, ns: u64) {
        if let Some(r) = &self.inner {
            r.record_span(name, ns);
        }
    }

    #[inline]
    fn record_block(&self, snapshot: BlockSnapshot) {
        if let Some(r) = &self.inner {
            r.record_block(snapshot);
        }
    }

    fn set_pool(&self, pool: PoolUtilization) {
        if let Some(r) = &self.inner {
            r.set_pool(pool);
        }
    }
}

/// RAII guard of [`Telemetry::span`].
pub struct SpanGuard<'a> {
    telemetry: &'a Telemetry,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.telemetry
                .record_span(self.name, start.elapsed().as_nanos() as u64);
        }
    }
}

/// A metadata value attached to a trace (the `meta` JSON object).
#[derive(Debug, Clone, PartialEq)]
pub enum MetaValue {
    Str(String),
    U64(u64),
    F64(f64),
}

impl From<&str> for MetaValue {
    fn from(s: &str) -> Self {
        MetaValue::Str(s.to_string())
    }
}
impl From<String> for MetaValue {
    fn from(s: String) -> Self {
        MetaValue::Str(s)
    }
}
impl From<u64> for MetaValue {
    fn from(v: u64) -> Self {
        MetaValue::U64(v)
    }
}
impl From<usize> for MetaValue {
    fn from(v: usize) -> Self {
        MetaValue::U64(v as u64)
    }
}
impl From<f64> for MetaValue {
    fn from(v: f64) -> Self {
        MetaValue::F64(v)
    }
}

/// Everything a finished run recorded, ready for serialization.
#[derive(Debug, Clone)]
pub struct Report {
    /// Totals per [`Counter`], indexed by discriminant.
    pub counters: [u64; Counter::COUNT],
    /// Aggregated spans, first-recorded first.
    pub spans: Vec<SpanTotal>,
    /// Anytime block snapshots in recording order.
    pub snapshots: Vec<BlockSnapshot>,
    /// Pool utilization delta, when published.
    pub pool: Option<PoolUtilization>,
}

impl Report {
    /// Total of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Aggregated total of one span name, if it was recorded.
    pub fn span_total(&self, name: &str) -> Option<SpanTotal> {
        self.spans.iter().find(|s| s.name == name).copied()
    }

    /// Serializes the trace-JSON document (schema version 1): `meta` first,
    /// then `spans`, `counters`, `pool` and `snapshots`. The output is the
    /// contract checked by [`validate::validate_trace`].
    pub fn to_json(&self, meta: &[(&str, MetaValue)]) -> String {
        let mut out = String::with_capacity(4096 + 256 * self.snapshots.len());
        out.push_str("{\n  \"version\": 1,\n  \"meta\": {");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, k);
            out.push_str(": ");
            match v {
                MetaValue::Str(s) => push_json_string(&mut out, s),
                MetaValue::U64(n) => out.push_str(&n.to_string()),
                MetaValue::F64(x) => push_json_f64(&mut out, *x),
            }
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { \"name\": ");
            push_json_string(&mut out, s.name);
            out.push_str(&format!(
                ", \"total_ns\": {}, \"count\": {} }}",
                s.total_ns, s.count
            ));
        }
        out.push_str("\n  ],\n  \"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, c.name());
            out.push_str(&format!(": {}", self.counters[*c as usize]));
        }
        out.push_str("\n  },\n  \"pool\": ");
        match &self.pool {
            None => out.push_str("null"),
            Some(p) => {
                out.push_str(&format!("{{\n    \"jobs\": {},\n    \"slots\": [", p.jobs));
                for (i, s) in p.slots.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "\n      {{ \"slot\": {}, \"busy_ns\": {}, \"chunks\": {}, \"jobs\": {} }}",
                        s.slot, s.busy_ns, s.chunks, s.jobs
                    ));
                }
                out.push_str("\n    ],\n    \"worker_parked_ns\": [");
                for (i, ns) in p.worker_parked_ns.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&ns.to_string());
                }
                out.push_str("]\n  }");
            }
        }
        out.push_str(",\n  \"snapshots\": [");
        for (i, s) in self.snapshots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { \"index\": ");
            out.push_str(&s.index.to_string());
            out.push_str(", \"phase\": ");
            push_json_string(&mut out, s.phase);
            out.push_str(&format!(
                ", \"block_len\": {}, \"elapsed_ns\": {}, \"cumulative_ns\": {}, \"states\": [",
                s.block_len, s.elapsed_ns, s.cumulative_ns
            ));
            for (j, c) in s.states.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.to_string());
            }
            out.push_str(&format!(
                "], \"supernodes\": {}, \"components\": {}, \"unions\": {} }}",
                s.supernodes, s.components, s.unions
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Appends `s` as a JSON string literal (quotes + escapes).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite f64 (JSON has no NaN/Inf; those become 0).
pub fn push_json_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        out.push_str(&format!("{x}"));
    } else {
        out.push('0');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing_and_reports_none() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.add(Counter::SigmaEvals, 10);
        t.record_block(BlockSnapshot {
            index: 0,
            phase: "summarize",
            block_len: 1,
            elapsed_ns: 1,
            cumulative_ns: 1,
            states: [0; NUM_VERTEX_STATES],
            supernodes: 0,
            components: 0,
            unions: 0,
        });
        {
            let _g = t.span("noop");
        }
        assert!(t.report().is_none());
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let t = Telemetry::enabled();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        t.add(Counter::SigmaEvals, 1);
                        t.add(Counter::EdgeCacheHits, 2);
                    }
                });
            }
        });
        let r = t.report().unwrap();
        assert_eq!(r.counter(Counter::SigmaEvals), 8000);
        assert_eq!(r.counter(Counter::EdgeCacheHits), 16000);
        assert_eq!(r.counter(Counter::SharedEvals), 0);
    }

    #[test]
    fn spans_aggregate_by_name() {
        let t = Telemetry::enabled();
        t.record_span("step1", 100);
        t.record_span("step2", 50);
        t.record_span("step1", 25);
        let r = t.report().unwrap();
        let s1 = r.span_total("step1").unwrap();
        assert_eq!((s1.total_ns, s1.count), (125, 2));
        assert_eq!(r.span_total("step2").unwrap().count, 1);
        assert!(r.span_total("absent").is_none());
    }

    #[test]
    fn span_guard_measures_time() {
        let t = Telemetry::enabled();
        {
            let _g = t.span("sleepy");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let s = t.report().unwrap().span_total("sleepy").unwrap();
        assert!(s.total_ns >= 1_000_000, "span recorded {} ns", s.total_ns);
    }

    #[test]
    fn pool_delta_subtracts_baseline() {
        let base = PoolUtilization {
            jobs: 5,
            slots: vec![SlotUtilization {
                slot: 0,
                busy_ns: 100,
                chunks: 10,
                jobs: 5,
            }],
            worker_parked_ns: vec![50],
        };
        let now = PoolUtilization {
            jobs: 8,
            slots: vec![
                SlotUtilization {
                    slot: 0,
                    busy_ns: 180,
                    chunks: 16,
                    jobs: 8,
                },
                SlotUtilization {
                    slot: 1,
                    busy_ns: 40,
                    chunks: 4,
                    jobs: 3,
                },
            ],
            worker_parked_ns: vec![90, 20],
        };
        let d = now.delta_since(&base);
        assert_eq!(d.jobs, 3);
        assert_eq!(d.slots[0].busy_ns, 80);
        assert_eq!(d.slots[0].chunks, 6);
        assert_eq!(d.slots[1].busy_ns, 40, "new slot passes through");
        assert_eq!(d.worker_parked_ns, vec![40, 20]);
    }

    #[test]
    fn report_json_round_trips_through_own_parser() {
        let t = Telemetry::enabled();
        t.add(Counter::SigmaEvals, 42);
        t.record_span("step1", 1234);
        t.record_block(BlockSnapshot {
            index: 0,
            phase: "summarize",
            block_len: 32,
            elapsed_ns: 10,
            cumulative_ns: 10,
            states: [93, 0, 0, 0, 0, 0, 7],
            supernodes: 7,
            components: 3,
            unions: 4,
        });
        t.set_pool(PoolUtilization {
            jobs: 2,
            slots: vec![SlotUtilization {
                slot: 0,
                busy_ns: 5,
                chunks: 2,
                jobs: 2,
            }],
            worker_parked_ns: vec![7],
        });
        let r = t.report().unwrap();
        let text = r.to_json(&[
            ("algo", MetaValue::from("anyscan")),
            ("vertices", MetaValue::from(100u64)),
            ("eps", MetaValue::from(0.5)),
            ("quote\"key", MetaValue::from("line\nbreak")),
        ]);
        let v = json::JsonValue::parse(&text).expect("self-emitted JSON parses");
        assert_eq!(v.get("version").and_then(json::JsonValue::as_u64), Some(1));
        let meta = v.get("meta").unwrap();
        assert_eq!(
            meta.get("algo").and_then(json::JsonValue::as_str),
            Some("anyscan")
        );
        assert_eq!(
            meta.get("quote\"key").and_then(json::JsonValue::as_str),
            Some("line\nbreak")
        );
        let counters = v.get("counters").unwrap();
        assert_eq!(
            counters
                .get("sigma_evals")
                .and_then(json::JsonValue::as_u64),
            Some(42)
        );
        let snaps = v
            .get("snapshots")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        assert_eq!(snaps.len(), 1);
        let states = snaps[0]
            .get("states")
            .and_then(json::JsonValue::as_array)
            .unwrap();
        assert_eq!(states.len(), NUM_VERTEX_STATES);
        let total: u64 = states.iter().filter_map(json::JsonValue::as_u64).sum();
        assert_eq!(total, 100);
        // And the full document passes the schema gate used by CI.
        validate::validate_trace(&v).expect("schema validates");
    }
}
