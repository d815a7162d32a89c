//! Dynamic-scheduled shared-memory parallelism on a persistent worker pool.
//!
//! The paper parallelizes each block phase of anySCAN with
//! `#pragma omp parallel for schedule(dynamic)` (Fig. 4): workers repeatedly
//! claim chunks of the iteration space from a shared counter, which
//! load-balances the wildly varying neighborhood sizes of real graphs. This
//! crate reimplements that primitive on a **process-wide pool of long-lived
//! parked workers** (like an OpenMP runtime's thread team), so the per-block
//! cost of going parallel is a mutex hand-off instead of `threads - 1` OS
//! thread spawns. anySCAN runs hundreds of α/β blocks per clustering; with
//! per-call spawning the spawn cost recurs on every one of them.
//!
//! * [`parallel_for_dynamic`] — run a body over `0..n` in fixed-size
//!   dynamically claimed chunks (the literal OpenMP
//!   `schedule(dynamic, chunk)` analogue);
//! * [`parallel_for_adaptive`] — same with guided chunk sizing: each claim
//!   takes `remaining / (2 · threads)` indices (clamped), so early chunks
//!   are large (low counter traffic) and late chunks small (load balance);
//! * [`parallel_map_adaptive`] — collect one output per index into a
//!   `Vec<T>` without locks (each claimed chunk owns a disjoint slice of the
//!   output);
//! * [`parallel_map_with`] — map with a per-worker scratch value threaded
//!   through every call on that worker (at most one `init()` per worker per
//!   call site — reuses allocations such as ε-neighborhood buffers);
//! * [`parallel_for_each_mut_with`] — the same, in place: each index gets
//!   `&mut` to its own element of a slice (e.g. one row of a flat array);
//! * [`parallel_reduce_dynamic`] / [`parallel_reduce_adaptive`] — fold into
//!   one accumulator per worker, returned for the caller to merge.
//!
//! With `threads <= 1` every entry point degrades to a plain sequential loop
//! on the calling thread with zero synchronization, so single-thread
//! measurements of the parallel driver are honest (the paper notes its
//! 1-thread and sequential versions coincide).
//!
//! # Pool semantics
//!
//! The global pool ([`WorkerPool::global`]) grows on demand and parks its
//! workers on a condvar between jobs; threads are reused across calls and
//! live for the process. Jobs are serialized through the pool (one parallel
//! region at a time, as in OpenMP without nesting); a body that itself calls
//! a `parallel_*` entry point runs that nested call inline on its own thread
//! rather than deadlocking. A panic in any worker is caught, the job is
//! drained, and the panic resumes on the submitting thread — same observable
//! behavior as the scoped-thread implementation this replaces.

use std::any::Any;
use std::cell::Cell;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

pub use anyscan_telemetry::{PoolUtilization, SlotUtilization};

/// Default number of indices a worker claims at a time in the fixed-chunk
/// entry points. OpenMP's `schedule(dynamic)` default chunk is 1; we default
/// a little coarser to keep counter traffic negligible while still balancing
/// skewed work. The `*_adaptive` entry points ignore this and size chunks
/// from the remaining work instead.
pub const DEFAULT_CHUNK: usize = 16;

/// Smallest chunk the adaptive policy hands out: bounds cursor traffic on
/// the tail without hurting balance (a σ evaluation dwarfs one CAS).
pub const ADAPTIVE_MIN_CHUNK: usize = 4;

/// Largest chunk the adaptive policy hands out: bounds the imbalance any
/// single straggler chunk can cause at the start of a large job.
pub const ADAPTIVE_MAX_CHUNK: usize = 4096;

/// Hard cap on pool workers (requested thread counts clamp to this + 1).
const MAX_WORKERS: usize = 128;

/// How a job's iteration space is carved into claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkPolicy {
    /// Every claim takes exactly this many indices (OpenMP
    /// `schedule(dynamic, chunk)`).
    Fixed(usize),
    /// Guided sizing: each claim takes `remaining / (2 · participants)`
    /// indices, clamped to `[ADAPTIVE_MIN_CHUNK, ADAPTIVE_MAX_CHUNK]`
    /// (OpenMP `schedule(guided)` with a minimum chunk).
    Adaptive,
}

/// Returns the number of worker threads to actually use for `requested`
/// threads over `n` items (never more threads than items, at least 1).
pub fn effective_threads(requested: usize, n: usize) -> usize {
    requested.max(1).min(n.max(1)).min(MAX_WORKERS + 1)
}

thread_local! {
    /// True while this thread is executing a pool job (worker or submitter).
    /// Nested submissions from such a thread run inline instead of waiting
    /// on the (already busy) pool — OpenMP's "nested parallelism off".
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Locks ignoring poisoning: a panicking job is already captured and
/// re-raised by the dispatch protocol, so guard state stays consistent.
fn lock_pool<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A job panic converted to a value instead of an unwind: the typed form
/// of "one poisoned block job failed the run". The pool itself stays
/// consistent and reusable afterwards — only the job is lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    message: String,
}

impl PoolError {
    /// The panic payload rendered as text (`&str`/`String` payloads pass
    /// through; anything else becomes a placeholder).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Builds a `PoolError` from a caught panic payload.
    pub fn from_payload(payload: &(dyn Any + Send)) -> PoolError {
        PoolError {
            message: panic_message(payload),
        }
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker job panicked: {}", self.message)
    }
}

impl std::error::Error for PoolError {}

/// Extracts the human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One published parallel region. Lives on the submitter's stack; workers
/// reach it through a raw pointer that the `pending` refcount keeps valid
/// (the submitter does not return before `pending` hits zero).
struct Job {
    n: usize,
    /// Fixed claim size; 0 selects the adaptive policy.
    fixed_chunk: usize,
    /// Total participants (pool workers + the submitter).
    participants: usize,
    cursor: AtomicUsize,
    pending: AtomicUsize,
    /// Type- and lifetime-erased `&dyn Fn(slot, range)`; see `Job` safety
    /// note above.
    body: *const (dyn Fn(usize, Range<usize>) + Sync),
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` points at a `Sync` closure that outlives the job (enforced
// by the submitter blocking on `pending`), and all mutable state is atomic
// or mutex-guarded.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims the next chunk, or `None` when the space is exhausted.
    fn claim(&self) -> Option<Range<usize>> {
        if self.fixed_chunk > 0 {
            let start = self.cursor.fetch_add(self.fixed_chunk, Ordering::Relaxed);
            if start >= self.n {
                return None;
            }
            return Some(start..(start + self.fixed_chunk).min(self.n));
        }
        // Guided: size each claim from what is left so chunks shrink as the
        // job drains. CAS (not fetch_add) because the size depends on the
        // observed cursor.
        let mut cur = self.cursor.load(Ordering::Relaxed);
        loop {
            if cur >= self.n {
                return None;
            }
            let remaining = self.n - cur;
            let size = (remaining / (2 * self.participants))
                .clamp(ADAPTIVE_MIN_CHUNK, ADAPTIVE_MAX_CHUNK)
                .min(remaining);
            match self.cursor.compare_exchange_weak(
                cur,
                cur + size,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(cur..cur + size),
                Err(now) => cur = now,
            }
        }
    }

    /// Runs the claim loop as participant `slot`, capturing (not unwinding)
    /// any body panic so the dispatch protocol always completes. Returns the
    /// number of chunks this participant claimed (partial on panic).
    fn execute(&self, slot: usize) -> u64 {
        // SAFETY: the submitter keeps the closure alive until `pending`
        // reaches zero, which cannot happen before this call returns.
        let body = unsafe { &*self.body };
        let mut chunks = 0u64;
        let result = catch_unwind(AssertUnwindSafe(|| {
            anyscan_faults::fire_panic("pool::job");
            while let Some(range) = self.claim() {
                chunks += 1;
                body(slot, range);
            }
        }));
        if let Err(payload) = result {
            // Fast-forward the cursor so co-workers stop claiming, then
            // record the first panic for the submitter to re-raise.
            self.cursor.store(self.n, Ordering::Relaxed);
            let mut slot = lock_pool(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        chunks
    }
}

/// Dispatch state shared between the submitter and all pool workers.
struct DispatchState {
    /// Bumped once per published job; workers use it to recognize work they
    /// have not seen yet (each worker processes each epoch at most once).
    epoch: u64,
    job: *const Job,
    /// Workers that have joined the current epoch (also assigns slots).
    joined: usize,
    /// Workers allowed to join the current epoch.
    worker_participants: usize,
    shutdown: bool,
}

// SAFETY: the raw job pointer is only dereferenced by epoch-gated joiners
// counted in `pending` (see `Job`).
unsafe impl Send for DispatchState {}

/// Always-on utilization counters for one participant slot. Touched once per
/// job per slot (not per chunk), so the accounting cost is three relaxed adds
/// and one `Instant` pair per dispatch — unmeasurable next to any real job.
#[derive(Default)]
struct SlotStats {
    busy_ns: AtomicU64,
    chunks: AtomicU64,
    jobs: AtomicU64,
}

/// Pool-lifetime utilization counters. Scoped per-run views are obtained by
/// snapshotting before and after and taking [`PoolUtilization::delta_since`].
struct PoolStats {
    /// Parallel regions dispatched to the team (inline/sequential fallbacks
    /// in [`WorkerPool::run`] are not dispatches and are not counted).
    jobs: AtomicU64,
    /// Indexed by participant slot (0 = submitter, `1..` = pool workers).
    slots: Box<[SlotStats]>,
    /// Indexed by spawn order of the worker threads; time spent parked on
    /// the work condvar between jobs.
    parked_ns: Box<[AtomicU64]>,
}

impl PoolStats {
    fn new() -> Self {
        PoolStats {
            jobs: AtomicU64::new(0),
            slots: (0..=MAX_WORKERS).map(|_| SlotStats::default()).collect(),
            parked_ns: (0..MAX_WORKERS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record_execution(&self, slot: usize, busy_ns: u64, chunks: u64) {
        let s = &self.slots[slot];
        s.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        s.chunks.fetch_add(chunks, Ordering::Relaxed);
        s.jobs.fetch_add(1, Ordering::Relaxed);
    }
}

struct PoolShared {
    state: Mutex<DispatchState>,
    /// Workers park here between jobs.
    work_cv: Condvar,
    /// The submitter parks here until `pending` drains.
    done_cv: Condvar,
    stats: PoolStats,
}

/// A persistent team of parked worker threads executing dynamically
/// scheduled jobs. Most callers want [`WorkerPool::global`]; standalone
/// pools exist for tests ([`Drop`] shuts the workers down).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Serializes jobs: one parallel region at a time.
    submit: Mutex<()>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    spawned: AtomicUsize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; workers are spawned lazily on first use.
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(DispatchState {
                    epoch: 0,
                    job: std::ptr::null(),
                    joined: 0,
                    worker_participants: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                stats: PoolStats::new(),
            }),
            submit: Mutex::new(()),
            workers: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        }
    }

    /// The process-wide pool used by every `parallel_*` free function.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Worker threads spawned so far (grows on demand, never shrinks).
    pub fn spawned_workers(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Snapshot of the pool's lifetime utilization counters: jobs
    /// dispatched, per-slot busy time / chunk claims / job participations,
    /// and per-worker parked time.
    ///
    /// The counters are monotone and cover the pool's whole lifetime (the
    /// global pool lives for the process), so callers interested in one
    /// run snapshot before and after and take
    /// [`PoolUtilization::delta_since`]. Sequential fallbacks (`threads <=
    /// 1`, single-item jobs, nested calls) never dispatch to the team and
    /// are therefore invisible here by design.
    ///
    /// Slot attribution: slot 0 is always the submitting thread; which OS
    /// worker serves slots `1..` varies per job, so per-slot numbers
    /// describe team positions, not threads. `worker_parked_ns` *is*
    /// per-thread, in spawn order.
    pub fn utilization(&self) -> PoolUtilization {
        let stats = &self.shared.stats;
        let slots = stats
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.jobs.load(Ordering::Relaxed) > 0)
            .map(|(i, s)| SlotUtilization {
                slot: i as u32,
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
                chunks: s.chunks.load(Ordering::Relaxed),
                jobs: s.jobs.load(Ordering::Relaxed),
            })
            .collect();
        let worker_parked_ns = stats.parked_ns[..self.spawned_workers().min(MAX_WORKERS)]
            .iter()
            .map(|ns| ns.load(Ordering::Relaxed))
            .collect();
        PoolUtilization {
            jobs: stats.jobs.load(Ordering::Relaxed),
            slots,
            worker_parked_ns,
        }
    }

    /// Runs `body` over every chunk of `0..n` with `threads` participants
    /// (the calling thread is one of them and receives slot 0; pool workers
    /// get slots `1..threads`). Panics in `body` resume on the caller.
    pub fn run<F>(&self, threads: usize, n: usize, policy: ChunkPolicy, body: F)
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        if n == 0 {
            return;
        }
        let t = effective_threads(threads, n);
        if t == 1 || IN_JOB.with(Cell::get) {
            body(0, 0..n);
            return;
        }
        self.run_team(t, n, policy, &body);
    }

    /// Like [`run`](Self::run), but converts a job panic into a typed
    /// [`PoolError`] instead of resuming the unwind on the caller. The pool
    /// remains reusable either way; this merely moves the failure into the
    /// `Result` channel for callers that must not unwind (the anytime
    /// driver's execution-control loop).
    pub fn try_run<F>(
        &self,
        threads: usize,
        n: usize,
        policy: ChunkPolicy,
        body: F,
    ) -> Result<(), PoolError>
    where
        F: Fn(usize, Range<usize>) + Sync,
    {
        catch_unwind(AssertUnwindSafe(|| self.run(threads, n, policy, body)))
            .map_err(|payload| PoolError::from_payload(payload.as_ref()))
    }

    fn run_team(
        &self,
        t: usize,
        n: usize,
        policy: ChunkPolicy,
        body: &(dyn Fn(usize, Range<usize>) + Sync),
    ) {
        let workers = t - 1;
        self.ensure_workers(workers);
        // SAFETY: pure lifetime erasure on a fat pointer (the struct field's
        // `dyn` defaults to `'static`); the dispatch protocol guarantees no
        // dereference survives this stack frame.
        let body_ptr: *const (dyn Fn(usize, Range<usize>) + Sync) =
            unsafe { std::mem::transmute(body as *const (dyn Fn(usize, Range<usize>) + Sync)) };
        let job = Job {
            n,
            fixed_chunk: match policy {
                ChunkPolicy::Fixed(c) => c.max(1),
                ChunkPolicy::Adaptive => 0,
            },
            participants: t,
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(t),
            body: body_ptr,
            panic: Mutex::new(None),
        };

        let _submit = lock_pool(&self.submit);
        self.shared.stats.jobs.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = lock_pool(&self.shared.state);
            st.epoch += 1;
            st.job = &job as *const Job;
            st.joined = 0;
            st.worker_participants = workers;
            self.shared.work_cv.notify_all();
        }

        // The submitter is participant 0 and works too (panics captured).
        IN_JOB.with(|f| f.set(true));
        let started = Instant::now();
        let chunks = job.execute(0);
        self.shared
            .stats
            .record_execution(0, started.elapsed().as_nanos() as u64, chunks);
        IN_JOB.with(|f| f.set(false));

        // Wait until every participant has finished; only then may `job`
        // (and the borrowed closure) leave scope.
        if job.pending.fetch_sub(1, Ordering::AcqRel) != 1 {
            let mut st = lock_pool(&self.shared.state);
            while job.pending.load(Ordering::Acquire) > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(|e| e.into_inner());
            }
            drop(st);
        }

        let payload = lock_pool(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Grows the pool to at least `needed` workers.
    fn ensure_workers(&self, needed: usize) {
        if self.spawned.load(Ordering::Acquire) >= needed {
            return;
        }
        let mut handles = lock_pool(&self.workers);
        while handles.len() < needed.min(MAX_WORKERS) {
            let shared = Arc::clone(&self.shared);
            let worker_index = handles.len();
            let handle = std::thread::Builder::new()
                .name(format!("anyscan-pool-{worker_index}"))
                .spawn(move || worker_loop(shared, worker_index))
                .expect("spawn pool worker");
            handles.push(handle);
            self.spawned.fetch_add(1, Ordering::Release);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_pool(&self.shared.state);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in lock_pool(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, worker_index: usize) {
    // A pool worker is always "inside a job" for nesting purposes.
    IN_JOB.with(|f| f.set(true));
    let mut last_epoch = 0u64;
    loop {
        let (job_ptr, slot);
        {
            let mut st = lock_pool(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != last_epoch {
                    last_epoch = st.epoch;
                    if st.joined < st.worker_participants {
                        slot = 1 + st.joined;
                        st.joined += 1;
                        job_ptr = st.job;
                        break;
                    }
                    // Epoch observed but full — skip it and park again.
                }
                let parked = Instant::now();
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                shared.stats.parked_ns[worker_index]
                    .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }
        // SAFETY: we joined this epoch under the lock, so we are one of the
        // `pending` participants the submitter is blocked on; the job (and
        // its closure) stay alive until our decrement below.
        let job = unsafe { &*job_ptr };
        let started = Instant::now();
        let chunks = job.execute(slot);
        shared
            .stats
            .record_execution(slot, started.elapsed().as_nanos() as u64, chunks);
        if job.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last one out: wake the submitter. Lock the state mutex so the
            // notify cannot race between its pending-check and its wait.
            let _st = lock_pool(&shared.state);
            shared.done_cv.notify_all();
        }
    }
}

/// Runs `body` over every chunk of `0..n`, claimed dynamically in fixed
/// `chunk`-sized pieces by `threads` workers of the global pool. `body`
/// receives half-open index ranges.
pub fn parallel_for_dynamic<F>(threads: usize, n: usize, chunk: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    WorkerPool::global().run(threads, n, ChunkPolicy::Fixed(chunk), |_, range| {
        body(range)
    });
}

/// [`parallel_for_dynamic`] with guided (adaptive) chunk sizing: no chunk
/// parameter to tune — claims start at `n / (2 · threads)` indices and
/// shrink with the remaining work.
pub fn parallel_for_adaptive<F>(threads: usize, n: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    WorkerPool::global().run(threads, n, ChunkPolicy::Adaptive, |_, range| body(range));
}

/// Maps `f` over `0..n` with guided (adaptive) scheduling, returning the
/// outputs in index order. Lock-free: each claimed chunk writes a disjoint
/// slice of the output buffer.
pub fn parallel_map_adaptive<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(threads, n, || (), |_, i| f(i))
}

/// Maps `f` over `0..n` (adaptive scheduling) with a per-worker scratch
/// value: `init` runs at most once per participating worker and the same
/// `&mut S` is passed to every `f` call on that worker — the buffer-reuse
/// hook for allocation-heavy bodies such as ε-neighborhood queries.
pub fn parallel_map_with<T, S, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: `MaybeUninit` needs no initialization; every slot is written
    // exactly once below before the conversion (chunk claims partition 0..n;
    // a body panic aborts the conversion by unwinding out of `run`, leaking
    // written elements but never reading uninitialized ones).
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n);
    }
    parallel_for_each_mut_with(threads, &mut out, init, |scratch, i, slot| {
        slot.write(f(scratch, i));
    });
    // SAFETY: all n slots were initialized (the chunk claims cover 0..n and
    // `run` returns only after every participant finished).
    unsafe {
        let mut out = std::mem::ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr() as *mut T, n, out.capacity())
    }
}

/// Calls `f(scratch, i, &mut items[i])` for every index of `items`
/// (adaptive scheduling): each call has its item to itself, and `scratch`
/// is its worker's, made by `init` at most once per participating worker.
/// The in-place counterpart of [`parallel_map_with`], e.g. over the
/// disjoint row slices of one flat array.
pub fn parallel_for_each_mut_with<T, S, I, F>(threads: usize, items: &mut [T], init: I, f: F)
where
    T: Send,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) + Sync,
{
    let n = items.len();
    // One scratch per slot, locked once per chunk: the mutex is uncontended
    // and only moves `S` across the thread boundary safely.
    let scratches: Vec<Mutex<Option<S>>> = (0..effective_threads(threads, n))
        .map(|_| Mutex::new(None))
        .collect();
    let base = SendPtr(items.as_mut_ptr());
    WorkerPool::global().run(threads, n, ChunkPolicy::Adaptive, |slot, range| {
        let base = &base;
        let mut guard = lock_pool(&scratches[slot]);
        let scratch = guard.get_or_insert_with(&init);
        for i in range {
            // SAFETY: `i < n` is claimed by exactly one participant, so this
            // `&mut` is unaliased, and `items` outlives `run`.
            f(scratch, i, unsafe { &mut *base.0.add(i) });
        }
    });
}

/// Folds `0..n` into per-worker accumulators with dynamic scheduling and
/// returns them (callers merge; order is unspecified).
pub fn parallel_reduce_dynamic<A, I, F>(
    threads: usize,
    n: usize,
    chunk: usize,
    init: I,
    body: F,
) -> Vec<A>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
{
    reduce_impl(threads, n, ChunkPolicy::Fixed(chunk), init, body)
}

/// [`parallel_reduce_dynamic`] with guided (adaptive) chunk sizing.
pub fn parallel_reduce_adaptive<A, I, F>(threads: usize, n: usize, init: I, body: F) -> Vec<A>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
{
    reduce_impl(threads, n, ChunkPolicy::Adaptive, init, body)
}

fn reduce_impl<A, I, F>(threads: usize, n: usize, policy: ChunkPolicy, init: I, body: F) -> Vec<A>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
{
    let t = effective_threads(threads, n);
    if t == 1 {
        let mut acc = init();
        for i in 0..n {
            body(&mut acc, i);
        }
        return vec![acc];
    }
    // One accumulator per slot; mutexes are uncontended (slots exclusive).
    let accs: Vec<Mutex<Option<A>>> = (0..t).map(|_| Mutex::new(None)).collect();
    WorkerPool::global().run(threads, n, policy, |slot, range| {
        let mut guard = lock_pool(&accs[slot]);
        let acc = guard.get_or_insert_with(&init);
        for i in range {
            body(acc, i);
        }
    });
    accs.into_iter()
        .filter_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

/// A raw pointer that asserts cross-thread shareability for the disjoint
/// writes of [`parallel_for_each_mut_with`].
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only used for writes to indices each worker claims
// exclusively via the shared atomic cursor.
unsafe impl<T> Sync for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;

    #[test]
    fn effective_thread_clamping() {
        assert_eq!(effective_threads(0, 10), 1);
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(4, 100), 4);
        assert_eq!(effective_threads(4, 0), 1);
    }

    #[test]
    fn for_covers_every_index_exactly_once() {
        for threads in [1usize, 2, 4, 7] {
            for n in [0usize, 1, 5, 1000, 1001] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                parallel_for_dynamic(threads, n, 3, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn adaptive_covers_every_index_exactly_once() {
        for threads in [1usize, 2, 4, 7] {
            for n in [0usize, 1, 5, 1000, 1001, 50_000] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                parallel_for_adaptive(threads, n, |range| {
                    for i in range {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn adaptive_chunks_start_guided_and_stay_bounded() {
        let n = 10_000usize;
        let threads = 4usize;
        let claims: Mutex<Vec<Range<usize>>> = Mutex::new(Vec::new());
        parallel_for_adaptive(threads, n, |range| {
            claims.lock().unwrap().push(range);
        });
        let claims = claims.into_inner().unwrap();
        let total: usize = claims.iter().map(|r| r.len()).sum();
        assert_eq!(total, n);
        // The claim that started at index 0 observed the full remaining
        // space, so its size is exactly n / (2 * threads) (within clamps).
        let first = claims.iter().find(|r| r.start == 0).expect("claim at 0");
        assert_eq!(
            first.len(),
            (n / (2 * threads)).clamp(ADAPTIVE_MIN_CHUNK, ADAPTIVE_MAX_CHUNK)
        );
        // Guided sizing must beat fixed-minimum chunking on claim count.
        assert!(claims.len() <= n / ADAPTIVE_MIN_CHUNK);
        for r in &claims {
            assert!(!r.is_empty() && r.len() <= ADAPTIVE_MAX_CHUNK);
        }
    }

    #[test]
    fn map_preserves_index_order() {
        for threads in [1usize, 2, 4] {
            for n in [0usize, 1, 17, 4096] {
                let out = parallel_map_adaptive(threads, n, |i| i * i);
                assert_eq!(out.len(), n);
                for (i, v) in out.iter().enumerate() {
                    assert_eq!(*v, i * i);
                }
            }
        }
    }

    #[test]
    fn map_handles_non_copy_types_and_drops() {
        let out = parallel_map_adaptive(4, 100, |i| vec![i; 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i; 3]);
        }
        drop(out); // must not double-free
    }

    #[test]
    fn map_adaptive_matches_sequential() {
        for threads in [2usize, 4] {
            let out = parallel_map_adaptive(threads, 5000, |i| i as u64 + 1);
            assert_eq!(out, (1..=5000u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_with_reuses_scratch_per_worker() {
        let inits = AtomicUsize::new(0);
        let threads = 4usize;
        let n = 10_000usize;
        let out = parallel_map_with(
            threads,
            n,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |scratch, i| {
                scratch.clear();
                scratch.extend(0..i % 5);
                scratch.len() + i
            },
        );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i % 5 + i);
        }
        // At most one scratch per participant, never one per index.
        assert!(inits.load(Ordering::Relaxed) <= effective_threads(threads, n));
    }

    #[test]
    fn for_each_mut_hands_out_each_item_once() {
        let inits = AtomicUsize::new(0);
        for threads in [1usize, 2, 4] {
            let mut data = vec![0usize; 1000];
            let mut rows: Vec<&mut [usize]> = data.chunks_mut(7).collect();
            parallel_for_each_mut_with(
                threads,
                &mut rows,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i, row| row.iter_mut().for_each(|x| *x += i + 1),
            );
            let want: Vec<usize> = (0..1000).map(|j| j / 7 + 1).collect();
            assert_eq!(data, want, "threads={threads}");
        }
        // At most one scratch per participant and run, never one per item.
        assert!(inits.load(Ordering::Relaxed) <= 1 + 2 + 4);
    }

    #[test]
    fn reduce_sums_correctly() {
        for threads in [1usize, 2, 4] {
            let accs =
                parallel_reduce_dynamic(threads, 1000, 8, || 0u64, |acc, i| *acc += i as u64);
            let total: u64 = accs.into_iter().sum();
            assert_eq!(total, 999 * 1000 / 2);
        }
    }

    #[test]
    fn reduce_adaptive_sums_correctly() {
        for threads in [1usize, 2, 4] {
            let accs = parallel_reduce_adaptive(threads, 12345, || 0u64, |acc, i| *acc += i as u64);
            let total: u64 = accs.into_iter().sum();
            assert_eq!(total, 12344 * 12345 / 2);
        }
    }

    #[test]
    fn chunks_are_claimed_incrementally() {
        let claims = AtomicU64::new(0);
        parallel_for_dynamic(4, 1024, 4, |range| {
            claims.fetch_add(1, Ordering::Relaxed);
            for i in range {
                std::hint::black_box(i);
            }
        });
        assert_eq!(claims.load(Ordering::Relaxed), 256);
    }

    #[test]
    fn single_thread_runs_inline() {
        // With 1 thread the body must run on the calling thread (no spawn).
        let caller = std::thread::current().id();
        parallel_for_dynamic(1, 10, 2, |_| {
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    /// Thread ids touched by one pool job on `pool`, excluding the caller.
    fn worker_ids_of_run(pool: &WorkerPool, threads: usize) -> HashSet<ThreadId> {
        let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        pool.run(threads, 100_000, ChunkPolicy::Fixed(8), |_, range| {
            ids.lock().unwrap().insert(std::thread::current().id());
            for i in range {
                std::hint::black_box(i);
            }
        });
        let caller = std::thread::current().id();
        let mut ids = ids.into_inner().unwrap();
        ids.remove(&caller);
        ids
    }

    #[test]
    fn pool_reuses_threads_across_calls() {
        let pool = WorkerPool::new();
        // Long-lived team: every call draws from the same 3 OS threads and
        // the pool never re-spawns for an unchanged thread count. (Any one
        // call may touch fewer than 3 workers if a worker wakes late, so
        // the invariant is on the union across calls, not per call.)
        let mut seen = HashSet::new();
        for _ in 0..6 {
            seen.extend(worker_ids_of_run(&pool, 4));
            assert_eq!(pool.spawned_workers(), 3);
        }
        assert!(
            seen.len() <= 3,
            "more distinct worker threads than spawned: {}",
            seen.len()
        );
    }

    #[test]
    fn pool_grows_on_demand_only() {
        let pool = WorkerPool::new();
        pool.run(2, 1000, ChunkPolicy::Adaptive, |_, _| {});
        assert_eq!(pool.spawned_workers(), 1);
        pool.run(5, 1000, ChunkPolicy::Adaptive, |_, _| {});
        assert_eq!(pool.spawned_workers(), 4);
        pool.run(3, 1000, ChunkPolicy::Adaptive, |_, _| {});
        assert_eq!(pool.spawned_workers(), 4);
    }

    #[test]
    fn panic_in_worker_propagates_and_pool_survives() {
        let pool = WorkerPool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, 1000, ChunkPolicy::Fixed(1), |_, range| {
                if range.contains(&500) {
                    panic!("boom at 500");
                }
            });
        }));
        let payload = result.expect_err("panic must reach the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("boom at 500"), "unexpected payload: {msg:?}");

        // The team must still be dispatchable after a panicked job.
        let hits = AtomicUsize::new(0);
        pool.run(4, 1000, ChunkPolicy::Fixed(8), |_, range| {
            hits.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn try_run_converts_panic_to_typed_error_and_pool_survives() {
        let pool = WorkerPool::new();
        let err = pool
            .try_run(4, 1000, ChunkPolicy::Fixed(1), |_, range| {
                if range.contains(&500) {
                    panic!("typed boom at {}", range.start);
                }
            })
            .expect_err("panicking job must surface as PoolError");
        assert!(
            err.message().contains("typed boom"),
            "unexpected message: {}",
            err.message()
        );
        assert!(err.to_string().contains("worker job panicked"));

        // The pool must stay reusable through the typed path too.
        let hits = AtomicUsize::new(0);
        pool.try_run(4, 1000, ChunkPolicy::Fixed(8), |_, range| {
            hits.fetch_add(range.len(), Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn panic_in_submitter_slot_propagates() {
        // Slot 0 is the calling thread; a panic there must also be captured
        // after the workers drain, then resumed.
        let pool = WorkerPool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, 10, ChunkPolicy::Fixed(1), |slot, _| {
                if slot == 0 {
                    panic!("submitter boom");
                }
            });
        }));
        assert!(result.is_err());
        pool.run(2, 10, ChunkPolicy::Fixed(1), |_, _| {});
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        let hits = AtomicUsize::new(0);
        parallel_for_dynamic(2, 8, 1, |outer| {
            for _ in outer {
                parallel_for_adaptive(2, 4, |inner| {
                    hits.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn slots_are_unique_and_dense() {
        let pool = WorkerPool::new();
        let seen: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
        pool.run(4, 100_000, ChunkPolicy::Fixed(4), |slot, range| {
            seen.lock().unwrap().insert(slot);
            for i in range {
                std::hint::black_box(i);
            }
        });
        let seen = seen.into_inner().unwrap();
        // Every observed slot is in 0..threads and slot 0 (the submitter)
        // always participates.
        assert!(seen.contains(&0));
        assert!(seen.iter().all(|&s| s < 4), "slots: {seen:?}");
    }

    #[test]
    fn utilization_counts_jobs_slots_and_chunks() {
        let pool = WorkerPool::new();
        let before = pool.utilization();
        assert_eq!(before.jobs, 0);
        assert!(before.slots.is_empty());

        pool.run(4, 1024, ChunkPolicy::Fixed(4), |_, range| {
            for i in range {
                std::hint::black_box(i);
            }
        });
        pool.run(4, 1024, ChunkPolicy::Fixed(4), |_, range| {
            for i in range {
                std::hint::black_box(i);
            }
        });

        let u = pool.utilization().delta_since(&before);
        assert_eq!(u.jobs, 2);
        // 1024 / 4 = 256 chunks per job, split among whichever slots ran.
        let total_chunks: u64 = u.slots.iter().map(|s| s.chunks).sum();
        assert_eq!(total_chunks, 512);
        // Slot 0 (the submitter) participates in every dispatched job.
        let slot0 = u.slots.iter().find(|s| s.slot == 0).expect("slot 0");
        assert_eq!(slot0.jobs, 2);
        // Participation jobs sum to participants × jobs.
        let total_jobs: u64 = u.slots.iter().map(|s| s.jobs).sum();
        assert_eq!(total_jobs, 8);
        assert_eq!(u.worker_parked_ns.len(), pool.spawned_workers());
    }

    #[test]
    fn utilization_ignores_sequential_fallbacks() {
        let pool = WorkerPool::new();
        pool.run(1, 1000, ChunkPolicy::Adaptive, |_, _| {});
        pool.run(8, 1, ChunkPolicy::Adaptive, |_, _| {});
        let u = pool.utilization();
        assert_eq!(u.jobs, 0, "inline runs are not dispatches");
    }

    proptest! {
        #[test]
        fn adaptive_partitions_any_space(threads in 1usize..9, n in 0usize..3000) {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            parallel_for_adaptive(threads, n, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }

        #[test]
        fn map_agrees_with_sequential(threads in 1usize..9, n in 0usize..2000) {
            let out = parallel_map_adaptive(threads, n, |i| 3 * i + 1);
            prop_assert_eq!(out, (0..n).map(|i| 3 * i + 1).collect::<Vec<_>>());
        }
    }
}
