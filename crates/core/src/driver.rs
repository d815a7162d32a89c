//! The anytime driver: phases, block iterations, suspension points.

use std::sync::atomic::AtomicU32;
use std::time::{Duration, Instant};

use anyscan_dsu::AtomicDsu;
use anyscan_graph::{CsrGraph, VertexId};
use anyscan_parallel::WorkerPool;
use anyscan_scan_common::{Clustering, Kernel, ScanParams, SimStats};
use anyscan_telemetry::{BlockSnapshot, Counter, PoolUtilization, Recorder, Telemetry};

use crate::checkpoint::Checkpoint;
use crate::config::AnyScanConfig;
use crate::control::{Completion, PartialResult, RunControl};
use crate::error::{AnyScanError, ErrorKind};
use crate::snapshot::build_snapshot;
use crate::state::StateTable;
use crate::supernode::SuperNodes;

/// The phase an anySCAN run is currently in. Each [`AnyScan::step`] performs
/// one block iteration of the current phase; phases advance automatically
/// when their work list drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Step 1: summarization of α-blocks of untouched vertices.
    Summarize,
    /// Step 2: merging strongly-related super-nodes (β-blocks of S).
    MergeStrong,
    /// Step 3: merging weakly-related super-nodes (β-blocks of T).
    MergeWeak,
    /// Step 4: determining border vertices (β-blocks of the noise list).
    Borders,
    /// Optional finishing pass deciding the core/border role of vertices the
    /// pruning never had to examine (cluster labels are already final).
    ResolveRoles,
    /// Finished; [`AnyScan::result`] is exact.
    Done,
}

impl Phase {
    /// Stable lowercase label used for telemetry spans and snapshot phases
    /// (`anyscan_telemetry::validate::KNOWN_PHASES`).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Summarize => "summarize",
            Phase::MergeStrong => "merge_strong",
            Phase::MergeWeak => "merge_weak",
            Phase::Borders => "borders",
            Phase::ResolveRoles => "resolve_roles",
            Phase::Done => "done",
        }
    }
}

/// Timing record of one block iteration — the x-axis of Figs. 5 and 10.
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    pub phase: Phase,
    /// Global iteration index (0-based).
    pub index: usize,
    /// Vertices handled in this block.
    pub block_len: usize,
    /// Wall time of this iteration.
    pub elapsed: Duration,
    /// Cumulative wall time since construction.
    pub cumulative: Duration,
}

/// Successful `Union` operations per step (Fig. 12): the paper highlights
/// that most unions happen in the sequential part of Step 1, leaving few
/// inside the parallel critical sections of Steps 2–3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnionBreakdown {
    pub step1: u64,
    pub step2: u64,
    pub step3: u64,
}

impl UnionBreakdown {
    /// Total successful unions.
    pub fn total(&self) -> u64 {
        self.step1 + self.step2 + self.step3
    }
}

/// An in-progress (or finished) anySCAN run.
///
/// ```
/// use anyscan::{AnyScan, AnyScanConfig, Phase};
/// use anyscan_graph::GraphBuilder;
/// use anyscan_scan_common::ScanParams;
///
/// let g = GraphBuilder::from_unweighted_edges(
///     6,
///     vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
/// ).unwrap();
/// let mut algo = AnyScan::new(&g, AnyScanConfig::new(ScanParams::new(0.6, 3)));
/// // Drive it interactively: one block at a time, snapshotting in between.
/// while algo.phase() != Phase::Done {
///     let _progress = algo.step();
///     let _approx = algo.snapshot(); // best-so-far clustering
/// }
/// assert_eq!(algo.result().num_clusters(), 2);
/// ```
pub struct AnyScan<'g> {
    pub(crate) config: AnyScanConfig,
    pub(crate) kernel: Kernel<'g>,
    pub(crate) states: StateTable,
    /// `nei(q)` of the paper: confirmed ε-neighbors including q itself.
    pub(crate) nei: Vec<AtomicU32>,
    pub(crate) sn: SuperNodes,
    /// Which super-nodes share a cluster, for the whole run. Only Step 1
    /// creates super-nodes, one per examined core, so ids stay below |V|.
    pub(crate) dsu: AtomicDsu,
    /// Processed-noise vertices and their stored ε-neighborhoods (Step 1's
    /// list L, consumed by Step 4).
    pub(crate) noise_list: Vec<(VertexId, Vec<VertexId>)>,
    /// Shuffled vertex draw order for Step 1 and the cursor into it.
    pub(crate) draw_order: Vec<VertexId>,
    pub(crate) draw_cursor: usize,
    /// Work list of the current phase (S, T, Step-4 items, role backlog).
    pub(crate) work: Vec<VertexId>,
    /// Step 4 only: per-work-item index into `noise_list` (None = the vertex
    /// is unprocessed-noise and has no stored ε-neighborhood).
    pub(crate) work_aux: Vec<Option<usize>>,
    pub(crate) work_cursor: usize,
    pub(crate) phase: Phase,
    pub(crate) phase_initialized: bool,
    iterations: Vec<IterationRecord>,
    /// Block iterations executed before this driver instance was created —
    /// nonzero only on a checkpoint-resumed run, so iteration indices (and
    /// telemetry snapshot indices) stay globally monotone across resumes.
    pub(crate) iteration_base: usize,
    pub(crate) cumulative: Duration,
    /// Successful unions so far, tallied by the step that made them.
    pub(crate) unions: UnionBreakdown,
    /// End-of-run telemetry aggregates published already (they are additive
    /// counter bumps, so they must fire at most once per driver instance).
    telemetry_published: bool,
    /// Telemetry handle (disabled by default; see
    /// [`AnyScan::with_telemetry`]). The hot-path hooks in steps 1–4 go
    /// through this — one `Option` branch each when disabled.
    pub(crate) telemetry: Telemetry,
    /// Global-pool utilization at the moment telemetry was attached; the
    /// published pool section is the delta from here, scoping the
    /// process-wide counters to this run.
    pool_base: PoolUtilization,
}

impl<'g> AnyScan<'g> {
    /// Prepares a run over `g`; no similarity work happens yet.
    pub fn new(g: &'g CsrGraph, config: AnyScanConfig) -> Self {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let n = g.num_vertices();
        // MinHash signatures are seeded from the run seed and built on the
        // worker pool; a resumed run reconstructs the identical sketches
        // from the checkpointed config.
        let kernel = Kernel::with_optimizations(g, config.params, config.optimizations)
            .with_edge_cache(config.edge_cache)
            .with_hub_bitmaps_params(config.hub_max_hubs, config.hub_min_degree)
            .with_sketch_params(
                config.sketch,
                config.sketch_rows,
                config.sketch_bits,
                config.seed,
                config.threads,
            );
        let mut draw_order: Vec<VertexId> = (0..n as VertexId).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        draw_order.shuffle(&mut rng);
        AnyScan {
            config,
            kernel,
            states: StateTable::new(n),
            nei: (0..n).map(|_| AtomicU32::new(1)).collect(),
            sn: SuperNodes::new(n),
            dsu: AtomicDsu::new(n),
            noise_list: Vec::new(),
            draw_order,
            draw_cursor: 0,
            work: Vec::new(),
            work_aux: Vec::new(),
            work_cursor: 0,
            phase: Phase::Summarize,
            phase_initialized: false,
            iterations: Vec::new(),
            iteration_base: 0,
            cumulative: Duration::ZERO,
            unions: UnionBreakdown::default(),
            telemetry_published: false,
            telemetry: Telemetry::disabled(),
            pool_base: PoolUtilization::default(),
        }
    }

    /// Attaches a telemetry handle: spans per phase, one
    /// [`BlockSnapshot`] per block iteration, kernel/pruning counters and
    /// the pool-utilization delta of this run. Keep a clone of the handle
    /// to retrieve the [`anyscan_telemetry::Report`] afterwards.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        if telemetry.is_enabled() {
            self.pool_base = WorkerPool::global().utilization();
        }
        self.telemetry = telemetry;
        self
    }

    /// The attached telemetry handle (disabled unless
    /// [`AnyScan::with_telemetry`] was used).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The graph being clustered.
    pub fn graph(&self) -> &'g CsrGraph {
        self.kernel.graph()
    }

    /// The run's configuration.
    pub fn config(&self) -> &AnyScanConfig {
        &self.config
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Similarity-evaluation counters so far (Fig. 7's left panel).
    pub fn stats(&self) -> SimStats {
        self.kernel.stats()
    }

    /// `Union` counts per step so far (Fig. 12).
    pub fn union_breakdown(&self) -> UnionBreakdown {
        self.unions
    }

    /// Timing records of every block iteration executed so far.
    pub fn iterations(&self) -> &[IterationRecord] {
        &self.iterations
    }

    /// Cumulative wall time spent inside [`AnyScan::step`].
    pub fn cumulative_time(&self) -> Duration {
        self.cumulative
    }

    /// Number of super-nodes created so far.
    pub fn num_supernodes(&self) -> usize {
        self.sn.len()
    }

    /// Executes one block iteration of the current phase and returns its
    /// timing record. Calling after `Done` is a cheap no-op record.
    pub fn step(&mut self) -> IterationRecord {
        let entry_phase = self.phase;
        let start = Instant::now();
        let block_len = match self.phase {
            Phase::Summarize => {
                let len = self.step1_block();
                if self.draw_cursor >= self.draw_order.len() && len == 0 {
                    self.advance(Phase::MergeStrong);
                }
                len
            }
            Phase::MergeStrong => {
                if !self.phase_initialized {
                    self.init_step2();
                }
                let len = self.step2_block();
                if self.work_cursor >= self.work.len() {
                    self.advance(Phase::MergeWeak);
                }
                len
            }
            Phase::MergeWeak => {
                if !self.phase_initialized {
                    self.init_step3();
                }
                let len = self.step3_block();
                if self.work_cursor >= self.work.len() {
                    self.advance(Phase::Borders);
                }
                len
            }
            Phase::Borders => {
                if !self.phase_initialized {
                    self.init_step4();
                }
                let len = self.step4_block();
                if self.work_cursor >= self.work.len() {
                    self.advance(Phase::ResolveRoles);
                }
                len
            }
            Phase::ResolveRoles => {
                if !self.phase_initialized {
                    self.init_resolve_roles();
                }
                let len = self.resolve_roles_block();
                if self.work_cursor >= self.work.len() {
                    self.advance(Phase::Done);
                }
                len
            }
            Phase::Done => 0,
        };
        let elapsed = start.elapsed();
        self.cumulative += elapsed;
        let record = IterationRecord {
            phase: self.phase,
            index: self.iteration_base + self.iterations.len(),
            block_len,
            elapsed,
            cumulative: self.cumulative,
        };
        if self.phase != Phase::Done || block_len > 0 {
            self.iterations.push(record);
        }
        if self.telemetry.is_enabled() && entry_phase != Phase::Done {
            let elapsed_ns = elapsed.as_nanos() as u64;
            self.telemetry.record_span(entry_phase.label(), elapsed_ns);
            self.telemetry.record_block(BlockSnapshot {
                index: record.index as u64,
                phase: entry_phase.label(),
                block_len: block_len as u64,
                elapsed_ns,
                cumulative_ns: self.cumulative.as_nanos() as u64,
                states: self.states.histogram(),
                supernodes: self.sn.len() as u64,
                components: self.component_count(),
                unions: self.union_breakdown().total(),
            });
            if self.phase == Phase::Done {
                self.publish_final_telemetry();
            }
        }
        record
    }

    /// Distinct DSU components among the super-nodes created so far (the
    /// current cluster count, before border attachment).
    fn component_count(&self) -> u64 {
        let mut roots: Vec<u32> = (0..self.sn.len() as u32).map(|s| self.sn_root(s)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len() as u64
    }

    /// Publishes the end-of-run aggregates exactly once, on the transition
    /// to [`Phase::Done`] (or when a controlled run stops early): kernel
    /// counters (absorbed from [`Kernel::stats`] at report time instead of
    /// double-counting the hot path), the per-step union totals and this
    /// run's pool-utilization delta.
    fn publish_final_telemetry(&mut self) {
        if self.telemetry_published {
            return;
        }
        self.telemetry_published = true;
        let t = &self.telemetry;
        let s = self.kernel.stats();
        t.add(Counter::SigmaEvals, s.sigma_evals);
        t.add(Counter::Lemma5Filtered, s.lemma5_filtered);
        t.add(Counter::SharedEvals, s.shared_evals);
        t.add(Counter::EdgeCacheHits, s.cache_hits);
        t.add(Counter::EdgeCacheMisses, s.cache_misses);
        t.add(Counter::EarlyAccepts, s.early_accepts);
        t.add(Counter::EarlyRejects, s.early_rejects);
        t.add(Counter::SigmaPathMerge, s.path_merge);
        t.add(Counter::SigmaPathProbe, s.path_probe);
        t.add(Counter::SigmaPathBitmap, s.path_bitmap);
        t.add(Counter::SigmaPathBatched, s.path_batched);
        t.add(Counter::SigmaPathSketch, s.path_sketch);
        let u = self.union_breakdown();
        t.add(Counter::UnionsStep1, u.step1);
        t.add(Counter::UnionsStep2, u.step2);
        t.add(Counter::UnionsStep3, u.step3);
        t.set_pool(
            WorkerPool::global()
                .utilization()
                .delta_since(&self.pool_base),
        );
    }

    /// Runs to completion and returns the exact result.
    pub fn run(&mut self) -> Clustering {
        while self.phase != Phase::Done {
            self.step();
        }
        self.result()
    }

    /// Block iterations executed so far, including any executed before a
    /// checkpoint this run was resumed from.
    pub fn blocks_executed(&self) -> u64 {
        (self.iteration_base + self.iterations.len()) as u64
    }

    /// Like [`step`](Self::step), but converts a panic inside the block —
    /// a poisoned worker-pool job, an injected `driver::block` fault — into
    /// a typed [`AnyScanError`] instead of unwinding through the caller.
    /// The worker pool survives a captured panic and stays reusable; the
    /// run itself must be abandoned (its block-local invariants may be torn
    /// mid-flight), typically by resuming from the last checkpoint.
    pub fn try_step(&mut self) -> Result<IterationRecord, AnyScanError> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        catch_unwind(AssertUnwindSafe(|| {
            anyscan_faults::fire_panic("driver::block");
            self.step()
        }))
        .map_err(|payload| {
            AnyScanError::new(
                ErrorKind::Pool,
                format!(
                    "block iteration panicked: {}",
                    anyscan_parallel::panic_message(payload.as_ref())
                ),
            )
        })
    }

    /// Runs until completion or until `ctl` trips, returning the Lemma-1
    /// best-so-far snapshot either way. Panics inside a block surface as
    /// typed errors ([`try_step`](Self::try_step)).
    pub fn run_controlled(&mut self, ctl: &RunControl) -> Result<PartialResult, AnyScanError> {
        self.run_controlled_with(ctl, 0, |_| Ok(()))
    }

    /// [`run_controlled`](Self::run_controlled) with a periodic checkpoint
    /// hook: `on_checkpoint` runs after every `checkpoint_every` blocks
    /// (0 disables it) while the run is still in flight.
    pub fn run_controlled_with<F>(
        &mut self,
        ctl: &RunControl,
        checkpoint_every: u64,
        mut on_checkpoint: F,
    ) -> Result<PartialResult, AnyScanError>
    where
        F: FnMut(&AnyScan<'g>) -> Result<(), AnyScanError>,
    {
        while self.phase != Phase::Done {
            if let Some(reason) = ctl.check(self.blocks_executed()) {
                self.telemetry.add(Counter::CancelTrips, 1);
                self.publish_final_telemetry_if_enabled();
                return Ok(self.partial_with(reason));
            }
            self.try_step()?;
            if checkpoint_every > 0
                && self.phase != Phase::Done
                && self.blocks_executed().is_multiple_of(checkpoint_every)
            {
                on_checkpoint(self)?;
                self.telemetry.add(Counter::CheckpointsWritten, 1);
            }
        }
        Ok(self.partial_with(Completion::Complete))
    }

    fn publish_final_telemetry_if_enabled(&mut self) {
        if self.telemetry.is_enabled() {
            self.publish_final_telemetry();
        }
    }

    /// The anytime result at this instant: the exact clustering when the
    /// run is [`Phase::Done`], otherwise the Lemma-1 best-so-far snapshot
    /// marked [`Completion::Suspended`].
    pub fn partial(&self) -> PartialResult {
        self.partial_with(if self.phase == Phase::Done {
            Completion::Complete
        } else {
            Completion::Suspended
        })
    }

    fn partial_with(&self, completion: Completion) -> PartialResult {
        PartialResult {
            clustering: build_snapshot(self, self.phase == Phase::Done),
            completion,
            phase: self.phase,
            blocks: self.blocks_executed(),
        }
    }

    /// Captures the full anytime state as a [`Checkpoint`] (serializable,
    /// resumable). Cheap relative to a block: no similarity work.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(self)
    }

    /// Reconstructs a run from a checkpoint over the *same* graph (the
    /// stored fingerprint is verified). `threads` overrides the thread
    /// count — everything else, including (ε, μ) and the draw order's seed,
    /// comes from the checkpoint.
    pub fn resume(
        g: &'g CsrGraph,
        checkpoint: &Checkpoint,
        threads: usize,
    ) -> Result<AnyScan<'g>, AnyScanError> {
        checkpoint.restore(g, threads)
    }

    /// Best-so-far clustering at the current instant (Lemma 1: label every
    /// vertex by the cluster of its super-nodes). Cheap: no similarity work.
    pub fn snapshot(&self) -> Clustering {
        let _span = self.telemetry.span("snapshot");
        build_snapshot(self, false)
    }

    /// The final clustering, with hubs and outliers classified. Panics if
    /// the run has not finished; use [`AnyScan::snapshot`] mid-run.
    pub fn result(&self) -> Clustering {
        assert_eq!(
            self.phase,
            Phase::Done,
            "result() requires a finished run; use snapshot()"
        );
        build_snapshot(self, true)
    }

    fn advance(&mut self, next: Phase) {
        self.phase = next;
        self.phase_initialized = false;
        self.work.clear();
        self.work_aux.clear();
        self.work_cursor = 0;
    }

    pub(crate) fn set_phase_initialized(&mut self) {
        self.phase_initialized = true;
    }

    /// Current cluster root of a super-node id.
    #[inline]
    pub(crate) fn sn_root(&self, snid: u32) -> u32 {
        self.dsu.find(snid)
    }

    /// Cluster root of a vertex via its first super-node membership.
    #[inline]
    pub(crate) fn vertex_root(&self, v: VertexId) -> Option<u32> {
        self.sn.first_of(v).map(|snid| self.sn_root(snid))
    }
}

/// Convenience batch API: runs anySCAN to completion with the given
/// parameters and a block size auto-scaled to the graph (see
/// [`AnyScanConfig::with_auto_block_size`]), returning the clustering
/// together with its work counters — the shape the experiment harness
/// consumes.
pub fn anyscan(g: &CsrGraph, params: ScanParams) -> anyscan_output::AnyScanOutput {
    let config = AnyScanConfig::new(params).with_auto_block_size(g.num_vertices());
    let mut algo = AnyScan::new(g, config);
    let clustering = algo.run();
    anyscan_output::AnyScanOutput {
        clustering,
        stats: algo.stats(),
        unions: algo.union_breakdown(),
        supernodes: algo.num_supernodes(),
        iterations: algo.iterations().len(),
    }
}

pub mod anyscan_output {
    //! Output bundle of the batch convenience API.

    use anyscan_scan_common::{Clustering, SimStats};

    use super::UnionBreakdown;

    /// Result of a completed batch anySCAN run.
    #[derive(Debug, Clone)]
    pub struct AnyScanOutput {
        pub clustering: Clustering,
        pub stats: SimStats,
        pub unions: UnionBreakdown,
        pub supernodes: usize,
        pub iterations: usize,
    }
}
