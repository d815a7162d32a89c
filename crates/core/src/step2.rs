//! Step 2 — Merging strongly-related super-nodes (Fig. 4 lines 26–42).
//!
//! The candidate set S holds every unprocessed-border vertex belonging to at
//! least two super-nodes, processed in β-blocks sorted by super-node count
//! (most-connective first). Each block core-checks its vertices in parallel
//! (phase A) and merges the super-nodes of confirmed cores under Lemma 2
//! (phase B, shared DSU).

use anyscan_graph::VertexId;
use anyscan_parallel::{parallel_for_adaptive, parallel_map_adaptive};
use anyscan_telemetry::{Counter, Recorder};

use crate::driver::AnyScan;
use crate::state::VertexState;

impl AnyScan<'_> {
    pub(crate) fn init_step2(&mut self) {
        let n = self.kernel.graph().num_vertices() as VertexId;
        let mut s: Vec<VertexId> = (0..n)
            .filter(|&v| {
                self.states.get(v) == VertexState::UnprocessedBorder && self.sn.of(v).len() >= 2
            })
            .collect();
        if self.config.skip_step2 {
            s.clear(); // ablation: Step 3 subsumes these merges
        } else if self.config.sort_step2 {
            s.sort_by_key(|&v| std::cmp::Reverse(self.sn.of(v).len()));
        }
        self.work = s;
        self.work_cursor = 0;
        self.set_phase_initialized();
    }

    /// Runs one β-block of strong merging; returns the block length.
    pub(crate) fn step2_block(&mut self) -> usize {
        let start = self.work_cursor;
        let end = (start + self.config.beta).min(self.work.len());
        self.work_cursor = end;
        if start >= end {
            return 0;
        }
        let block: Vec<VertexId> = self.work[start..end].to_vec();
        let threads = self.config.threads;
        let this: &AnyScan<'_> = &*self;
        let dsu = this.dsu_shared.as_ref().expect("shared DSU after step 1");

        // Phase A: prune + early-exit core check; each vertex touches only
        // its own state.
        let block_ref = &block;
        let merges: Vec<bool> = parallel_map_adaptive(threads, block.len(), |i| {
            let p = block_ref[i];
            let sns = this.sn.of(p);
            // Prune: all containing super-nodes already share a cluster —
            // examining p cannot change the result (paper line 32).
            let root0 = dsu.find(sns[0]);
            if sns[1..].iter().all(|&s| dsu.find(s) == root0) {
                this.telemetry.add(Counter::Step2Pruned, 1);
                return false;
            }
            this.decide_core(p)
        });

        // Phase B: Lemma-2 unions for confirmed cores.
        parallel_for_adaptive(threads, block.len(), |range| {
            for i in range {
                if !merges[i] {
                    continue;
                }
                let sns = this.sn.of(block_ref[i]);
                for w in sns.windows(2) {
                    if dsu.find(w[0]) != dsu.find(w[1]) {
                        dsu.union(w[0], w[1]);
                    }
                }
            }
        });
        block.len()
    }

    /// Early-exit core check of an unprocessed-border vertex, exploiting
    /// everything already known:
    /// * `nei(p) ≥ μ` certifies a core with zero similarity work;
    /// * membership in `sn(c)` certifies σ(p, c) ≥ ε, so the representatives
    ///   of p's super-nodes seed the count and are skipped by the scan.
    ///
    /// Publishes the outcome on the state table and returns it. Safe to call
    /// concurrently for the same vertex (verdicts agree; transitions CAS).
    pub(crate) fn decide_core(&self, p: VertexId) -> bool {
        let state = self.states.get(p);
        if state.is_known_core() {
            return true;
        }
        if state.is_known_non_core() {
            return false;
        }
        self.telemetry.add(Counter::CoreChecks, 1);
        let mu = self.config.params.mu;
        let nei = self.nei[p as usize].load(std::sync::atomic::Ordering::Relaxed) as usize;
        let is_core = if nei >= mu {
            true
        } else {
            let mut reps: Vec<VertexId> =
                self.sn.of(p).iter().map(|&s| self.sn.node(s).rep).collect();
            reps.sort_unstable();
            reps.dedup();
            self.kernel
                .core_check_with_skip(p, 1 + reps.len(), |q| reps.binary_search(&q).is_ok())
        };
        self.states.transition(
            p,
            if is_core {
                VertexState::UnprocessedCore
            } else {
                VertexState::ProcessedBorder
            },
        );
        is_core
    }
}
