//! Step 3 — Merging weakly-related super-nodes (Fig. 4 lines 44–61).
//!
//! The candidate set T holds every unprocessed-border, unprocessed-core and
//! processed-core vertex, sorted by degree (hubs first: they connect the
//! most super-nodes, so examining them early maximizes later pruning).
//! Each β-block: phase A prunes vertices whose entire clustered neighborhood
//! already shares their cluster and core-checks the rest; phase B evaluates
//! σ across core–core edges that still straddle clusters and unions on
//! success (Lemma 3).

use anyscan_graph::VertexId;
use anyscan_parallel::{parallel_map_adaptive, parallel_reduce_adaptive};
use anyscan_telemetry::{Counter, Recorder};

use crate::driver::AnyScan;
use crate::state::VertexState;

impl AnyScan<'_> {
    pub(crate) fn init_step3(&mut self) {
        let n = self.kernel.graph().num_vertices() as VertexId;
        let g = self.kernel.graph();
        let mut t: Vec<VertexId> = (0..n)
            .filter(|&v| {
                matches!(
                    self.states.get(v),
                    VertexState::UnprocessedBorder
                        | VertexState::UnprocessedCore
                        | VertexState::ProcessedCore
                )
            })
            .collect();
        if self.config.sort_step3 {
            t.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        }
        self.work = t;
        self.work_cursor = 0;
        self.set_phase_initialized();
    }

    /// Runs one β-block of weak merging; returns the block length.
    pub(crate) fn step3_block(&mut self) -> usize {
        let start = self.work_cursor;
        let end = (start + self.config.beta).min(self.work.len());
        self.work_cursor = end;
        if start >= end {
            return 0;
        }
        let block: Vec<VertexId> = self.work[start..end].to_vec();
        let threads = self.config.threads;
        let this: &AnyScan<'_> = &*self;
        let g = this.kernel.graph();
        let dsu = &this.dsu;

        // Phase A: prune + core check.
        let block_ref = &block;
        let merges: Vec<bool> = parallel_map_adaptive(threads, block.len(), |i| {
            let p = block_ref[i];
            let Some(my_root) = this.vertex_root(p) else {
                // Every T member belongs to ≥ 1 super-node (invariant).
                debug_assert!(false, "step-3 candidate {p} has no super-node");
                return false;
            };
            // Prune: all clustered neighbors already share p's cluster, so
            // no Lemma-3 merge through p is possible (paper line 40; noise
            // neighbors cannot justify a merge and are ignored).
            let mut straddles = false;
            for &q in g.neighbor_ids(p) {
                if q == p {
                    continue;
                }
                if let Some(r) = this.vertex_root(q) {
                    if r != my_root {
                        straddles = true;
                        break;
                    }
                }
            }
            if !straddles {
                this.telemetry.add(Counter::Step3Pruned, 1);
                return false;
            }
            this.decide_core(p)
        });

        // Phase B: σ across straddling core–core edges; union on ≥ ε,
        // counting the merges.
        let merged: u64 = parallel_reduce_adaptive(
            threads,
            block.len(),
            || 0,
            |merged, i| {
                if !merges[i] {
                    return;
                }
                let p = block_ref[i];
                let sp = this.sn.first_of(p).expect("core has a super-node");
                for &q in g.neighbor_ids(p) {
                    if q == p || !this.states.get(q).is_known_core() {
                        continue;
                    }
                    let sq = this.sn.first_of(q).expect("core has a super-node");
                    let (rp, rq) = (dsu.find(sp), dsu.find(sq));
                    if rp == rq {
                        continue;
                    }
                    if this.kernel.is_eps_neighbor(p, q) && dsu.union(rp, rq) {
                        *merged += 1;
                    }
                }
            },
        )
        .into_iter()
        .sum();
        self.unions.step3 += merged;
        block.len()
    }
}
