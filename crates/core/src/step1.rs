//! Step 1 — Summarization (paper §III-A/B, Fig. 4 lines 3–24).
//!
//! Each block iteration draws α untouched vertices, range-queries them in
//! parallel (phase A), marks neighbor states and `nei` counters in parallel
//! with one atomic per update (phase B), and creates super-nodes plus their
//! strong unions sequentially (phase C) — the exact three-way split the
//! paper uses to avoid synchronization.

use std::sync::atomic::Ordering;

use anyscan_graph::VertexId;
use anyscan_parallel::{parallel_for_adaptive, parallel_map_with};
use anyscan_scan_common::BatchScratch;
use anyscan_telemetry::{Counter, Recorder};

use crate::driver::AnyScan;
use crate::state::VertexState;

impl AnyScan<'_> {
    /// Runs one α-block of summarization; returns the number of vertices
    /// examined (0 once the untouched pool is exhausted).
    pub(crate) fn step1_block(&mut self) -> usize {
        let g = self.kernel.graph();
        let mu = self.config.params.mu;
        let threads = self.config.threads;

        // Draw α untouched vertices. The |Γ(p)| < μ shortcut marks
        // unprocessed-noise without a range query (Fig. 3's
        // untouched → unprocessed-noise edge) and does not consume a slot.
        let mut block: Vec<VertexId> = Vec::with_capacity(self.config.alpha);
        let mut shortcut_noise = 0u64;
        while block.len() < self.config.alpha && self.draw_cursor < self.draw_order.len() {
            let v = self.draw_order[self.draw_cursor];
            self.draw_cursor += 1;
            if self.states.get(v) != VertexState::Untouched {
                continue;
            }
            if g.degree(v) < mu {
                self.states.transition(v, VertexState::UnprocessedNoise);
                shortcut_noise += 1;
                continue;
            }
            block.push(v);
        }
        if shortcut_noise > 0 {
            self.telemetry
                .add(Counter::DegreeShortcutNoise, shortcut_noise);
        }
        if block.is_empty() {
            return 0;
        }

        // Phase A: independent range queries; each vertex marks only itself.
        // Each worker reuses one scratch buffer for the range query and the
        // retained copy is allocated at exact size (no growth reallocs). The
        // source row is stamped once into a per-worker dense scratch and
        // reused across all of the vertex's candidate pairs (source-major
        // evaluation).
        let kernel = &self.kernel;
        let states = &self.states;
        let block_ref = &block;
        let n = g.num_vertices();
        let buffers: Vec<Vec<VertexId>> = parallel_map_with(
            threads,
            block.len(),
            || (Vec::new(), BatchScratch::new(n)),
            |(scratch, dense), i| {
                let p = block_ref[i];
                kernel.eps_neighborhood_batched(p, dense, scratch);
                let next = if scratch.len() >= mu {
                    VertexState::ProcessedCore
                } else {
                    VertexState::ProcessedNoise
                };
                states.transition(p, next);
                scratch.as_slice().to_vec()
            },
        );

        // Phase B: neighbor state marking + atomic nei counting.
        let nei = &self.nei;
        let buffers_ref = &buffers;
        parallel_for_adaptive(threads, block.len(), |range| {
            for i in range {
                let p = block_ref[i];
                let p_core = states.get(p) == VertexState::ProcessedCore;
                for &q in &buffers_ref[i] {
                    if q == p {
                        continue;
                    }
                    let new_nei = nei[q as usize].fetch_add(1, Ordering::Relaxed) + 1;
                    if !p_core {
                        continue;
                    }
                    match states.get(q) {
                        VertexState::Untouched => {
                            states.transition(q, VertexState::UnprocessedBorder);
                        }
                        VertexState::UnprocessedNoise | VertexState::ProcessedNoise => {
                            states.transition(q, VertexState::ProcessedBorder);
                        }
                        _ => {}
                    }
                    // nei ≥ μ certifies a core without any σ evaluation
                    // (Fig. 3: unprocessed-border → unprocessed-core).
                    if new_nei as usize >= mu && states.get(q) == VertexState::UnprocessedBorder {
                        states.transition(q, VertexState::UnprocessedCore);
                    }
                }
            }
        });

        // Phase C (sequential): super-node creation, then the Lemma-2 unions
        // through shared *known-core* members (Fig. 2 lines 12–14).
        let first_new = self.sn.len() as u32;
        for (&p, buf) in block.iter().zip(buffers) {
            match self.states.get(p) {
                VertexState::ProcessedCore => {
                    self.sn.insert(p, buf);
                }
                VertexState::ProcessedNoise => self.noise_list.push((p, buf)),
                // A same-block core adopted this examined non-core as a
                // border; its neighborhood buffer is no longer needed.
                VertexState::ProcessedBorder => {}
                other => unreachable!("examined vertex {p} in state {other:?}"),
            }
        }
        self.telemetry.add(
            Counter::SupernodesCreated,
            self.sn.len() as u64 - first_new as u64,
        );
        let mut merged = 0;
        for snid in first_new..self.sn.len() as u32 {
            for &q in &self.sn.node(snid).members {
                if !self.states.get(q).is_known_core() {
                    continue;
                }
                for &other in self.sn.of(q) {
                    if other != snid && self.dsu.union(snid, other) {
                        merged += 1;
                    }
                }
            }
        }
        self.unions.step1 += merged;
        block.len()
    }
}
