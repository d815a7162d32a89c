//! The weighted structural-similarity kernel (Definition 1) and its
//! optimizations (Section III-D), instrumented for the work-efficiency
//! figures.

use std::sync::atomic::{AtomicU64, Ordering};

use anyscan_graph::{CsrGraph, VertexId, Weight};

use crate::atomic_cache::AtomicEdgeCache;
use crate::hubs::HubBitmaps;
use crate::params::ScanParams;
use crate::sketch::{NeighborhoodSketches, SketchMode};

/// Pairs whose smaller closed degree is at or below this run the branchless
/// full merge-join instead of the early-exit merge when the locality bundle
/// is enabled: short rows rarely profit from early exit, while the
/// data-dependent branches of the classic merge mispredict on them.
const BRANCHLESS_MERGE_CUTOFF: usize = 64;

/// Prefetch distance (in elements) inside the branchless merge-join.
#[cfg(target_arch = "x86_64")]
const MERGE_PREFETCH_AHEAD: usize = 16;

/// Hints the CPU to pull the start of a slice into cache. No-op off x86_64.
#[inline(always)]
fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < slice.len() {
        // SAFETY: the pointer is within (or one past) a live allocation;
        // prefetch has no memory effects and tolerates any address.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                slice.as_ptr().add(idx) as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

/// Snapshot of the kernel's evaluation counters.
///
/// `sigma_evals` is the quantity plotted on the left of Fig. 7 (the number of
/// structural-similarity calculations an algorithm performs); SCAN++'s
/// *similarity sharing* evaluations are tracked separately (`shared_evals`),
/// as the figure stacks them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Merge-join σ evaluations actually entered (full or early-stopped).
    pub sigma_evals: u64,
    /// Pairs dismissed by the O(1) Lemma-5 filter without a merge-join.
    pub lemma5_filtered: u64,
    /// SCAN++-style similarity-sharing evaluations (two-hop inference).
    pub shared_evals: u64,
    /// Decisions answered by the symmetric edge-decision cache without any
    /// similarity work (zero unless the kernel was built with the cache).
    pub cache_hits: u64,
    /// Adjacent-pair decisions that consulted the cache, found nothing, and
    /// had to be computed and stored (zero without the cache).
    pub cache_misses: u64,
    /// Merge-joins accepted before exhausting either neighbor list (the
    /// early-accept optimization fired; subset of `sigma_evals`).
    pub early_accepts: u64,
    /// Merge-joins rejected by the remaining-suffix bound (the early-reject
    /// optimization fired; subset of `sigma_evals`).
    pub early_rejects: u64,
    /// σ evaluations that ran a merge-join (classic or branchless). The
    /// kernel-side path counters (`path_merge`, `path_bitmap`,
    /// `path_batched`, `path_sketch`) partition `sigma_evals` exactly, so
    /// traces show where σ time goes.
    pub path_merge: u64,
    /// Always zero: no σ path hash-probes any more. The field stays because
    /// the benchmark harness reads it as one term of the path partition.
    pub path_probe: u64,
    /// σ evaluations answered through a hub bitmap (word-wise AND or
    /// bit-test + weight gather).
    pub path_bitmap: u64,
    /// σ evaluations answered by the batched Step-1 dense-row gather.
    pub path_batched: u64,
    /// σ decisions emitted directly from a MinHash sketch estimate
    /// ([`SketchMode::Approx`] only).
    pub path_sketch: u64,
}

impl SimStats {
    /// Total pairs decided by any means. `cache_misses`, `early_accepts`
    /// and `early_rejects` classify decisions already counted in the four
    /// terms below, so they are deliberately not summed here.
    pub fn total_decided(&self) -> u64 {
        self.sigma_evals + self.lemma5_filtered + self.shared_evals + self.cache_hits
    }
}

/// Outcome of an ε-similarity decision, distinguishing how it was reached
/// (used by tests asserting the optimizations fire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpsDecision {
    /// Lemma-5 filter proved σ < ε in O(1).
    FilteredOut,
    /// Merge-join concluded σ ≥ ε (possibly early-accepted).
    Similar,
    /// Merge-join concluded σ < ε.
    Dissimilar,
}

/// The structural-similarity kernel: every σ evaluation in the workspace
/// funnels through one of these methods, so the instrumentation is complete
/// by construction.
///
/// The kernel is `Sync`; counters are relaxed atomics so the parallel block
/// phases can share one kernel without locks.
#[derive(Debug)]
pub struct Kernel<'g> {
    graph: &'g CsrGraph,
    params: ScanParams,
    /// Lemma-5 O(1) prefilter + early accept inside the merge-join
    /// (Section III-D). Disabled for the plain SCAN baseline and the
    /// filter ablation.
    optimizations: bool,
    /// Symmetric per-arc verdict cache (see [`AtomicEdgeCache`]); `None`
    /// disables caching (the ablation and the memory-frugal path).
    cache: Option<AtomicEdgeCache>,
    /// Packed neighbor bitsets for high-degree vertices plus the branchless
    /// small-pair merge — the cache-locality bundle. `None` keeps the
    /// classic merge-join on every pair (the pre-bundle behavior, used by
    /// the baselines and the bench's before/after comparison).
    hubs: Option<HubBitmaps>,
    /// MinHash signatures of every closed neighborhood; present exactly in
    /// [`SketchMode::Approx`], where the estimates order core-check
    /// candidates and decide adjacent pairs.
    sketches: Option<NeighborhoodSketches>,
    sigma_evals: AtomicU64,
    lemma5_filtered: AtomicU64,
    shared_evals: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    early_accepts: AtomicU64,
    early_rejects: AtomicU64,
    path_merge: AtomicU64,
    path_bitmap: AtomicU64,
    path_batched: AtomicU64,
    path_sketch: AtomicU64,
}

impl<'g> Kernel<'g> {
    /// Kernel with the paper's optimizations enabled (the default for
    /// anySCAN, SCAN-B and pSCAN).
    pub fn new(graph: &'g CsrGraph, params: ScanParams) -> Self {
        Self::with_optimizations(graph, params, true)
    }

    /// Kernel with the Section III-D optimizations toggled explicitly.
    pub fn with_optimizations(
        graph: &'g CsrGraph,
        params: ScanParams,
        optimizations: bool,
    ) -> Self {
        Kernel {
            graph,
            params,
            optimizations,
            cache: None,
            hubs: None,
            sketches: None,
            sigma_evals: AtomicU64::new(0),
            lemma5_filtered: AtomicU64::new(0),
            shared_evals: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            early_accepts: AtomicU64::new(0),
            early_rejects: AtomicU64::new(0),
            path_merge: AtomicU64::new(0),
            path_bitmap: AtomicU64::new(0),
            path_batched: AtomicU64::new(0),
            path_sketch: AtomicU64::new(0),
        }
    }

    /// Builder-style toggle for the lock-free symmetric edge-decision cache
    /// (O(`num_arcs`) bytes). With it on, every [`Kernel::eps_decision`] on
    /// an adjacent pair is answered from the cache when the verdict is
    /// already known — from either direction — and recorded otherwise.
    /// Results are unchanged either way; only the work counters differ.
    pub fn with_edge_cache(mut self, enabled: bool) -> Self {
        self.cache = enabled.then(|| AtomicEdgeCache::new(self.graph));
        self
    }

    /// Builder-style toggle for the hub-bitmap / branchless-merge locality
    /// bundle. With it on, pairs touching a high-degree vertex are decided
    /// through a packed bitset (word-wise AND or bit-test + weight gather)
    /// and small pairs run a branchless full merge-join; both produce
    /// numerators bit-identical to [`sigma_raw`]'s, so results never change
    /// — only memory traffic and the `path_*` counters do.
    pub fn with_hub_bitmaps(mut self, enabled: bool) -> Self {
        self.hubs = enabled.then(|| HubBitmaps::build(self.graph));
        self
    }

    /// [`Kernel::with_hub_bitmaps`] with an explicit hub cap and degree
    /// floor — for tuning experiments and for tests on graphs too small for
    /// the default floor to select any hubs.
    pub fn with_hub_bitmaps_params(mut self, max_hubs: usize, min_degree: usize) -> Self {
        self.hubs = Some(HubBitmaps::build_with(self.graph, max_hubs, min_degree));
        self
    }

    /// Builder-style attachment of prebuilt neighborhood sketches.
    /// [`SketchMode::Off`] drops any sketches; in [`SketchMode::Approx`] the
    /// signatures must cover this kernel's graph, and the estimate decides
    /// adjacent pairs outright (`σ̂ ≥ ε` ⇒ similar), counted under
    /// `path_sketch`.
    pub fn with_sketches(mut self, sketches: NeighborhoodSketches, mode: SketchMode) -> Self {
        if mode == SketchMode::Off {
            self.sketches = None;
            return self;
        }
        assert_eq!(
            sketches.num_vertices(),
            self.graph.num_vertices(),
            "sketches were built for a different graph"
        );
        self.sketches = Some(sketches);
        self
    }

    /// [`Kernel::with_sketches`], building the signatures here (in parallel
    /// on the shared worker pool) from explicit parameters. A no-op for
    /// [`SketchMode::Off`].
    pub fn with_sketch_params(
        self,
        mode: SketchMode,
        rows: usize,
        bits: u32,
        seed: u64,
        threads: usize,
    ) -> Self {
        if mode == SketchMode::Off {
            return self;
        }
        let sketches = NeighborhoodSketches::build(self.graph, rows, bits, seed, threads);
        self.with_sketches(sketches, mode)
    }

    /// The attached neighborhood sketches, when any.
    pub fn sketches(&self) -> Option<&NeighborhoodSketches> {
        self.sketches.as_ref()
    }

    /// How this kernel uses sketches.
    pub fn sketch_mode(&self) -> SketchMode {
        if self.sketches.is_some() {
            SketchMode::Approx
        } else {
            SketchMode::Off
        }
    }

    /// The edge-decision cache, when enabled.
    pub fn edge_cache(&self) -> Option<&AtomicEdgeCache> {
        self.cache.as_ref()
    }

    /// The hub bitmaps, when the locality bundle is enabled.
    pub fn hub_bitmaps(&self) -> Option<&HubBitmaps> {
        self.hubs.as_ref()
    }

    /// The graph this kernel evaluates on.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// The (ε, μ) parameters.
    pub fn params(&self) -> ScanParams {
        self.params
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SimStats {
        SimStats {
            sigma_evals: self.sigma_evals.load(Ordering::Relaxed),
            lemma5_filtered: self.lemma5_filtered.load(Ordering::Relaxed),
            shared_evals: self.shared_evals.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            early_accepts: self.early_accepts.load(Ordering::Relaxed),
            early_rejects: self.early_rejects.load(Ordering::Relaxed),
            path_merge: self.path_merge.load(Ordering::Relaxed),
            path_probe: 0,
            path_bitmap: self.path_bitmap.load(Ordering::Relaxed),
            path_batched: self.path_batched.load(Ordering::Relaxed),
            path_sketch: self.path_sketch.load(Ordering::Relaxed),
        }
    }

    /// Records a SCAN++ similarity-sharing evaluation (called by that
    /// baseline; kept here so all counters live in one place).
    pub fn record_shared_eval(&self) {
        self.shared_evals.fetch_add(1, Ordering::Relaxed);
    }

    /// Exact weighted structural similarity
    /// `σ(u,v) = Σ_{r∈Γ(u)∩Γ(v)} w_ur·w_vr / sqrt(l_u·l_v)` (Definition 1).
    /// Always runs the full merge-join (no early stop) and counts one
    /// evaluation.
    pub fn sigma(&self, u: VertexId, v: VertexId) -> f64 {
        self.sigma_evals.fetch_add(1, Ordering::Relaxed);
        sigma_raw(self.graph, u, v)
    }

    /// Decides `σ(u,v) ≥ ε`, applying (when enabled) the Lemma-5 O(1)
    /// prefilter, early accept once the accumulating numerator crosses the
    /// threshold, and early reject once it provably cannot reach it.
    ///
    /// With the edge-decision cache enabled and `v ∈ Γ(u)`, a previously
    /// reached verdict — from either direction — is returned without any
    /// similarity work (counted in `cache_hits`). A cached dissimilar
    /// verdict is reported as [`EpsDecision::Dissimilar`] even if the
    /// original decision was [`EpsDecision::FilteredOut`]; callers only
    /// branch on similar-vs-not, so results are unaffected.
    #[inline]
    pub fn eps_decision(&self, u: VertexId, v: VertexId) -> EpsDecision {
        let Some(cache) = &self.cache else {
            return self.eps_decision_uncached(u, v);
        };
        let Some(arc) = AtomicEdgeCache::arc_index(self.graph, u, v) else {
            // Non-adjacent pair: no arc slot; decide directly.
            return self.eps_decision_uncached(u, v);
        };
        if let Some(similar) = cache.get(arc) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return if similar {
                EpsDecision::Similar
            } else {
                EpsDecision::Dissimilar
            };
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        let decision = self.eps_decision_uncached(u, v);
        cache.store_symmetric(
            self.graph,
            u,
            v,
            arc,
            matches!(decision, EpsDecision::Similar),
        );
        decision
    }

    /// Lemma-5 O(1) prefilter: true iff σ(u,v) is provably `< ε` from the
    /// precomputed per-vertex bounds alone (σ̂² < ε²·l_u·l_v).
    #[inline]
    fn lemma5_filters(&self, u: VertexId, v: VertexId, lu: f64, lv: f64) -> bool {
        let g = self.graph;
        let min_deg = g.degree(u).min(g.degree(v)) as f64;
        let max_w = g.max_weight(u).max(g.max_weight(v));
        let sigma_hat = min_deg * max_w;
        sigma_hat * sigma_hat < self.params.epsilon * self.params.epsilon * lu * lv
    }

    /// Decides a pair through a hub bitmap if one applies, counting the
    /// evaluation. Returns `None` when neither endpoint has a bitmap.
    ///
    /// The bitmap paths compute the **full** numerator (no early exit);
    /// since every term is non-negative, the full-sum comparison against the
    /// threshold reaches the same verdict the early-exit merge would.
    #[inline]
    fn bitmap_decision(&self, u: VertexId, v: VertexId, threshold: f64) -> Option<EpsDecision> {
        let hubs = self.hubs.as_ref()?;
        let g = self.graph;
        let (du, dv) = (g.degree(u), g.degree(v));
        // Word-wise AND when both rows are wide enough to amortize the full
        // bitmap sweep; otherwise bit-test the smaller row against the
        // bigger hub's bitset.
        let words = g.num_vertices().div_ceil(64);
        let num = if hubs.is_hub(u) && hubs.is_hub(v) && du + dv >= words {
            hubs.numerator_hub_vs_hub(g, u, v)?
        } else {
            // Bit-test the other row against a hub endpoint's bitset,
            // preferring the wider endpoint as the bitset side.
            let (first, second) = if du <= dv { (u, v) } else { (v, u) };
            if hubs.is_hub(second) {
                hubs.numerator_small_vs_hub(g, first, second)?
            } else if hubs.is_hub(first) {
                hubs.numerator_small_vs_hub(g, second, first)?
            } else {
                return None;
            }
        };
        self.sigma_evals.fetch_add(1, Ordering::Relaxed);
        self.path_bitmap.fetch_add(1, Ordering::Relaxed);
        Some(if num >= threshold {
            EpsDecision::Similar
        } else {
            EpsDecision::Dissimilar
        })
    }

    /// Branchless full merge-join numerator with explicit prefetch: index
    /// advances and the accumulate are computed arithmetically, so the
    /// data-dependent `a < b` comparison never becomes a mispredicted
    /// branch. Adds `+0.0` on non-matches — partial sums stay bit-identical
    /// to the classic merge's (all terms are non-negative, so no `-0.0`).
    #[inline]
    fn merge_numerator_branchless(&self, u: VertexId, v: VertexId) -> f64 {
        let g = self.graph;
        let nu = g.neighbor_ids(u);
        let wu = g.neighbor_weights(u);
        let nv = g.neighbor_ids(v);
        let wv = g.neighbor_weights(v);
        let (mut i, mut j) = (0usize, 0usize);
        let mut num = 0.0f64;
        while i < nu.len() && j < nv.len() {
            #[cfg(target_arch = "x86_64")]
            {
                prefetch_read(nu, i + MERGE_PREFETCH_AHEAD);
                prefetch_read(nv, j + MERGE_PREFETCH_AHEAD);
            }
            let (a, b) = (nu[i], nv[j]);
            num += if a == b { wu[i] * wv[j] } else { 0.0 };
            i += (a <= b) as usize;
            j += (b <= a) as usize;
        }
        num
    }

    /// The sketch's verdict on one pair in approx mode (counted as one
    /// `path_sketch` evaluation); `None` when sketches are off.
    #[inline]
    fn sketch_decision(&self, u: VertexId, v: VertexId) -> Option<EpsDecision> {
        let sk = self.sketches.as_ref()?;
        let est = sk.sigma_estimate(self.graph, u, v);
        self.sigma_evals.fetch_add(1, Ordering::Relaxed);
        self.path_sketch.fetch_add(1, Ordering::Relaxed);
        Some(if est >= self.params.epsilon {
            EpsDecision::Similar
        } else {
            EpsDecision::Dissimilar
        })
    }

    /// The Section III-D decision procedure itself, never touching the
    /// edge-decision cache.
    fn eps_decision_uncached(&self, u: VertexId, v: VertexId) -> EpsDecision {
        let g = self.graph;
        let lu = g.norm_sq(u);
        let lv = g.norm_sq(v);
        let threshold = self.params.epsilon * (lu * lv).sqrt();

        if self.optimizations && self.lemma5_filters(u, v, lu, lv) {
            self.lemma5_filtered.fetch_add(1, Ordering::Relaxed);
            return EpsDecision::FilteredOut;
        }

        if let Some(decision) = self.sketch_decision(u, v) {
            return decision;
        }

        // Locality bundle: hub pairs go through the packed bitsets, and
        // small pairs run the branchless merge (counted below).
        if self.hubs.is_some() {
            if let Some(decision) = self.bitmap_decision(u, v, threshold) {
                return decision;
            }
            if g.degree(u).min(g.degree(v)) <= BRANCHLESS_MERGE_CUTOFF {
                self.sigma_evals.fetch_add(1, Ordering::Relaxed);
                self.path_merge.fetch_add(1, Ordering::Relaxed);
                let num = self.merge_numerator_branchless(u, v);
                return if num >= threshold {
                    EpsDecision::Similar
                } else {
                    EpsDecision::Dissimilar
                };
            }
        }

        self.merge_decision(u, v, threshold)
    }

    /// The classic merge-join decision (with the Section III-D early
    /// accept/reject when optimizations are on), counted under `path_merge`.
    fn merge_decision(&self, u: VertexId, v: VertexId, threshold: f64) -> EpsDecision {
        let g = self.graph;
        self.sigma_evals.fetch_add(1, Ordering::Relaxed);
        self.path_merge.fetch_add(1, Ordering::Relaxed);
        let nu = g.neighbor_ids(u);
        let wu = g.neighbor_weights(u);
        let nv = g.neighbor_ids(v);
        let wv = g.neighbor_weights(v);
        let (mut i, mut j) = (0usize, 0usize);
        let mut num = 0.0f64;
        if self.optimizations {
            // Early accept / early reject: track the best the remaining
            // suffixes could still contribute.
            let max_w = g.max_weight(u) * g.max_weight(v);
            loop {
                if num >= threshold {
                    if i < nu.len() && j < nv.len() {
                        self.early_accepts.fetch_add(1, Ordering::Relaxed);
                    }
                    return EpsDecision::Similar;
                }
                if i >= nu.len() || j >= nv.len() {
                    break;
                }
                let remaining = (nu.len() - i).min(nv.len() - j) as f64;
                if num + remaining * max_w < threshold {
                    self.early_rejects.fetch_add(1, Ordering::Relaxed);
                    return EpsDecision::Dissimilar;
                }
                let (a, b) = (nu[i], nv[j]);
                if a == b {
                    num += wu[i] * wv[j];
                    i += 1;
                    j += 1;
                } else if a < b {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        } else {
            while i < nu.len() && j < nv.len() {
                let (a, b) = (nu[i], nv[j]);
                if a == b {
                    num += wu[i] * wv[j];
                    i += 1;
                    j += 1;
                } else if a < b {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        }
        if num >= threshold {
            EpsDecision::Similar
        } else {
            EpsDecision::Dissimilar
        }
    }

    /// Boolean form of [`Kernel::eps_decision`].
    pub fn is_eps_neighbor(&self, u: VertexId, v: VertexId) -> bool {
        matches!(self.eps_decision(u, v), EpsDecision::Similar)
    }

    /// Range query: the full structural neighborhood
    /// `N^ε_p = {q ∈ Γ(p) | σ(p,q) ≥ ε}` (includes `p` itself, since
    /// σ(p,p) = 1). This is the neighborhood query of anySCAN's Step 1.
    pub fn eps_neighborhood(&self, p: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        self.eps_neighborhood_into(p, &mut out);
        out
    }

    /// [`Kernel::eps_neighborhood`] into a caller-owned buffer (cleared
    /// first). Lets hot parallel loops reuse one scratch vector per worker
    /// instead of allocating per queried vertex.
    pub fn eps_neighborhood_into(&self, p: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        for &q in self.graph.neighbor_ids(p) {
            if q == p || self.is_eps_neighbor(p, q) {
                out.push(q);
            }
        }
    }

    /// [`Kernel::eps_neighborhood_into`], batched source-major: the source
    /// row `Γ(p)` is scattered **once** into the per-worker dense scratch
    /// and reused across all candidate pairs of the range query, so each
    /// decision costs one sequential sweep of the candidate's row instead of
    /// a two-row merge. Pairs answered by the edge cache never touch the
    /// scratch (and the row is not even stamped when every pair hits).
    ///
    /// Accounting is identical to the per-pair path: each adjacent decision
    /// counts exactly one of `cache_hits` or `cache_misses` (cache on), and
    /// each computed decision exactly one of `lemma5_filtered` or
    /// `sigma_evals` — never both a hit and a fresh evaluation (see the
    /// regression tests; a naive route through [`Kernel::eps_decision`]
    /// after a row-level cache pass would double-count).
    pub fn eps_neighborhood_batched(
        &self,
        p: VertexId,
        scratch: &mut BatchScratch,
        out: &mut Vec<VertexId>,
    ) {
        out.clear();
        let g = self.graph;
        scratch.invalidate_row();
        let ids = g.neighbor_ids(p);
        for (k, &q) in ids.iter().enumerate() {
            if k + 1 < ids.len() {
                // The candidate rows are visited in arbitrary memory order:
                // hint the next row in while deciding this one.
                let next = ids[k + 1];
                prefetch_read(g.neighbor_ids(next), 0);
                prefetch_read(g.neighbor_weights(next), 0);
            }
            if q == p {
                out.push(q);
                continue;
            }
            let similar = match &self.cache {
                None => matches!(self.batched_decision(p, q, scratch), EpsDecision::Similar),
                Some(cache) => {
                    let arc = AtomicEdgeCache::arc_index(g, p, q)
                        .expect("range-query candidate is adjacent to the source");
                    if let Some(similar) = cache.get(arc) {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                        similar
                    } else {
                        self.cache_misses.fetch_add(1, Ordering::Relaxed);
                        let similar =
                            matches!(self.batched_decision(p, q, scratch), EpsDecision::Similar);
                        cache.store_symmetric(g, p, q, arc, similar);
                        similar
                    }
                }
            };
            if similar {
                out.push(q);
            }
        }
    }

    /// One batched-pair decision: Lemma-5, then the hub bitmap when the
    /// candidate is a wide hub (bit-testing the short source row beats
    /// sweeping the hub's), then the dense-row gather with the early
    /// accept/reject bounds of the classic merge.
    fn batched_decision(
        &self,
        p: VertexId,
        q: VertexId,
        scratch: &mut BatchScratch,
    ) -> EpsDecision {
        let g = self.graph;
        let lp = g.norm_sq(p);
        let lq = g.norm_sq(q);
        let threshold = self.params.epsilon * (lp * lq).sqrt();

        if self.optimizations && self.lemma5_filters(p, q, lp, lq) {
            self.lemma5_filtered.fetch_add(1, Ordering::Relaxed);
            return EpsDecision::FilteredOut;
        }

        // Approx mode: the sketch decides batched pairs outright too.
        if let Some(decision) = self.sketch_decision(p, q) {
            return decision;
        }

        if let Some(hubs) = &self.hubs {
            if g.degree(q) > g.degree(p) {
                if let Some(num) = hubs.numerator_small_vs_hub(g, p, q) {
                    self.sigma_evals.fetch_add(1, Ordering::Relaxed);
                    self.path_bitmap.fetch_add(1, Ordering::Relaxed);
                    return if num >= threshold {
                        EpsDecision::Similar
                    } else {
                        EpsDecision::Dissimilar
                    };
                }
            }
        }

        let tag = scratch.stamp_row(g, p);
        self.sigma_evals.fetch_add(1, Ordering::Relaxed);
        self.path_batched.fetch_add(1, Ordering::Relaxed);
        let nq = g.neighbor_ids(q);
        let wq = g.neighbor_weights(q);
        let mut num = 0.0f64;
        if self.optimizations {
            let max_w = g.max_weight(p) * g.max_weight(q);
            for (j, (&r, &w)) in nq.iter().zip(wq.iter()).enumerate() {
                if num >= threshold {
                    self.early_accepts.fetch_add(1, Ordering::Relaxed);
                    return EpsDecision::Similar;
                }
                // Weaker than the merge's two-sided bound (the source index
                // is not tracked here) but still sound: at most `|Γ(q)| - j`
                // terms remain, each at most `max_w`.
                let remaining = (nq.len() - j) as f64;
                if num + remaining * max_w < threshold {
                    self.early_rejects.fetch_add(1, Ordering::Relaxed);
                    return EpsDecision::Dissimilar;
                }
                let m = scratch.gather(r, tag);
                num += m * w;
            }
        } else {
            for (&r, &w) in nq.iter().zip(wq.iter()) {
                num += scratch.gather(r, tag) * w;
            }
        }
        if num >= threshold {
            EpsDecision::Similar
        } else {
            EpsDecision::Dissimilar
        }
    }

    /// Exact σ through the batched dense-row gather (full sum, no early
    /// exit); bit-identical to [`sigma_raw`] — the non-common terms add
    /// `+0.0`, which cannot perturb a non-negative partial sum. Counts one
    /// evaluation, like [`Kernel::sigma`].
    pub fn sigma_batched(&self, p: VertexId, q: VertexId, scratch: &mut BatchScratch) -> f64 {
        let g = self.graph;
        let tag = scratch.stamp_row(g, p);
        self.sigma_evals.fetch_add(1, Ordering::Relaxed);
        self.path_batched.fetch_add(1, Ordering::Relaxed);
        let nq = g.neighbor_ids(q);
        let wq = g.neighbor_weights(q);
        let mut num = 0.0f64;
        for (&r, &w) in nq.iter().zip(wq.iter()) {
            num += scratch.gather(r, tag) * w;
        }
        num / (g.norm_sq(p) * g.norm_sq(q)).sqrt()
    }

    /// Exact σ through a hub bitmap, or `None` when neither endpoint has
    /// one; bit-identical to [`sigma_raw`] (same ascending-id visit order,
    /// same products). Counts one evaluation when it applies.
    pub fn sigma_bitmap(&self, u: VertexId, v: VertexId) -> Option<f64> {
        let hubs = self.hubs.as_ref()?;
        let g = self.graph;
        let (du, dv) = (g.degree(u), g.degree(v));
        let words = g.num_vertices().div_ceil(64);
        let num = if hubs.is_hub(u) && hubs.is_hub(v) && du + dv >= words {
            hubs.numerator_hub_vs_hub(g, u, v)?
        } else {
            let (first, second) = if du <= dv { (u, v) } else { (v, u) };
            if hubs.is_hub(second) {
                hubs.numerator_small_vs_hub(g, first, second)?
            } else if hubs.is_hub(first) {
                hubs.numerator_small_vs_hub(g, second, first)?
            } else {
                return None;
            }
        };
        self.sigma_evals.fetch_add(1, Ordering::Relaxed);
        self.path_bitmap.fetch_add(1, Ordering::Relaxed);
        Some(num / (g.norm_sq(u) * g.norm_sq(v)).sqrt())
    }

    /// Early-exit core check (Steps 2/3 of anySCAN).
    ///
    /// If `known` already-confirmed ε-neighbors (including `p` itself — the
    /// paper's `nei(p)`, which starts at 1) reach μ, the answer is yes with
    /// no similarity work at all. Otherwise the neighborhood is rescanned
    /// from scratch (a partial `known` cannot safely seed a rescan: the scan
    /// would recount the same neighbors), stopping as soon as μ ε-neighbors
    /// are confirmed or provably unreachable.
    pub fn core_check_early_exit(&self, p: VertexId, known: usize) -> bool {
        if known >= self.params.mu {
            return true;
        }
        self.core_check_with_skip(p, 1, |_| false)
    }

    /// Core check that *does* exploit partial knowledge: `confirmed` counts
    /// ε-neighbors already established (including `p` itself), and `skip`
    /// must return true exactly for the neighbors whose ε-relation to `p` is
    /// already decided (so the scan neither revisits nor recounts them).
    ///
    /// anySCAN uses this with `confirmed = 1 + |SN_p|` and `skip` matching
    /// the representatives of the super-nodes containing `p`: membership of
    /// `p` in `sn(c)` certifies σ(p,c) ≥ ε, bought during Step 1.
    pub fn core_check_with_skip(
        &self,
        p: VertexId,
        confirmed: usize,
        skip: impl Fn(VertexId) -> bool,
    ) -> bool {
        let mu = self.params.mu;
        let mut count = confirmed.max(1);
        if count >= mu {
            return true;
        }
        let ids = self.graph.neighbor_ids(p);
        // Sketch-ordered candidates (approx mode): each per-pair decision is
        // order-independent, so the verdict is identical to the unordered
        // scan; only which pairs ever get evaluated changes. The direction
        // is outcome-adaptive: when the estimates predict ≥ μ hits, scanning
        // the most promising first makes the μ-early-exit fire after ~μ
        // confirmed neighbors; when they predict failure, scanning the
        // *least* promising first keeps the confirmed count low so the
        // remaining-candidates bound fires as early as possible (evaluating
        // hits first only postpones it).
        if let Some(sk) = &self.sketches {
            let mut cand: Vec<(f64, VertexId)> = ids
                .iter()
                .copied()
                .filter(|&q| q != p && !skip(q))
                .map(|q| (sk.sigma_estimate(self.graph, p, q), q))
                .collect();
            let eps = self.params.epsilon;
            let predicted = count + cand.iter().filter(|&&(est, _)| est >= eps).count();
            // Ties in ascending id for determinism.
            if predicted >= mu {
                cand.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            } else {
                cand.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            }
            let mut remaining = cand.len();
            for &(_, q) in &cand {
                if count + remaining < mu {
                    return false;
                }
                remaining -= 1;
                if self.is_eps_neighbor(p, q) {
                    count += 1;
                    if count >= mu {
                        return true;
                    }
                }
            }
            return false;
        }
        let mut remaining = ids.iter().filter(|&&q| q != p && !skip(q)).count();
        for &q in ids {
            if q == p || skip(q) {
                continue;
            }
            if count + remaining < mu {
                return false;
            }
            remaining -= 1;
            if self.is_eps_neighbor(p, q) {
                count += 1;
                if count >= mu {
                    return true;
                }
            }
        }
        false
    }

    /// Whether `p` is a core (Definition 3), evaluating the neighborhood
    /// exhaustively (no early exit). Mostly useful in tests and the naive
    /// baseline.
    pub fn is_core_exhaustive(&self, p: VertexId) -> bool {
        self.eps_neighborhood(p).len() >= self.params.mu
    }
}

/// Per-worker dense scratch for [`Kernel::eps_neighborhood_batched`] and
/// the index build's [`sigma_row`].
///
/// Holds one *stamped* source row: `weight[r]` is `w_{p r}` for every
/// neighbor `r` of the current source `p`, and `stamp[r]` equals the current
/// tag iff `r ∈ Γ(p)`. Stamping is lazy (only on the first computed decision
/// of a range query) and O(deg p); switching sources bumps the tag instead of
/// clearing the dense arrays, with a full clear only on `u32` wraparound.
#[derive(Debug)]
pub struct BatchScratch {
    weight: Vec<Weight>,
    stamp: Vec<u32>,
    tag: u32,
    row: Option<VertexId>,
}

impl BatchScratch {
    /// Scratch for graphs of `n` vertices (sized once per worker).
    pub fn new(n: usize) -> Self {
        BatchScratch {
            weight: vec![0.0; n],
            stamp: vec![u32::MAX; n],
            tag: 0,
            row: None,
        }
    }

    /// Forgets the cached source row, forcing the next decision to restamp.
    fn invalidate_row(&mut self) {
        self.row = None;
    }

    /// Ensures the dense row holds `Γ(p)`'s weights; returns the tag that
    /// marks valid entries. Stamps at most once per source.
    fn stamp_row(&mut self, g: &CsrGraph, p: VertexId) -> u32 {
        if self.row != Some(p) {
            if self.tag == u32::MAX - 1 {
                // Leave u32::MAX free as the "never stamped" sentinel.
                self.stamp.fill(u32::MAX);
                self.tag = 0;
            } else {
                self.tag += 1;
            }
            for (&r, &w) in g.neighbor_ids(p).iter().zip(g.neighbor_weights(p)) {
                self.stamp[r as usize] = self.tag;
                self.weight[r as usize] = w;
            }
            self.row = Some(p);
        }
        self.tag
    }

    /// The stamped source weight `w_{p r}`, or `+0.0` when `r ∉ Γ(p)` (a
    /// `+0.0` term cannot perturb the non-negative σ partial sum, which is
    /// what keeps the batched path bit-identical to the merge-join).
    #[inline(always)]
    fn gather(&self, r: VertexId, tag: u32) -> f64 {
        if self.stamp[r as usize] == tag {
            self.weight[r as usize]
        } else {
            0.0
        }
    }
}

/// Whether the edge `{u, v}` is scored from `u`'s row in [`sigma_row`]: the
/// endpoint with the larger `(closed degree, id)` owns the edge. Its row is
/// stamped and the other, shorter row is swept, so every edge costs
/// `O(min(d_u, d_v))` and exactly one endpoint owns it (never a self-loop).
#[inline]
pub fn scores_edge(g: &CsrGraph, u: VertexId, v: VertexId) -> bool {
    (g.degree(u), u) > (g.degree(v), v)
}

/// Fills `out` with one entry per arc of `u`, in adjacency (ascending id)
/// order: σ(u, v) where `u` scores the edge (see [`scores_edge`]) and `NaN`
/// on every other arc, `u`'s own included — the similarity-index build's
/// one pass over the edges. The `NaN`s mark the arcs whose value lives in
/// the other endpoint's row.
///
/// `u`'s closed neighborhood is stamped into `scratch` once, and only if
/// `u` owns an edge; each owned `v` is then scored with one sweep of its
/// own, shorter row. Common neighbors are visited in ascending id, as in the
/// merge-join, and the sweep's extra `+0.0` terms cannot perturb a partial
/// sum that is never `-0.0`, so every value is bit-identical to
/// [`sigma_raw`].
pub fn sigma_row(g: &CsrGraph, u: VertexId, scratch: &mut BatchScratch, out: &mut Vec<f64>) {
    assert!(
        scratch.stamp.len() >= g.num_vertices(),
        "scratch sized for {} vertices, graph has {}",
        scratch.stamp.len(),
        g.num_vertices()
    );
    scratch.invalidate_row();
    out.clear();
    let norm_u = g.norm_sq(u);
    for &v in g.neighbor_ids(u) {
        if !scores_edge(g, u, v) {
            out.push(f64::NAN);
            continue;
        }
        let tag = scratch.stamp_row(g, u);
        let nv = g.neighbor_ids(v);
        let wv = g.neighbor_weights(v);
        let mut num = 0.0f64;
        // SAFETY: `j < nv.len()` bounds `nv`/`wv` (parallel CSR slices), and
        // every neighbor id is `< num_vertices()`, which the assert above
        // bounds against the scratch arrays.
        unsafe {
            for j in 0..nv.len() {
                let r = *nv.get_unchecked(j) as usize;
                let m = if *scratch.stamp.get_unchecked(r) == tag {
                    *scratch.weight.get_unchecked(r)
                } else {
                    0.0
                };
                num += *wv.get_unchecked(j) * m;
            }
        }
        out.push(num / (norm_u * g.norm_sq(v)).sqrt());
    }
}

/// Uninstrumented exact similarity; the reference implementation used by
/// property tests and by callers outside any experiment accounting.
pub fn sigma_raw(g: &CsrGraph, u: VertexId, v: VertexId) -> f64 {
    let nu = g.neighbor_ids(u);
    let wu = g.neighbor_weights(u);
    let nv = g.neighbor_ids(v);
    let wv = g.neighbor_weights(v);
    let (mut i, mut j) = (0usize, 0usize);
    let mut num = 0.0f64;
    while i < nu.len() && j < nv.len() {
        let (a, b) = (nu[i], nv[j]);
        if a == b {
            num += wu[i] * wv[j];
            i += 1;
            j += 1;
        } else if a < b {
            i += 1;
        } else {
            j += 1;
        }
    }
    num / (g.norm_sq(u) * g.norm_sq(v)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::GraphBuilder;
    use proptest::prelude::*;

    fn unweighted_clique_plus_pendant() -> CsrGraph {
        // K4 over {0,1,2,3} plus pendant 4 attached to 0.
        GraphBuilder::from_unweighted_edges(
            5,
            vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)],
        )
        .unwrap()
    }

    #[test]
    fn unweighted_sigma_matches_scan_formula() {
        // SCAN: σ(u,v) = |Γ(u) ∩ Γ(v)| / sqrt(|Γ(u)|·|Γ(v)|) with closed
        // neighborhoods.
        let g = unweighted_clique_plus_pendant();
        // Γ(1) = {0,1,2,3}, Γ(2) = {0,1,2,3}: σ = 4/4 = 1.
        assert!((sigma_raw(&g, 1, 2) - 1.0).abs() < 1e-12);
        // Γ(0) = {0,1,2,3,4}, Γ(4) = {0,4}: common {0,4}, σ = 2/sqrt(10).
        assert!((sigma_raw(&g, 0, 4) - 2.0 / 10.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn self_similarity_is_one() {
        let g = unweighted_clique_plus_pendant();
        for v in 0..5 {
            assert!((sigma_raw(&g, v, v) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_sigma_hand_computed() {
        // Path 0 -(2.0)- 1 -(0.5)- 2, all with unit self-loops.
        let g = GraphBuilder::from_edges(3, vec![(0, 1, 2.0), (1, 2, 0.5)]).unwrap();
        // Γ(0)={0(1),1(2)}, Γ(1)={0(2),1(1),2(0.5)}.
        // common: 0 → w_00·w_10 = 1·2 = 2; 1 → w_01·w_11 = 2·1 = 2. num=4.
        // l_0 = 1+4 = 5; l_1 = 4+1+0.25 = 5.25. σ = 4/sqrt(26.25).
        let expect = 4.0 / (5.0f64 * 5.25).sqrt();
        assert!((sigma_raw(&g, 0, 1) - expect).abs() < 1e-12);
    }

    #[test]
    fn eps_decision_agrees_with_exact_sigma() {
        let g = unweighted_clique_plus_pendant();
        let params = ScanParams::new(0.6, 2);
        let k_opt = Kernel::new(&g, params);
        let k_plain = Kernel::with_optimizations(&g, params, false);
        for u in 0..5u32 {
            for &v in g.neighbor_ids(u) {
                let exact = sigma_raw(&g, u, v) >= 0.6;
                assert_eq!(k_opt.is_eps_neighbor(u, v), exact, "opt ({u},{v})");
                assert_eq!(k_plain.is_eps_neighbor(u, v), exact, "plain ({u},{v})");
            }
        }
    }

    #[test]
    fn lemma5_filter_fires_and_is_sound() {
        // High ε over a weak, long-degree-mismatch edge should be filtered.
        let mut b = GraphBuilder::new(12);
        for v in 1..11 {
            b.add_edge(0, v, 1.0);
        }
        b.add_edge(0, 11, 0.05); // weak pendant
        let g = b.build();
        let k = Kernel::new(&g, ScanParams::new(0.9, 2));
        let d = k.eps_decision(0, 11);
        // Whether filtered or merge-joined, it must be "not similar"...
        assert_ne!(d, EpsDecision::Similar);
        // ...and the exact value confirms.
        assert!(sigma_raw(&g, 0, 11) < 0.9);
    }

    #[test]
    fn counters_track_each_path() {
        let g = unweighted_clique_plus_pendant();
        let k = Kernel::new(&g, ScanParams::new(0.5, 2));
        let _ = k.sigma(0, 1);
        let _ = k.eps_decision(1, 2);
        k.record_shared_eval();
        let s = k.stats();
        assert_eq!(s.sigma_evals, 2);
        assert_eq!(s.shared_evals, 1);
        // Neither call above can trip the Lemma-5 prefilter, and a kernel
        // without the edge cache never records hits; total_decided must be
        // the exact sum of the four work counters.
        assert_eq!(s.lemma5_filtered, 0);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(
            s.total_decided(),
            s.sigma_evals + s.lemma5_filtered + s.shared_evals + s.cache_hits
        );
        assert_eq!(s.total_decided(), 3);
    }

    #[test]
    fn cache_misses_complement_hits() {
        let g = unweighted_clique_plus_pendant();
        let k = Kernel::new(&g, ScanParams::new(0.5, 2)).with_edge_cache(true);
        let _ = k.eps_decision(0, 1); // miss: computed + stored
        let _ = k.eps_decision(0, 1); // hit
        let _ = k.eps_decision(1, 0); // hit (symmetric)
        let _ = k.eps_decision(0, 2); // miss
        let s = k.stats();
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.cache_hits, 2);
        // A miss always falls through to a real decision.
        assert_eq!(s.cache_misses, s.sigma_evals + s.lemma5_filtered);
    }

    #[test]
    fn early_exit_counters_are_subsets_of_sigma_evals() {
        // Clique pairs at low ε early-accept (num crosses the threshold with
        // suffixes left); the weak pendant at high ε early-rejects via the
        // remaining-suffix bound when it survives the Lemma-5 prefilter.
        let g = unweighted_clique_plus_pendant();
        let k = Kernel::new(&g, ScanParams::new(0.3, 2));
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                let _ = k.eps_decision(u, v);
            }
        }
        let s = k.stats();
        assert!(s.early_accepts > 0, "low ε on a clique must early-accept");
        assert!(s.early_accepts + s.early_rejects <= s.sigma_evals);
        // The unoptimized kernel never records either.
        let plain = Kernel::with_optimizations(&g, ScanParams::new(0.3, 2), false);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                let _ = plain.eps_decision(u, v);
            }
        }
        assert_eq!(plain.stats().early_accepts, 0);
        assert_eq!(plain.stats().early_rejects, 0);
    }

    #[test]
    fn eps_neighborhood_includes_self() {
        let g = unweighted_clique_plus_pendant();
        let k = Kernel::new(&g, ScanParams::new(0.99, 2));
        let n0 = k.eps_neighborhood(0);
        assert!(n0.contains(&0));
        // Clique members 1,2,3 have σ(i,j)=1 among themselves.
        let n1 = k.eps_neighborhood(1);
        assert!(n1.contains(&2) && n1.contains(&3));
    }

    #[test]
    fn core_check_early_exit_matches_exhaustive() {
        let g = unweighted_clique_plus_pendant();
        for eps in [0.3, 0.5, 0.7, 0.9] {
            for mu in 1..6 {
                let k = Kernel::new(&g, ScanParams::new(eps, mu));
                for v in 0..5u32 {
                    assert_eq!(
                        k.core_check_early_exit(v, 0),
                        k.is_core_exhaustive(v),
                        "eps={eps} mu={mu} v={v}"
                    );
                }
            }
        }
    }

    #[test]
    fn core_check_uses_known_count() {
        let g = unweighted_clique_plus_pendant();
        let k = Kernel::new(&g, ScanParams::new(0.5, 4));
        // With enough already-known ε-neighbors, no scanning is needed.
        assert!(k.core_check_early_exit(4, 10));
    }

    #[test]
    fn edge_cache_hits_on_repeat_and_mirror_queries() {
        let g = unweighted_clique_plus_pendant();
        let k = Kernel::new(&g, ScanParams::new(0.5, 2)).with_edge_cache(true);
        let first = k.eps_decision(0, 1);
        assert_eq!(k.stats().cache_hits, 0);
        // Same direction again: answered from the cache.
        assert_eq!(k.eps_decision(0, 1), first);
        // Mirror direction: the symmetric store makes this a hit too.
        assert_eq!(k.eps_decision(1, 0), first);
        let s = k.stats();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.sigma_evals + s.lemma5_filtered, 1);
    }

    #[test]
    fn edge_cache_reports_filtered_pairs_as_dissimilar() {
        // Lemma-5 filters the weak pendant edge; the cached verdict loses
        // the FilteredOut/Dissimilar distinction but never the boolean.
        let mut b = GraphBuilder::new(12);
        for v in 1..11 {
            b.add_edge(0, v, 1.0);
        }
        b.add_edge(0, 11, 0.05);
        let g = b.build();
        let k = Kernel::new(&g, ScanParams::new(0.9, 2)).with_edge_cache(true);
        assert_eq!(k.eps_decision(0, 11), EpsDecision::FilteredOut);
        assert_eq!(k.eps_decision(0, 11), EpsDecision::Dissimilar);
        assert_eq!(k.eps_decision(11, 0), EpsDecision::Dissimilar);
        assert_eq!(k.stats().cache_hits, 2);
        assert_eq!(k.stats().lemma5_filtered, 1);
    }

    #[test]
    fn edge_cache_disabled_never_counts_hits() {
        let g = unweighted_clique_plus_pendant();
        let k = Kernel::new(&g, ScanParams::new(0.5, 2)).with_edge_cache(false);
        assert!(k.edge_cache().is_none());
        let _ = k.eps_decision(0, 1);
        let _ = k.eps_decision(0, 1);
        assert_eq!(k.stats().cache_hits, 0);
        assert_eq!(k.stats().sigma_evals, 2);
    }

    /// A moderately dense random graph with a few genuine hubs.
    fn hubby_random_graph(seed: u64) -> CsrGraph {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 60u32;
        let mut b = GraphBuilder::new(n as usize);
        // Background sparse edges...
        for _ in 0..160 {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_edge(u, v, rng.gen_range(0.05..1.0));
            }
        }
        // ...plus three hubs wired to most of the graph.
        for hub in [0u32, 1, 2] {
            for v in 3..n {
                if rng.gen_bool(0.7) {
                    b.add_edge(hub, v, rng.gen_range(0.05..1.0));
                }
            }
        }
        b.build()
    }

    /// The index build's row pass scores every edge exactly once, from the
    /// endpoint with the larger `(closed degree, id)`, bit-identical to the
    /// merge-join. The low-id hubs make degree order and id order disagree.
    #[test]
    fn sigma_row_scores_each_edge_once_from_the_wider_endpoint() {
        let g = hubby_random_graph(17);
        let mut scratch = BatchScratch::new(g.num_vertices());
        let mut scored = 0u64;
        let mut hub_rows = 0usize;
        let mut row = Vec::new();
        for u in g.vertices() {
            sigma_row(&g, u, &mut scratch, &mut row);
            assert_eq!(row.len(), g.degree(u), "row of {u}");
            for (&v, s) in g.neighbor_ids(u).iter().zip(&row) {
                if !scores_edge(&g, u, v) {
                    assert!(s.is_nan(), "({u},{v}) is scored from the other row");
                    continue;
                }
                assert!(!scores_edge(&g, v, u), "({u},{v}) owned twice");
                assert_eq!(s.to_bits(), sigma_raw(&g, u, v).to_bits(), "σ({u},{v})");
                if v > u {
                    hub_rows += 1;
                }
                scored += 1;
            }
        }
        assert_eq!(scored, g.num_edges(), "every edge scored once");
        assert!(hub_rows > 0, "some edge must be owned by its lower id");
    }

    /// A scratch whose tag wraps mid-build clears its stamps instead of
    /// aliasing a stale row.
    #[test]
    fn sigma_row_survives_tag_wraparound() {
        let g = hubby_random_graph(5);
        let mut scratch = BatchScratch::new(g.num_vertices());
        scratch.tag = u32::MAX - 3;
        let mut row = Vec::new();
        for u in g.vertices() {
            sigma_row(&g, u, &mut scratch, &mut row);
            for (&v, s) in g.neighbor_ids(u).iter().zip(&row) {
                if scores_edge(&g, u, v) {
                    assert_eq!(s.to_bits(), sigma_raw(&g, u, v).to_bits(), "σ({u},{v})");
                }
            }
        }
    }

    /// Satellite fix regression: when the edge cache and the batched
    /// dense-row pass are both active, each adjacent decision
    /// must count exactly one of {cache_hit, cache_miss}, and each computed
    /// decision exactly one of {lemma5_filtered, sigma_evals} — the batched
    /// path must not re-route cache-answered pairs through a second
    /// accounting site.
    #[test]
    fn batched_accounting_matches_per_pair_path() {
        let g = hubby_random_graph(7);
        let params = ScanParams::new(0.4, 3);
        let reference = Kernel::new(&g, params).with_edge_cache(true);
        let batched = Kernel::new(&g, params)
            .with_edge_cache(true)
            .with_hub_bitmaps_params(8, 4);
        let mut scratch = BatchScratch::new(g.num_vertices());
        let mut out = Vec::new();
        let mut adjacent_decisions = 0u64;
        for p in g.vertices() {
            let expect = reference.eps_neighborhood(p);
            batched.eps_neighborhood_batched(p, &mut scratch, &mut out);
            assert_eq!(out, expect, "neighborhood of {p}");
            adjacent_decisions += (g.degree(p) - 1) as u64; // minus self
        }
        let (a, b) = (reference.stats(), batched.stats());
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_misses, b.cache_misses);
        assert_eq!(a.cache_hits + a.cache_misses, adjacent_decisions);
        assert_eq!(b.cache_hits + b.cache_misses, adjacent_decisions);
        // Same Lemma-5 prefilter, so the computed split matches exactly too.
        assert_eq!(a.lemma5_filtered, b.lemma5_filtered);
        assert_eq!(a.sigma_evals, b.sigma_evals);
        assert_eq!(b.cache_misses, b.sigma_evals + b.lemma5_filtered);
    }

    /// Second half of the regression: repeat range queries are answered
    /// entirely from the cache — hits grow, evaluations do not.
    #[test]
    fn repeat_batched_queries_hit_cache_without_recounting_evals() {
        let g = hubby_random_graph(8);
        let k = Kernel::new(&g, ScanParams::new(0.4, 3))
            .with_edge_cache(true)
            .with_hub_bitmaps_params(8, 4);
        let mut scratch = BatchScratch::new(g.num_vertices());
        let mut out = Vec::new();
        for p in g.vertices() {
            k.eps_neighborhood_batched(p, &mut scratch, &mut out);
        }
        let first = k.stats();
        for p in g.vertices() {
            k.eps_neighborhood_batched(p, &mut scratch, &mut out);
        }
        let second = k.stats();
        assert!(second.cache_hits > first.cache_hits);
        assert_eq!(second.sigma_evals, first.sigma_evals);
        assert_eq!(second.lemma5_filtered, first.lemma5_filtered);
        assert_eq!(second.cache_misses, first.cache_misses);
        assert_eq!(
            second.cache_hits - first.cache_hits,
            first.cache_hits + first.cache_misses,
            "every adjacent decision of the second sweep is a hit"
        );
    }

    /// The kernel-side path counters partition sigma_evals exactly; the
    /// retired probe counter stays zero.
    #[test]
    fn path_counters_partition_sigma_evals() {
        let g = hubby_random_graph(9);
        let k = Kernel::new(&g, ScanParams::new(0.4, 3)).with_hub_bitmaps_params(8, 4);
        let mut scratch = BatchScratch::new(g.num_vertices());
        let mut out = Vec::new();
        for p in g.vertices().take(20) {
            let _ = k.eps_neighborhood(p);
        }
        for p in g.vertices().skip(20) {
            k.eps_neighborhood_batched(p, &mut scratch, &mut out);
        }
        let s = k.stats();
        assert!(s.path_bitmap > 0, "hub pairs must take the bitmap path");
        assert!(
            s.path_batched > 0,
            "range queries must take the batched path"
        );
        assert_eq!(s.path_merge + s.path_bitmap + s.path_batched, s.sigma_evals);
        assert_eq!(s.path_probe, 0);
        // A kernel without the locality bundle runs everything as merges.
        let plain = Kernel::new(&g, ScanParams::new(0.4, 3));
        for p in g.vertices().take(10) {
            let _ = plain.eps_neighborhood(p);
        }
        let ps = plain.stats();
        assert_eq!(ps.path_merge, ps.sigma_evals);
        assert_eq!(ps.path_bitmap + ps.path_batched + ps.path_probe, 0);
    }

    /// σ through the hub bitmaps and the batched dense row is bit-identical
    /// to the merge-join reference on a hub-heavy graph.
    #[test]
    fn fast_path_sigma_bit_identical_on_hubby_graph() {
        let g = hubby_random_graph(10);
        let k = Kernel::new(&g, ScanParams::new(0.5, 2)).with_hub_bitmaps_params(8, 4);
        let hubs = k.hub_bitmaps().unwrap();
        assert!(hubs.num_hubs() > 0);
        let mut scratch = BatchScratch::new(g.num_vertices());
        for u in g.vertices() {
            for &v in g.neighbor_ids(u) {
                let expect = sigma_raw(&g, u, v).to_bits();
                assert_eq!(
                    k.sigma_batched(u, v, &mut scratch).to_bits(),
                    expect,
                    "batched σ({u},{v})"
                );
                if let Some(s) = k.sigma_bitmap(u, v) {
                    assert_eq!(s.to_bits(), expect, "bitmap σ({u},{v})");
                }
            }
        }
    }

    /// Approx mode lets the sketch decide every surviving adjacent pair:
    /// `path_sketch` absorbs all of `sigma_evals` and the exact paths never
    /// run.
    #[test]
    fn approx_mode_decides_from_the_sketch() {
        let g = hubby_random_graph(11);
        let k = Kernel::new(&g, ScanParams::new(0.4, 3))
            .with_hub_bitmaps_params(8, 4)
            .with_sketch_params(SketchMode::Approx, 256, 8, 5, 1);
        let mut scratch = BatchScratch::new(g.num_vertices());
        let mut out = Vec::new();
        for p in g.vertices() {
            if p % 2 == 0 {
                let _ = k.eps_neighborhood(p);
            } else {
                k.eps_neighborhood_batched(p, &mut scratch, &mut out);
            }
        }
        let s = k.stats();
        assert!(s.path_sketch > 0, "approx decisions must be counted");
        assert_eq!(
            s.path_merge + s.path_bitmap + s.path_batched + s.path_sketch,
            s.sigma_evals
        );
        assert_eq!(
            s.path_merge + s.path_bitmap + s.path_batched,
            0,
            "approx mode must never run an exact kernel path"
        );
    }

    proptest! {
        /// Satellite: the `sigma_path_{merge,probe,bitmap,batched,sketch}`
        /// counters exactly partition `sigma_evals` across every combination
        /// of SketchMode × kernel hub bitmaps × batched range query × edge cache
        /// (probe stays zero — it is recorded externally by the index
        /// build, never by these kernel paths).
        #[test]
        fn sigma_paths_partition_across_modes(
            edges in proptest::collection::vec((0u32..14, 0u32..14, 0.05f64..1.0), 1..70),
            eps in 0.05f64..0.95,
        ) {
            let g = GraphBuilder::from_edges(14, edges).unwrap();
            let params = ScanParams::new(eps, 3);
            for mode in [SketchMode::Off, SketchMode::Approx] {
                for hub in [false, true] {
                    for batched in [false, true] {
                        for cache in [false, true] {
                            let mut k = Kernel::new(&g, params).with_edge_cache(cache);
                            if hub {
                                k = k.with_hub_bitmaps_params(4, 1);
                            }
                            k = k.with_sketch_params(mode, 32, 8, 7, 1);
                            let mut scratch = BatchScratch::new(g.num_vertices());
                            let mut out = Vec::new();
                            for p in g.vertices() {
                                if batched {
                                    k.eps_neighborhood_batched(p, &mut scratch, &mut out);
                                } else {
                                    let _ = k.eps_neighborhood(p);
                                }
                                let _ = k.core_check_early_exit(p, 0);
                            }
                            let s = k.stats();
                            prop_assert_eq!(
                                s.path_merge + s.path_bitmap + s.path_batched + s.path_sketch,
                                s.sigma_evals,
                                "mode={:?} hub={} batched={} cache={}",
                                mode, hub, batched, cache
                            );
                            prop_assert_eq!(s.path_probe, 0u64);
                            if mode != SketchMode::Approx {
                                prop_assert_eq!(
                                    s.path_sketch, 0u64,
                                    "only approx mode may decide via sketch"
                                );
                            }
                        }
                    }
                }
            }
        }

        /// σ is symmetric, in [0,1], and the optimized ε-decision always
        /// agrees with the exact value, on random weighted graphs.
        #[test]
        fn sigma_properties_on_random_graphs(
            edges in proptest::collection::vec((0u32..12, 0u32..12, 0.05f64..1.0), 1..60),
            eps in 0.05f64..0.95,
        ) {
            let g = GraphBuilder::from_edges(12, edges).unwrap();
            let params = ScanParams::new(eps, 2);
            let k = Kernel::new(&g, params);
            for u in 0..12u32 {
                for &v in g.neighbor_ids(u) {
                    let s_uv = sigma_raw(&g, u, v);
                    let s_vu = sigma_raw(&g, v, u);
                    prop_assert!((s_uv - s_vu).abs() < 1e-9, "asymmetric σ({u},{v})");
                    prop_assert!((0.0..=1.0 + 1e-9).contains(&s_uv));
                    // Guard the threshold comparison against float ties.
                    if (s_uv - eps).abs() > 1e-9 {
                        prop_assert_eq!(
                            k.is_eps_neighbor(u, v),
                            s_uv >= eps,
                            "decision mismatch at ({}, {}), σ={}", u, v, s_uv
                        );
                    }
                }
            }
        }

        /// The cached ε-decision agrees with the exact σ from both edge
        /// directions and on repeat queries, and every decision past the
        /// first per undirected edge is a cache hit.
        #[test]
        fn cached_eps_decision_agrees_with_sigma_raw(
            edges in proptest::collection::vec((0u32..14, 0u32..14, 0.05f64..1.0), 1..70),
            eps in 0.05f64..0.95,
        ) {
            let g = GraphBuilder::from_edges(14, edges).unwrap();
            let k = Kernel::new(&g, ScanParams::new(eps, 2)).with_edge_cache(true);
            for _pass in 0..2 {
                for u in g.vertices() {
                    for &v in g.neighbor_ids(u) {
                        if v == u {
                            continue;
                        }
                        let exact = sigma_raw(&g, u, v);
                        // Skip float ties: FilteredOut/Dissimilar vs Similar
                        // could legitimately flip within rounding noise.
                        if (exact - eps).abs() <= 1e-9 {
                            continue;
                        }
                        prop_assert_eq!(
                            matches!(k.eps_decision(u, v), EpsDecision::Similar),
                            exact >= eps,
                            "cached decision mismatch at ({}, {}), σ={}", u, v, exact
                        );
                    }
                }
            }
            // Per undirected edge: ≤ 1 real decision; everything else hits.
            let s = k.stats();
            prop_assert!(s.sigma_evals + s.lemma5_filtered <= g.num_edges());
        }

        /// The batched dense-row σ, the hub-bitmap σ and the index build's
        /// oriented row pass are all bit-identical to `sigma_raw` on
        /// arbitrary random weighted graphs.
        #[test]
        fn fast_path_sigma_bit_identical_to_sigma_raw(
            edges in proptest::collection::vec((0u32..16, 0u32..16, 0.05f64..1.0), 1..90),
        ) {
            let g = GraphBuilder::from_edges(16, edges).unwrap();
            // Degree floor 1 makes every vertex bitmap-eligible, so the
            // bitmap path is exercised even on tiny graphs.
            let k = Kernel::new(&g, ScanParams::new(0.5, 2)).with_hub_bitmaps_params(6, 1);
            let mut scratch = BatchScratch::new(g.num_vertices());
            for u in g.vertices() {
                for &v in g.neighbor_ids(u) {
                    let expect = sigma_raw(&g, u, v).to_bits();
                    prop_assert_eq!(
                        k.sigma_batched(u, v, &mut scratch).to_bits(),
                        expect,
                        "batched σ({}, {})", u, v
                    );
                    if let Some(s) = k.sigma_bitmap(u, v) {
                        prop_assert_eq!(s.to_bits(), expect, "bitmap σ({}, {})", u, v);
                    }
                }
                let mut row = Vec::new();
                sigma_row(&g, u, &mut scratch, &mut row);
                prop_assert_eq!(row.len(), g.degree(u));
                for (&v, s) in g.neighbor_ids(u).iter().zip(&row) {
                    if scores_edge(&g, u, v) {
                        prop_assert_eq!(
                            s.to_bits(),
                            sigma_raw(&g, u, v).to_bits(),
                            "row σ({}, {})", u, v
                        );
                    } else {
                        prop_assert!(s.is_nan(), "row ({}, {}) not owned", u, v);
                    }
                }
            }
        }

        /// Batched range queries return exactly the per-pair ε-neighborhood
        /// and agree with the exact σ, away from float ties, whatever the
        /// kernel path (bitmap, branchless merge, dense gather) decided each
        /// pair.
        #[test]
        fn batched_neighborhood_matches_per_pair(
            edges in proptest::collection::vec((0u32..14, 0u32..14, 0.05f64..1.0), 1..70),
            eps in 0.05f64..0.95,
        ) {
            let g = GraphBuilder::from_edges(14, edges).unwrap();
            let params = ScanParams::new(eps, 2);
            let per_pair = Kernel::new(&g, params);
            let batched = Kernel::new(&g, params).with_hub_bitmaps_params(4, 1);
            let mut scratch = BatchScratch::new(g.num_vertices());
            let mut out = Vec::new();
            for p in g.vertices() {
                batched.eps_neighborhood_batched(p, &mut scratch, &mut out);
                prop_assert_eq!(&out, &per_pair.eps_neighborhood(p), "Γε({})", p);
                for &q in &out {
                    if q != p {
                        let exact = sigma_raw(&g, p, q);
                        if (exact - eps).abs() > 1e-9 {
                            prop_assert!(exact >= eps, "false positive at ({}, {})", p, q);
                        }
                    }
                }
            }
        }

        /// Cauchy–Schwarz: σ ≤ 1 even under adversarial weights.
        #[test]
        fn sigma_never_exceeds_one(
            w1 in 0.05f64..1.0, w2 in 0.05f64..1.0, w3 in 0.05f64..1.0,
        ) {
            let g = GraphBuilder::from_edges(3, vec![(0,1,w1),(1,2,w2),(0,2,w3)]).unwrap();
            for u in 0..3u32 {
                for v in 0..3u32 {
                    prop_assert!(sigma_raw(&g, u, v) <= 1.0 + 1e-9);
                }
            }
        }
    }
}
