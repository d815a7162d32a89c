//! `anyscan-index` — a GS\*-Index-style similarity index over the weighted
//! σ kernel, for instant (ε, μ) re-clustering.
//!
//! The anySCAN pipeline answers one (ε, μ) point per run; picking
//! parameters therefore costs one full four-step execution per guess. Tseng,
//! Dhulipala and Shun ("Parallel Index-Based Structural Graph Clustering and
//! Its Approximation") observe that the expensive part — every edge's
//! structural similarity — does not depend on (ε, μ) at all, and that two
//! sorted views over those similarities make any query output-sensitive:
//!
//! * **neighbor orders** — per vertex, the closed neighborhood sorted by
//!   descending σ(p, q). The ε-neighborhood `N^ε_p` is then a prefix.
//! * **core orders** — per μ, all vertices of closed degree ≥ μ sorted by
//!   descending *core threshold* `cθ_μ(v)` = the μ-th largest σ in v's
//!   neighbor order. `v` is a core at (ε, μ) iff `cθ_μ(v) ≥ ε`, so the core
//!   set is again a prefix.
//!
//! Because `v` participates in the core order of μ only while
//! `deg(v) ≥ μ`, the core orders sum to exactly `Σ deg(v)` entries — the
//! index is `O(arcs)` space regardless of `μ_max`.
//!
//! [`SimilarityIndex::build`] runs on the persistent `anyscan-parallel`
//! worker pool: σ is evaluated once per undirected edge by one dense row
//! pass ([`sigma_row`](anyscan_scan_common::kernel::sigma_row)). The
//! endpoint with the larger `(closed degree, id)` stamps its row and the
//! shorter row is swept, so each edge costs `O(min(d_u, d_v))`. Rows land in
//! the final arc-aligned arrays; one transpose-cursor walk mirrors each σ to
//! the opposite arc, then per-vertex and per-μ slices are sorted in place in
//! parallel. Each σ is stored once: core orders hold only vertex ids, and a
//! threshold is read from its vertex's neighbor order
//! ([`SimilarityIndex::core_threshold`]).
//! [`SimilarityIndex::query`] unions similar core–core edges with
//! `anyscan-dsu` and classifies borders, hubs and outliers with the shared
//! role vocabulary, in time proportional to the touched prefixes — no σ is
//! ever re-evaluated.
//!
//! The index serializes next to the CSR graph format (`io`, magic `"ASIX"`)
//! and is wired through telemetry (`index_build` / `index_query` spans plus
//! the `index_*` counters) and the CLI (`anyscan index build|query`,
//! `interactive --index`, `explore`, `hierarchy`). Parameter exploration
//! ([`explore`]) and the all-ε dendrogram ([`hierarchy`]) are read off the
//! same two orders.

pub mod explore;
pub mod hierarchy;
pub mod io;
pub mod repair;

pub use repair::NeighborOrderPatch;

use anyscan_dsu::DsuSeq;
use anyscan_graph::{CsrGraph, ReorderMode, VertexId};
use anyscan_parallel::{parallel_for_each_mut_with, parallel_map_adaptive};
use anyscan_scan_common::kernel::{scores_edge, sigma_row};
use anyscan_scan_common::sketch::{DEFAULT_BITS, DEFAULT_ROWS};
use anyscan_scan_common::{
    BatchScratch, Clustering, NeighborhoodSketches, Role, ScanParams, SketchMode, NOISE,
    UNCLASSIFIED,
};
use anyscan_telemetry::{Counter, Recorder, Telemetry};

/// Tuning knobs of [`SimilarityIndex::build_with_options`].
#[derive(Debug, Clone, Copy)]
pub struct IndexBuildOptions {
    /// [`SketchMode::Off`]: exact σ, no signatures. [`SketchMode::Approx`]:
    /// every σ is the sketch estimate — the build never touches a single
    /// exact kernel evaluation — and the MinHash signatures are persisted in
    /// the ASIX v4 file.
    pub sketch: SketchMode,
    /// MinHash rows per signature.
    pub sketch_rows: usize,
    /// Bits kept per MinHash row.
    pub sketch_bits: u32,
    /// Seed the signatures are derived from (recorded in the ASIX file).
    pub seed: u64,
}

impl Default for IndexBuildOptions {
    fn default() -> Self {
        IndexBuildOptions {
            sketch: SketchMode::Off,
            sketch_rows: DEFAULT_ROWS,
            sketch_bits: DEFAULT_BITS,
            seed: 0x5CA7,
        }
    }
}

/// The two sorted views (neighbor orders + core orders) plus the fingerprint
/// of the graph they were built from.
///
/// All arrays are CSR-shaped: `offsets` delimits per-vertex neighbor-order
/// slices of `nbr`/`sig`, and `co_offsets` delimits per-μ core-order slices
/// of `co_vertices` (μ ∈ `1..=mu_max`, slice `μ-1`). Each σ is stored once.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityIndex {
    /// Per-vertex slice bounds, identical layout to the graph's CSR offsets.
    offsets: Vec<usize>,
    /// Closed neighbors, sorted per vertex by descending σ (ties: ascending
    /// id). Includes the vertex itself (σ = 1).
    nbr: Vec<VertexId>,
    /// σ values parallel to `nbr` (non-increasing per vertex).
    sig: Vec<f64>,
    /// Per-μ slice bounds into `co_vertices`.
    co_offsets: Vec<usize>,
    /// For each μ: vertices with closed degree ≥ μ, sorted by descending
    /// `cθ_μ` (ties: ascending id). The thresholds themselves are not
    /// stored: each is read from `sig` by [`SimilarityIndex::core_threshold`].
    co_vertices: Vec<VertexId>,
    /// Undirected edge count of the indexed graph (fingerprint, with
    /// `offsets`, against querying a different graph).
    num_edges: u64,
    /// Cache-locality reordering the indexed graph was relabeled with
    /// ([`ReorderMode::None`] when built on the original ordering). Readers
    /// of the on-disk format re-apply the same (deterministic) reordering to
    /// the freshly loaded graph before querying, then map labels back to
    /// original ids — see the CLI's `index` command.
    reorder: ReorderMode,
    /// MinHash signatures of every closed neighborhood, present exactly
    /// when the σ values in `sig` are sketch estimates
    /// ([`SketchMode::Approx`]; serialized in the ASIX v4 signature section).
    sketches: Option<NeighborhoodSketches>,
}

impl SimilarityIndex {
    /// Builds the index with `threads` workers. Deterministic: any thread
    /// count yields bit-identical arrays.
    pub fn build(g: &CsrGraph, threads: usize) -> Self {
        Self::build_traced(g, threads, &Telemetry::disabled())
    }

    /// [`SimilarityIndex::build`] recorded under the `index_build` span,
    /// with one `index_sigma_evals` count per undirected edge.
    pub fn build_traced(g: &CsrGraph, threads: usize, telemetry: &Telemetry) -> Self {
        Self::build_with_options(g, threads, IndexBuildOptions::default(), telemetry)
    }

    /// [`SimilarityIndex::build_traced`] with sketch tuning. Deterministic
    /// for any thread count in every mode.
    pub fn build_with_options(
        g: &CsrGraph,
        threads: usize,
        opts: IndexBuildOptions,
        telemetry: &Telemetry,
    ) -> Self {
        let _span = telemetry.span("index_build");
        let n = g.num_vertices();

        // MinHash signatures: in approx mode the sole source of every σ below.
        let sketches = match opts.sketch {
            SketchMode::Off => None,
            SketchMode::Approx => {
                let _s = telemetry.span("index_sketches");
                Some(NeighborhoodSketches::build(
                    g,
                    opts.sketch_rows,
                    opts.sketch_bits,
                    opts.seed,
                    threads,
                ))
            }
        };

        // Neighbor orders start as the adjacency itself, so `offsets` are
        // the graph's CSR offsets and every array below is arc-aligned.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(g.num_arcs());
        offsets.push(0);
        for u in g.vertices() {
            nbr.extend_from_slice(g.neighbor_ids(u));
            offsets.push(nbr.len());
        }

        // σ once per undirected edge, written into the arc of the endpoint
        // that scores it (`scores_edge`); the other arc holds NaN until the
        // mirror walk. Exact: one dense stamp of the owner's row, one sweep
        // of each shorter row, one scratch per worker. Approx: the estimate
        // *is* the σ, O(signature) per pair, and needs no scratch.
        let mut sig = vec![f64::NAN; nbr.len()];
        {
            let _s = telemetry.span("index_sigma");
            let init = || BatchScratch::new(if sketches.is_some() { 0 } else { n });
            let rows = &mut split_rows(&mut sig, &offsets);
            parallel_for_each_mut_with(threads, rows, init, |scratch, u, row| {
                let u = u as VertexId;
                let Some(sk) = &sketches else {
                    return sigma_row(g, u, scratch, row);
                };
                for (s, &v) in row.iter_mut().zip(g.neighbor_ids(u)) {
                    if scores_edge(g, u, v) {
                        *s = sk.sigma_estimate(g, u, v);
                    }
                }
            });
        }
        telemetry.add(Counter::IndexSigmaEvals, g.num_edges());
        // Kernel-path attribution: every edge was decided by a sketch or by
        // the batched row pass.
        let path = if sketches.is_some() {
            Counter::SigmaPathSketch
        } else {
            Counter::SigmaPathBatched
        };
        telemetry.add(path, g.num_edges());

        {
            let _s = telemetry.span("index_neighbor_orders");
            mirror_arcs(&offsets, &nbr, &mut sig);
            // Sort each closed neighborhood by descending σ, in place.
            let mut rows: Vec<_> = split_rows(&mut nbr, &offsets)
                .into_iter()
                .zip(split_rows(&mut sig, &offsets))
                .collect();
            parallel_for_each_mut_with(threads, &mut rows, Vec::new, |pairs, _, (ids, sigs)| {
                pairs.clear();
                pairs.extend(ids.iter().copied().zip(sigs.iter().copied()));
                pairs.sort_unstable_by(order_cmp);
                for ((id, s), &(q, t)) in ids.iter_mut().zip(sigs.iter_mut()).zip(pairs.iter()) {
                    (*id, *s) = (q, t);
                }
            });
        }

        // Core orders: scatter each vertex into its slices in vertex-id
        // order, so every slice starts ascending by id, then sort each slice
        // in place by descending `cθ_μ` (ties: ascending id).
        let _s = telemetry.span("index_core_orders");
        let co_offsets = core_order_offsets(&offsets);
        let mut co_vertices = vec![0; nbr.len()];
        let mut cursor = co_offsets.clone();
        for (v, w) in offsets.windows(2).enumerate() {
            for slot in &mut cursor[..w[1] - w[0]] {
                co_vertices[*slot] = v as VertexId;
                *slot += 1;
            }
        }
        let mut idx = SimilarityIndex {
            offsets,
            nbr,
            sig,
            co_offsets,
            co_vertices: Vec::new(),
            num_edges: g.num_edges(),
            reorder: ReorderMode::None,
            sketches,
        };
        let mut slices = split_rows(&mut co_vertices, &idx.co_offsets);
        parallel_for_each_mut_with(threads, &mut slices, Vec::new, |keyed, m, verts| {
            keyed.clear();
            let threshold = |v| idx.core_threshold(v, m + 1).expect("slice μ has deg ≥ μ");
            keyed.extend(verts.iter().map(|&v| (v, threshold(v))));
            keyed.sort_unstable_by(order_cmp);
            for (slot, &(v, _)) in verts.iter_mut().zip(keyed.iter()) {
                *slot = v;
            }
        });
        idx.co_vertices = co_vertices;
        idx
    }

    /// Tags the index with the [`ReorderMode`] its graph was relabeled
    /// with before the build (persisted in the ASIX file so `index query`
    /// can re-apply it).
    pub fn with_reorder(mut self, mode: ReorderMode) -> Self {
        self.reorder = mode;
        self
    }

    /// The reordering the indexed graph was relabeled with
    /// ([`ReorderMode::None`] if none).
    pub fn reorder(&self) -> ReorderMode {
        self.reorder
    }

    /// How this index's σ values were produced (see
    /// [`IndexBuildOptions::sketch`]).
    pub fn sketch_mode(&self) -> SketchMode {
        if self.sketches.is_some() {
            SketchMode::Approx
        } else {
            SketchMode::Off
        }
    }

    /// The persisted MinHash signatures, when built with sketches.
    pub fn sketches(&self) -> Option<&NeighborhoodSketches> {
        self.sketches.as_ref()
    }

    /// Number of indexed vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total neighbor-order entries (= the graph's `num_arcs`).
    pub fn num_arcs(&self) -> usize {
        self.nbr.len()
    }

    /// Undirected edge count of the indexed graph.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Largest closed degree; core orders exist for μ ∈ `1..=mu_max`. Any
    /// query with `μ > mu_max` has no cores by definition.
    pub fn mu_max(&self) -> usize {
        self.co_offsets.len() - 1
    }

    /// `v`'s neighbor order: `(neighbor ids, σ values)`, σ non-increasing.
    pub fn neighbor_order(&self, v: VertexId) -> (&[VertexId], &[f64]) {
        let r = self.offsets[v as usize]..self.offsets[v as usize + 1];
        (&self.nbr[r.clone()], &self.sig[r])
    }

    /// The core order for `μ` (`1 ≤ μ ≤ mu_max`): the vertices of closed
    /// degree ≥ μ by non-increasing [`core_threshold`](Self::core_threshold)
    /// (ties: ascending id).
    pub fn core_order(&self, mu: usize) -> &[VertexId] {
        assert!((1..=self.mu_max()).contains(&mu), "μ = {mu} out of range");
        &self.co_vertices[self.co_offsets[mu - 1]..self.co_offsets[mu]]
    }

    /// `v`'s core threshold `cθ_μ(v)`: the μ-th largest σ of its neighbor
    /// order, `None` when its closed degree is below μ. `v` is a core at
    /// (ε, μ) iff this is at least ε.
    pub fn core_threshold(&self, v: VertexId, mu: usize) -> Option<f64> {
        self.neighbor_order(v).1.get(mu.checked_sub(1)?).copied()
    }

    /// Checks that `g` is plausibly the graph this index was built from
    /// (same vertex count, arc layout and edge count).
    pub fn check_graph(&self, g: &CsrGraph) -> Result<(), String> {
        if g.num_vertices() != self.num_vertices()
            || g.num_arcs() != self.num_arcs()
            || g.num_edges() != self.num_edges
        {
            return Err(format!(
                "index built for |V|={} arcs={} |E|={}, queried with |V|={} arcs={} |E|={}",
                self.num_vertices(),
                self.num_arcs(),
                self.num_edges,
                g.num_vertices(),
                g.num_arcs(),
                g.num_edges()
            ));
        }
        Ok(())
    }

    /// Clusters the indexed graph at `params` without re-evaluating any σ.
    ///
    /// Output-sensitive: cores are a prefix of the μ core order, their
    /// similar neighbors a prefix of each neighbor order; the only
    /// whole-graph work is the O(|V|) label/role arrays. Equivalent to the
    /// full anySCAN driver under `check_scan_equivalent` (same cores, same
    /// core partition, same noise set, justified border attachments). The
    /// answer follows one canonical rule, described at
    /// [`SimilarityIndex::query_offline_traced`].
    pub fn query(&self, g: &CsrGraph, params: ScanParams) -> Clustering {
        self.query_traced(g, params, &Telemetry::disabled())
    }

    /// [`SimilarityIndex::query`] recorded under the `index_query` span and
    /// the `index_queries` / `index_cores_found` / `index_borders_attached`
    /// counters. `g` only fingerprints the index: the answer is read from
    /// the index alone, like [`SimilarityIndex::query_offline`].
    pub fn query_traced(
        &self,
        g: &CsrGraph,
        params: ScanParams,
        telemetry: &Telemetry,
    ) -> Clustering {
        if let Err(e) = self.check_graph(g) {
            panic!("similarity index does not match the queried graph: {e}");
        }
        self.query_offline_traced(params, 1, telemetry)
    }

    /// Clusters at `params` **without the graph**: the adjacency needed to
    /// split noise into hubs and outliers is recovered from the index's own
    /// neighbor orders (each is a permutation of the closed neighborhood, and
    /// the hub rule is order-blind), so the answer is identical to
    /// [`SimilarityIndex::query`] on the indexed graph. This is what lets
    /// `index query --sketch approx` answer from the ASIX file alone.
    pub fn query_offline(&self, params: ScanParams) -> Clustering {
        self.query_offline_traced(params, 1, &Telemetry::disabled())
    }

    /// [`SimilarityIndex::query_offline`] on `threads` workers, under the
    /// same span and counters as [`SimilarityIndex::query_traced`].
    ///
    /// The answer is canonical, so its bytes do not depend on `threads`,
    /// on union order or on which side a pass walks:
    ///
    /// * **cores** are the vertices with `cθ_μ(v) ≥ ε`;
    /// * **clusters** are the components of similar core–core arcs, each
    ///   labelled by its smallest core id;
    /// * a **border** (a non-core with a core in its ε-prefix) takes the
    ///   label of the first core of its own neighbor order: its most
    ///   similar core, ties to the smaller id;
    /// * a noise vertex is a **hub** iff its neighbors carry two or more
    ///   distinct labels, else an **outlier**.
    ///
    /// Each pass walks whichever side of the answer is smaller. Borders
    /// are attached from the cores' rows during the union walk while cores
    /// are at most half the vertices, else from each non-core's own short
    /// prefix; hubs are found from the clustered vertices' rows while they
    /// are the minority, else from each noise vertex's row. The union walk
    /// visits cores in vertex-id order (sequential row reads) and stays
    /// serial; the per-vertex passes are split by vertex range over the
    /// worker pool.
    pub fn query_offline_traced(
        &self,
        params: ScanParams,
        threads: usize,
        telemetry: &Telemetry,
    ) -> Clustering {
        let _span = telemetry.span("index_query");
        telemetry.add(Counter::IndexQueries, 1);
        let n = self.num_vertices();
        let eps = params.epsilon;

        // Cores: the prefix of the μ core order with cθ_μ ≥ ε.
        let cores: &[VertexId] = if params.mu <= self.mu_max() {
            let co_verts = self.core_order(params.mu);
            &co_verts[..co_verts
                .partition_point(|&v| self.core_threshold(v, params.mu).is_some_and(|t| t >= eps))]
        } else {
            &[]
        };
        let num_cores = cores.len();
        let mut is_core = vec![false; n];
        for &c in cores {
            is_core[c as usize] = true;
        }
        telemetry.add(Counter::IndexCoresFound, num_cores as u64);

        let from_cores = num_cores <= n - num_cores;
        let labels = self.label_cores(&is_core, eps, from_cores);
        let labels = if from_cores {
            labels
        } else {
            parallel_map_adaptive(threads, n, |v| {
                if is_core[v] {
                    return labels[v];
                }
                self.similar_prefix(v as VertexId, eps)
                    .find(|&q| is_core[q as usize])
                    .map_or(NOISE, |q| labels[q as usize])
            })
        };
        let clustered = labels.iter().filter(|&&l| l != NOISE).count();
        telemetry.add(
            Counter::IndexBordersAttached,
            (clustered - num_cores) as u64,
        );

        let from_clustered = clustered < n - clustered;
        let mut roles = parallel_map_adaptive(threads, n, |v| {
            if is_core[v] {
                Role::Core
            } else if labels[v] != NOISE {
                Role::Border
            } else if !from_clustered && self.touches_two_clusters(v as VertexId, &labels) {
                Role::Hub
            } else {
                Role::Outlier
            }
        });
        if from_clustered {
            // Each noise vertex remembers the first label a clustered
            // neighbor showed it; a second, different one makes it a hub.
            // Clustered vertices hold a sentinel no label can take (labels
            // are vertex ids), so each arc costs one lookup.
            const CLUSTERED: u32 = UNCLASSIFIED;
            let mut seen: Vec<u32> = labels
                .iter()
                .map(|&l| if l == NOISE { NOISE } else { CLUSTERED })
                .collect();
            for (u, &l) in labels.iter().enumerate() {
                if l == NOISE {
                    continue;
                }
                for &q in self.neighbor_order(u as VertexId).0 {
                    let q = q as usize;
                    let s = seen[q];
                    if s == NOISE {
                        seen[q] = l;
                    } else if s != l && s != CLUSTERED {
                        roles[q] = Role::Hub;
                    }
                }
            }
        }
        Clustering { labels, roles }
    }

    /// The ids in `v`'s ε-prefix: its neighbors with σ ≥ `eps`, most
    /// similar first (ties by ascending id), `v` itself included.
    fn similar_prefix(&self, v: VertexId, eps: f64) -> impl Iterator<Item = VertexId> + '_ {
        let (nbrs, sigs) = self.neighbor_order(v);
        nbrs.iter()
            .zip(sigs)
            .take_while(move |&(_, &s)| s >= eps)
            .map(|(&q, _)| q)
    }

    /// The one serial pass of a query: walks every core's ε-prefix in
    /// vertex-id order, unions similar core–core arcs and labels each core
    /// with the smallest core id of its cluster. Every other label is
    /// [`NOISE`], unless `attach` asks this walk to attach the borders too.
    /// The walk then keeps, per non-core, the most similar core seen
    /// (strictly greater σ replaces it, so ties stay with the smaller id,
    /// met first) and takes that core's label. σ is bit-equal on both arcs
    /// of an edge, so this is the first core of the non-core's own prefix.
    fn label_cores(&self, is_core: &[bool], eps: f64, attach: bool) -> Vec<u32> {
        let n = is_core.len();
        let mut dsu = DsuSeq::new(n);
        // While attaching, a non-core's slot holds the id of its best core
        // so far; `best` holds that core's σ.
        let mut labels = vec![NOISE; n];
        let mut best = if attach {
            vec![f64::NEG_INFINITY; n]
        } else {
            Vec::new()
        };
        for c in (0..n as VertexId).filter(|&c| is_core[c as usize]) {
            let (nbrs, sigs) = self.neighbor_order(c);
            for (&q, &s) in nbrs.iter().zip(sigs) {
                if s < eps {
                    break;
                }
                if q > c && is_core[q as usize] {
                    dsu.union(c, q);
                } else if attach && !is_core[q as usize] && s > best[q as usize] {
                    best[q as usize] = s;
                    labels[q as usize] = c;
                }
            }
        }
        // Ascending ids meet each cluster's smallest core first; it parks
        // the label on the cluster's root (a core, so no border's slot).
        for c in (0..n as VertexId).filter(|&c| is_core[c as usize]) {
            let root = dsu.find(c) as usize;
            if labels[root] == NOISE {
                labels[root] = c;
            }
            labels[c as usize] = labels[root];
        }
        if attach {
            for v in 0..n {
                if !is_core[v] && labels[v] != NOISE {
                    labels[v] = labels[labels[v] as usize];
                }
            }
        }
        labels
    }

    /// Whether the neighbors of noise vertex `v` carry two or more
    /// distinct cluster labels (the hub rule; `v`'s own label is noise).
    fn touches_two_clusters(&self, v: VertexId, labels: &[u32]) -> bool {
        let mut first = NOISE;
        for &q in self.neighbor_order(v).0 {
            let l = labels[q as usize];
            if l == NOISE {
                continue;
            }
            if first == NOISE {
                first = l;
            } else if first != l {
                return true;
            }
        }
        false
    }
}

/// Descending-σ, ascending-id ordering: the one comparator every neighbor
/// order and core order is sorted by (ids are distinct within an order, so
/// the sorted result is unique).
fn order_cmp(a: &(VertexId, f64), b: &(VertexId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// The core orders' slice bounds for the neighbor orders' monotone
/// `offsets`: slice μ−1 holds the vertices of closed degree ≥ μ, counted by
/// one degree histogram and its suffix sums.
fn core_order_offsets(offsets: &[usize]) -> Vec<usize> {
    let degrees = offsets.windows(2).map(|w| w[1] - w[0]);
    let mut count_ge = vec![0usize; degrees.clone().max().unwrap_or(0) + 1];
    for d in degrees {
        count_ge[d] += 1;
    }
    for mu in (1..count_ge.len() - 1).rev() {
        count_ge[mu] += count_ge[mu + 1];
    }
    let mut co_offsets = vec![0];
    for (mu, &count) in count_ge.iter().enumerate().skip(1) {
        co_offsets.push(co_offsets[mu - 1] + count);
    }
    co_offsets
}

/// Splits `data` into the consecutive rows that the CSR-style `bounds`
/// delimit (`bounds[0] == 0`, `bounds.last() == data.len()`).
fn split_rows<'a, T>(mut data: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    bounds
        .windows(2)
        .map(|w| {
            let (row, rest) = std::mem::take(&mut data).split_at_mut(w[1] - w[0]);
            data = rest;
            row
        })
        .collect()
}

/// Completes the arc-aligned σ array of the symmetric CSR `offsets`/`nbr`:
/// σ = 1 on each self-loop, and each edge's NaN arc gets the owner's value
/// from the reverse arc. One transpose-cursor walk, as in the graph
/// validator: rows go in ascending order, and each arc `(u, v)` with `v > u`
/// finds `(v, u)` at `cursor[v]`, so row `u`'s cursor reaches its self-loop
/// right after its arcs to smaller ids.
fn mirror_arcs(offsets: &[usize], nbr: &[VertexId], sig: &mut [f64]) {
    let mut cursor = offsets[..offsets.len() - 1].to_vec();
    for u in 0..cursor.len() {
        let me = cursor[u];
        debug_assert_eq!(nbr[me] as usize, u, "row {u}: cursor not on its self-loop");
        sig[me] = 1.0;
        for i in me + 1..offsets[u + 1] {
            let v = nbr[i] as usize;
            let back = cursor[v];
            debug_assert_eq!(nbr[back] as usize, u, "reverse arc of ({u},{v})");
            cursor[v] += 1;
            let s = if sig[i].is_nan() { sig[back] } else { sig[i] };
            (sig[i], sig[back]) = (s, s);
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, rmat, RmatParams, WeightModel};
    use anyscan_graph::GraphBuilder;
    use anyscan_scan_common::kernel::sigma_raw;
    use anyscan_scan_common::verify::assert_scan_equivalent;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_triangles() -> CsrGraph {
        GraphBuilder::from_unweighted_edges(
            6,
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        )
        .unwrap()
    }

    /// R-MAT without relabeling puts its hubs at the lowest ids, so the row
    /// pass's degree orientation and id order disagree on many edges: a
    /// mirror that reads an edge from the wrong endpoint's slot shows up as
    /// a σ that is not bit-equal to `sigma_raw`.
    fn skewed_rmat() -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(3);
        let g = rmat(&mut rng, &RmatParams::graph500(9, 8));
        let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        assert!(g.degree(hub) > 8 * 16, "the R-MAT input must have hubs");
        g
    }

    #[test]
    fn neighbor_orders_are_sorted_and_complete() {
        let mut rng = StdRng::seed_from_u64(11);
        let er = erdos_renyi(&mut rng, 120, 900, WeightModel::uniform_default());
        for g in [er, skewed_rmat()] {
            let idx = SimilarityIndex::build(&g, 2);
            assert_eq!(idx.num_vertices(), g.num_vertices());
            assert_eq!(idx.num_arcs(), g.num_arcs());
            for v in g.vertices() {
                let (nbrs, sigs) = idx.neighbor_order(v);
                assert_eq!(nbrs.len(), g.degree(v));
                let mut expect: Vec<VertexId> = g.neighbor_ids(v).to_vec();
                let mut got: Vec<VertexId> = nbrs.to_vec();
                expect.sort_unstable();
                got.sort_unstable();
                assert_eq!(expect, got, "neighbor order of {v} is a permutation");
                for w in sigs.windows(2) {
                    assert!(w[0] >= w[1], "σ not descending at {v}");
                }
                for (&q, &s) in nbrs.iter().zip(sigs) {
                    let want = if q == v { 1.0 } else { sigma_raw(&g, v, q) };
                    assert_eq!(s.to_bits(), want.to_bits(), "σ({v},{q})");
                }
            }
        }
    }

    #[test]
    fn core_orders_match_definition() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = erdos_renyi(&mut rng, 100, 700, WeightModel::uniform_default());
        let idx = SimilarityIndex::build(&g, 2);
        let mu_max = g.vertices().map(|v| g.degree(v)).max().unwrap();
        assert_eq!(idx.mu_max(), mu_max);
        for mu in 1..=mu_max {
            let verts = idx.core_order(mu);
            let expect: usize = g.vertices().filter(|&v| g.degree(v) >= mu).count();
            assert_eq!(verts.len(), expect, "μ={mu} membership");
            let ths: Vec<f64> = verts
                .iter()
                .map(|&v| idx.core_threshold(v, mu).unwrap())
                .collect();
            for (w, v) in ths.windows(2).zip(verts.windows(2)) {
                assert!(w[0] > w[1] || (w[0] == w[1] && v[0] < v[1]), "μ={mu} order");
            }
            for (&v, &t) in verts.iter().zip(&ths) {
                let (_, sigs) = idx.neighbor_order(v);
                assert_eq!(t.to_bits(), sigs[mu - 1].to_bits(), "cθ_{mu}({v})");
            }
        }
        // Total core-order size is exactly Σ deg = arcs.
        assert_eq!(idx.co_vertices.len(), g.num_arcs());
    }

    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(13);
        let er = erdos_renyi(&mut rng, 200, 1_500, WeightModel::uniform_default());
        for g in [er, skewed_rmat()] {
            let one = SimilarityIndex::build(&g, 1);
            for threads in [2, 8] {
                assert_eq!(
                    one,
                    SimilarityIndex::build(&g, threads),
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    fn query_separates_the_triangles() {
        let g = two_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        let c = idx.query(&g, ScanParams::new(0.7, 3));
        assert_eq!(c.num_clusters(), 2);
        let low = idx.query(&g, ScanParams::new(0.2, 3));
        assert_eq!(low.num_clusters(), 1, "the bridge merges everything");
    }

    #[test]
    fn query_matches_scan_baseline_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(14);
        let g = erdos_renyi(&mut rng, 180, 1_300, WeightModel::uniform_default());
        let idx = SimilarityIndex::build(&g, 4);
        for eps in [0.3, 0.5, 0.7] {
            for mu in [2usize, 5] {
                let params = ScanParams::new(eps, mu);
                let truth = anyscan_baselines::scan(&g, params).clustering;
                let fast = idx.query(&g, params);
                assert_scan_equivalent(&g, params, &truth, &fast);
            }
        }
    }

    #[test]
    fn mu_beyond_max_degree_yields_all_noise() {
        let g = two_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        let c = idx.query(&g, ScanParams::new(0.1, idx.mu_max() + 1));
        assert_eq!(c.num_clusters(), 0);
        assert_eq!(c.role_counts().noise(), 6);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let idx = SimilarityIndex::build(&g, 2);
        assert_eq!(idx.num_vertices(), 0);
        assert_eq!(idx.mu_max(), 0);
        let c = idx.query(&g, ScanParams::paper_defaults());
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "does not match the queried graph")]
    fn querying_a_different_graph_panics() {
        let g = two_triangles();
        let idx = SimilarityIndex::build(&g, 1);
        let other = GraphBuilder::from_unweighted_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        let _ = idx.query(&other, ScanParams::paper_defaults());
    }

    #[test]
    fn approx_build_never_runs_exact_kernels_and_stays_close() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = erdos_renyi(&mut rng, 150, 1_000, WeightModel::Unit);
        let t = Telemetry::enabled();
        let opts = IndexBuildOptions {
            sketch: anyscan_scan_common::SketchMode::Approx,
            sketch_rows: 512,
            sketch_bits: 16,
            ..Default::default()
        };
        let approx = SimilarityIndex::build_with_options(&g, 2, opts, &t);
        let r = t.report().unwrap();
        assert_eq!(r.counter(Counter::IndexSigmaEvals), g.num_edges());
        assert_eq!(r.counter(Counter::SigmaPathSketch), g.num_edges());
        assert_eq!(r.counter(Counter::SigmaPathProbe), 0);
        assert_eq!(r.counter(Counter::SigmaPathBatched), 0);

        // At 512 × 16 on unit weights every σ estimate lies within 6/√rows
        // of the exact value (12 standard errors of the matching-row rate).
        let exact = SimilarityIndex::build(&g, 2);
        let bound = 6.0 / 512f64.sqrt();
        for v in g.vertices() {
            let (nbrs, sigs) = approx.neighbor_order(v);
            for (&q, &s) in nbrs.iter().zip(sigs) {
                let want = if q == v { 1.0 } else { sigma_raw(&g, v, q) };
                assert!((s - want).abs() <= bound, "σ̂({v},{q}) = {s} vs {want}");
            }
        }
        assert_eq!(exact.offsets, approx.offsets);
    }

    #[test]
    fn offline_query_matches_graph_query() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = erdos_renyi(&mut rng, 160, 1_200, WeightModel::uniform_default());
        let idx = SimilarityIndex::build(&g, 2);
        for eps in [0.2, 0.4, 0.6] {
            for mu in [2usize, 4] {
                let params = ScanParams::new(eps, mu);
                let with_graph = idx.query(&g, params);
                let offline = idx.query_offline(params);
                assert_eq!(with_graph.labels, offline.labels);
                assert_eq!(with_graph.roles, offline.roles, "ε={eps} μ={mu}");
            }
        }
    }

    /// The canonical answer rule written out serially against the graph:
    /// σ from `sigma_raw`, clusters by flooding from the smallest core,
    /// each border on its most similar core (ties to the smaller id).
    fn canonical_reference(g: &CsrGraph, params: ScanParams) -> Clustering {
        let n = g.num_vertices();
        let similar = |v: usize| -> Vec<(usize, f64)> {
            g.neighbor_ids(v as VertexId)
                .iter()
                .map(|&q| q as usize)
                .filter(|&q| q != v)
                .map(|q| (q, sigma_raw(g, v as VertexId, q as VertexId)))
                .filter(|&(_, s)| s >= params.epsilon)
                .collect()
        };
        // The closed ε-neighborhood counts the vertex itself.
        let is_core: Vec<bool> = (0..n).map(|v| similar(v).len() + 1 >= params.mu).collect();
        let mut labels = vec![NOISE; n];
        let mut roles = vec![Role::Outlier; n];
        for first in 0..n {
            if !is_core[first] || labels[first] != NOISE {
                continue;
            }
            labels[first] = first as u32;
            let mut stack = vec![first];
            while let Some(v) = stack.pop() {
                roles[v] = Role::Core;
                for (q, _) in similar(v) {
                    if is_core[q] && labels[q] == NOISE {
                        labels[q] = first as u32;
                        stack.push(q);
                    }
                }
            }
        }
        for v in (0..n).filter(|&v| !is_core[v]) {
            let best = similar(v)
                .into_iter()
                .filter(|&(q, _)| is_core[q])
                .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)));
            if let Some((q, _)) = best {
                labels[v] = labels[q];
                roles[v] = Role::Border;
            }
        }
        for v in (0..n).filter(|&v| labels[v] == NOISE) {
            let mut near: Vec<u32> = g
                .neighbor_ids(v as VertexId)
                .iter()
                .map(|&q| labels[q as usize])
                .filter(|&l| l != NOISE)
                .collect();
            near.sort_unstable();
            near.dedup();
            if near.len() >= 2 {
                roles[v] = Role::Hub;
            }
        }
        Clustering { labels, roles }
    }

    /// Checks every query entry point against the reference at one point.
    fn assert_canonical(g: &CsrGraph, idx: &SimilarityIndex, params: ScanParams) {
        let want = canonical_reference(g, params);
        assert_eq!(idx.query(g, params), want, "query at {params:?}");
        for threads in [1, 2, 8] {
            let got = idx.query_offline_traced(params, threads, &Telemetry::disabled());
            assert_eq!(got, want, "{threads} threads at {params:?}");
        }
    }

    /// Which sides a query at `params` walks: `(attach from the cores,
    /// sweep hubs from the clustered vertices)`.
    fn walk_sides(c: &Clustering) -> (bool, bool) {
        let n = c.len();
        let rc = c.role_counts();
        let clustered = rc.cores + rc.borders;
        (rc.cores <= n - rc.cores, clustered < n - clustered)
    }

    /// ER with uniform weights, ER with unit weights (σ ties everywhere)
    /// and the skewed R-MAT.
    fn canonical_inputs() -> Vec<CsrGraph> {
        let mut rng = StdRng::seed_from_u64(31);
        vec![
            erdos_renyi(&mut rng, 150, 900, WeightModel::uniform_default()),
            erdos_renyi(&mut rng, 150, 900, WeightModel::Unit),
            skewed_rmat(),
        ]
    }

    #[test]
    fn canonical_answers_walk_both_sides() {
        for g in canonical_inputs() {
            let idx = SimilarityIndex::build(&g, 2);
            let mut sides = std::collections::HashSet::new();
            for eps in [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] {
                for mu in [2, 3, 5] {
                    let params = ScanParams::new(eps, mu);
                    assert_canonical(&g, &idx, params);
                    sides.insert(walk_sides(&idx.query_offline(params)));
                }
            }
            let attach: std::collections::HashSet<bool> = sides.iter().map(|s| s.0).collect();
            let sweep: std::collections::HashSet<bool> = sides.iter().map(|s| s.1).collect();
            assert_eq!(attach.len(), 2, "the ε grid must attach from both sides");
            assert_eq!(sweep.len(), 2, "the ε grid must sweep from both sides");
        }
    }

    /// Cliques {0..5} and {5..10}, bridged by vertex 10 through an edge
    /// to 4 and one to 5, plus `pad` isolated vertices. At μ = 4 the clique
    /// vertices are the cores and 10 is a border between two clusters; the
    /// padding flips the attach walk from the non-core side to the core
    /// side.
    fn bridged_cliques(w4: f64, w5: f64, pad: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(11 + pad);
        for clique in [0..5u32, 5..10] {
            for u in clique.clone() {
                for v in u + 1..clique.end {
                    b.add_edge(u, v, 1.0);
                }
            }
        }
        b.add_edge(10, 4, w4);
        b.add_edge(10, 5, w5);
        b.build()
    }

    #[test]
    fn borders_join_their_most_similar_core() {
        // (weight to 4, weight to 5, the label 10 joins): the more similar
        // core wins; an exact σ tie goes to the smaller id, 4.
        for (w4, w5, want) in [(1.0, 1.0, 0), (0.5, 1.0, 5), (1.0, 0.5, 0)] {
            for pad in [0, 12] {
                let g = bridged_cliques(w4, w5, pad);
                let idx = SimilarityIndex::build(&g, 1);
                let params = ScanParams::new(0.2, 4);
                let c = idx.query_offline(params);
                assert_eq!(c.role_counts().cores, 10);
                assert_eq!(walk_sides(&c).0, pad > 0, "attach side, pad {pad}");
                assert_eq!(c.roles[10], Role::Border);
                assert_eq!(c.labels[10], want, "weights {w4}, {w5}, pad {pad}");
                assert_canonical(&g, &idx, params);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn canonical_answers_are_thread_independent(
            seed in 0u64..u64::MAX,
            n in 20usize..160,
            avg_degree in 2usize..14,
            unit in 0u8..2,
            eps in 0.05f64..1.0,
            mu in 1usize..8,
        ) {
            let weights = if unit == 1 { WeightModel::Unit } else { WeightModel::uniform_default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let g = erdos_renyi(&mut rng, n, n * avg_degree / 2, weights);
            let idx = SimilarityIndex::build(&g, 1);
            assert_canonical(&g, &idx, ScanParams::new(eps, mu));
        }

        #[test]
        fn canonical_answers_on_skewed_rmat(eps in 0.05f64..1.0, mu in 1usize..12) {
            static RMAT: std::sync::OnceLock<(CsrGraph, SimilarityIndex)> =
                std::sync::OnceLock::new();
            let (g, idx) = RMAT.get_or_init(|| {
                let g = skewed_rmat();
                let idx = SimilarityIndex::build(&g, 2);
                (g, idx)
            });
            assert_canonical(g, idx, ScanParams::new(eps, mu));
        }
    }

    /// The flat build against the collect-then-flatten reference, σ bits
    /// included (`==` alone would let `0.0 == -0.0` pass).
    fn assert_matches_reference(g: &CsrGraph, sketch: SketchMode) {
        let opts = IndexBuildOptions {
            sketch,
            sketch_rows: 64,
            ..Default::default()
        };
        let want = reference::build(g, opts);
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2, 8] {
            let got = SimilarityIndex::build_with_options(g, threads, opts, &Telemetry::disabled());
            assert_eq!(got, want, "{threads} threads, {sketch:?}");
            assert_eq!(
                bits(&got.sig),
                bits(&want.sig),
                "{threads} threads, {sketch:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn flat_build_equals_reference_on_random_graphs(
            seed in 0u64..u64::MAX,
            n in 0usize..200,
            avg_degree in 0usize..16,
            unit in 0u8..2,
            approx in 0u8..2,
        ) {
            let weights = if unit == 1 { WeightModel::Unit } else { WeightModel::uniform_default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let g = erdos_renyi(&mut rng, n, n * avg_degree / 2, weights);
            let sketch = if approx == 1 { SketchMode::Approx } else { SketchMode::Off };
            assert_matches_reference(&g, sketch);
        }

        #[test]
        fn flat_build_equals_reference_on_rmat(seed in 0u64..u64::MAX, scale in 4u32..10) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = rmat(&mut rng, &RmatParams::graph500(scale, 8));
            assert_matches_reference(&g, SketchMode::Off);
        }
    }

    #[test]
    fn flat_build_equals_reference_on_skewed_rmat() {
        for sketch in [SketchMode::Off, SketchMode::Approx] {
            assert_matches_reference(&skewed_rmat(), sketch);
        }
    }

    #[test]
    fn telemetry_counts_build_and_queries() {
        let g = two_triangles();
        let t = Telemetry::enabled();
        let idx = SimilarityIndex::build_traced(&g, 1, &t);
        let _ = idx.query_traced(&g, ScanParams::new(0.7, 3), &t);
        let _ = idx.query_traced(&g, ScanParams::new(0.2, 2), &t);
        let r = t.report().unwrap();
        assert_eq!(r.counter(Counter::IndexSigmaEvals), g.num_edges());
        assert_eq!(r.counter(Counter::IndexQueries), 2);
        assert!(r.counter(Counter::IndexCoresFound) >= 6);
        assert!(r.span_total("index_build").is_some());
        assert_eq!(r.span_total("index_query").unwrap().count, 2);
    }
}
