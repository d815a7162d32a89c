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
//! worker pool: σ is evaluated once per undirected edge (choosing hash-probe
//! vs merge-join per the documented
//! [`prefer_hash_probe`](anyscan_scan_common::prefer_hash_probe) crossover) and
//! mirrored to the opposite arc through the same symmetric arc indexing the
//! edge-decision cache uses, then per-vertex and per-μ sorts run in
//! parallel. [`SimilarityIndex::query`] unions similar core–core edges with
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
use anyscan_parallel::{parallel_map_adaptive, parallel_map_with};
use anyscan_scan_common::sketch::{DEFAULT_BITS, DEFAULT_ROWS};
use anyscan_scan_common::{
    AtomicEdgeCache, Clustering, NeighborIndex, NeighborhoodSketches, Role, RowScratch, ScanParams,
    SketchMode, HASH_PROBE_MISMATCH_RATIO, NOISE,
};
use anyscan_telemetry::{Counter, Recorder, Telemetry};

/// Tuning knobs of [`SimilarityIndex::build_with_options`].
#[derive(Debug, Clone, Copy)]
pub struct IndexBuildOptions {
    /// [`SketchMode::Off`]: exact σ, no signatures. [`SketchMode::Assist`]:
    /// exact σ (bit-identical orders to `Off`) with MinHash signatures built
    /// alongside and persisted in the ASIX v4 file. [`SketchMode::Approx`]:
    /// every σ is the sketch estimate — the build never touches a single
    /// exact kernel evaluation.
    pub sketch: SketchMode,
    /// MinHash rows per signature.
    pub sketch_rows: usize,
    /// Bits kept per MinHash row.
    pub sketch_bits: u32,
    /// Seed the signatures are derived from (recorded in the ASIX file).
    pub seed: u64,
    /// Degree-mismatch ratio diverting exact σ rows to the hash probe
    /// ([`prefer_hash_probe_with`](anyscan_scan_common::prefer_hash_probe_with)).
    pub probe_ratio: usize,
}

impl Default for IndexBuildOptions {
    fn default() -> Self {
        IndexBuildOptions {
            sketch: SketchMode::Off,
            sketch_rows: DEFAULT_ROWS,
            sketch_bits: DEFAULT_BITS,
            seed: 0x5CA7,
            probe_ratio: HASH_PROBE_MISMATCH_RATIO,
        }
    }
}

/// The two sorted views (neighbor orders + core orders) plus the fingerprint
/// of the graph they were built from.
///
/// All arrays are CSR-shaped: `offsets` delimits per-vertex neighbor-order
/// slices of `nbr`/`sig`, and `co_offsets` delimits per-μ core-order slices
/// of `co_vertices`/`co_thresholds` (μ ∈ `1..=mu_max`, slice `μ-1`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityIndex {
    /// Per-vertex slice bounds, identical layout to the graph's CSR offsets.
    offsets: Vec<usize>,
    /// Closed neighbors, sorted per vertex by descending σ (ties: ascending
    /// id). Includes the vertex itself (σ = 1).
    nbr: Vec<VertexId>,
    /// σ values parallel to `nbr` (non-increasing per vertex).
    sig: Vec<f64>,
    /// Per-μ slice bounds into `co_vertices`/`co_thresholds`.
    co_offsets: Vec<usize>,
    /// For each μ: vertices with closed degree ≥ μ, sorted by descending
    /// `cθ_μ` (ties: ascending id).
    co_vertices: Vec<VertexId>,
    /// `cθ_μ(v)` values parallel to `co_vertices`.
    co_thresholds: Vec<f64>,
    /// Undirected edge count of the indexed graph (fingerprint, with
    /// `offsets`, against querying a different graph).
    num_edges: u64,
    /// Cache-locality reordering the indexed graph was relabeled with
    /// ([`ReorderMode::None`] when built on the original ordering). Readers
    /// of the on-disk format re-apply the same (deterministic) reordering to
    /// the freshly loaded graph before querying, then map labels back to
    /// original ids — see the CLI's `index` command.
    reorder: ReorderMode,
    /// MinHash signatures of every closed neighborhood, present when the
    /// index was built with [`SketchMode::Assist`] or [`SketchMode::Approx`]
    /// (serialized in the ASIX v4 signature section).
    sketches: Option<NeighborhoodSketches>,
    /// How the σ values in `sig`/`co_thresholds` were produced: exact
    /// kernels (`Off`/`Assist`, bit-identical to each other) or sketch
    /// estimates (`Approx`).
    sketch_mode: SketchMode,
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

    /// [`SimilarityIndex::build_traced`] with sketch and probe-crossover
    /// tuning. Deterministic for any thread count in every mode.
    pub fn build_with_options(
        g: &CsrGraph,
        threads: usize,
        opts: IndexBuildOptions,
        telemetry: &Telemetry,
    ) -> Self {
        let _span = telemetry.span("index_build");
        let n = g.num_vertices();
        let arcs = g.num_arcs();

        // MinHash signatures (assist: stored alongside the exact orders;
        // approx: the sole source of every σ below).
        let sketches = match opts.sketch {
            SketchMode::Off => None,
            _ => {
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

        // σ once per undirected edge: each vertex evaluates its higher-id
        // neighbors, so no pair is computed twice and no slot is contended.
        let upper: Vec<(Vec<f64>, u64)> = if opts.sketch == SketchMode::Approx {
            // Approx: the estimate *is* the σ — O(signature) per pair, the
            // adjacency lists are only read by the sketch builder above.
            let sk = sketches.as_ref().expect("approx build has sketches");
            let _s = telemetry.span("index_sigma");
            parallel_map_adaptive(threads, n, |u| {
                let u = u as VertexId;
                let row: Vec<f64> = g
                    .neighbor_ids(u)
                    .iter()
                    .filter(|&&v| v > u)
                    .map(|&v| sk.sigma_estimate(g, u, v))
                    .collect();
                (row, 0u64)
            })
        } else {
            // Exact: one dense stamp of the row, one O(d_v) pass per
            // neighbor; badly size-mismatched pairs divert to the hash probe
            // at the configured crossover. The scratch is per worker, reused
            // across its rows.
            let nidx = NeighborIndex::with_threads(g, threads).with_probe_ratio(opts.probe_ratio);
            let _s = telemetry.span("index_sigma");
            parallel_map_with(
                threads,
                n,
                || RowScratch::new(n),
                |scratch, u| {
                    let mut row = Vec::new();
                    let diverted = nidx.sigma_row(g, u as VertexId, scratch, &mut row);
                    (row, diverted)
                },
            )
        };
        telemetry.add(Counter::IndexSigmaEvals, g.num_edges());
        if opts.sketch == SketchMode::Approx {
            // Kernel-path attribution: every edge was decided by a sketch.
            telemetry.add(Counter::SigmaPathSketch, g.num_edges());
        } else {
            // Every edge is either a batched-row pass or a hash-probe
            // diversion.
            let probed: u64 = upper.iter().map(|(_, d)| d).sum();
            telemetry.add(Counter::SigmaPathProbe, probed);
            telemetry.add(Counter::SigmaPathBatched, g.num_edges() - probed);
        }

        // Scatter into an arc-aligned scratch array (upper arcs only).
        let mut sig_by_arc = vec![0.0f64; arcs];
        for u in g.vertices() {
            let base = g.arc_range(u).start;
            let mut it = upper[u as usize].0.iter();
            for (i, &v) in g.neighbor_ids(u).iter().enumerate() {
                if v > u {
                    sig_by_arc[base + i] = *it.next().expect("one σ per upper arc");
                }
            }
        }

        // Neighbor orders: mirror the lower arcs through the symmetric arc
        // index (the same lookup the edge-decision cache stores through),
        // then sort each closed neighborhood by descending σ.
        let sorted: Vec<Vec<(VertexId, f64)>> = {
            let _s = telemetry.span("index_neighbor_orders");
            parallel_map_adaptive(threads, n, |u| {
                let u = u as VertexId;
                let base = g.arc_range(u).start;
                let mut order: Vec<(VertexId, f64)> = g
                    .neighbor_ids(u)
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        let s = match v.cmp(&u) {
                            std::cmp::Ordering::Equal => 1.0,
                            std::cmp::Ordering::Greater => sig_by_arc[base + i],
                            std::cmp::Ordering::Less => {
                                let mirror = AtomicEdgeCache::arc_index(g, v, u)
                                    .expect("CSR adjacency is symmetric");
                                sig_by_arc[mirror]
                            }
                        };
                        (v, s)
                    })
                    .collect();
                order.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                order
            })
        };
        drop(sig_by_arc);

        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr = Vec::with_capacity(arcs);
        let mut sig = Vec::with_capacity(arcs);
        offsets.push(0);
        for order in &sorted {
            for &(v, s) in order {
                nbr.push(v);
                sig.push(s);
            }
            offsets.push(nbr.len());
        }
        drop(sorted);

        // Core orders. Vertices sorted by descending closed degree make the
        // μ-candidates (deg ≥ μ) a prefix, so the total sorting work is
        // Σ_μ |{v : deg(v) ≥ μ}| log(·) = O(arcs log n), not O(n · μ_max).
        let _s = telemetry.span("index_core_orders");
        let mu_max = (0..n)
            .map(|v| offsets[v + 1] - offsets[v])
            .max()
            .unwrap_or(0);
        let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
        by_degree.sort_by_key(|&v| {
            let deg = offsets[v as usize + 1] - offsets[v as usize];
            (std::cmp::Reverse(deg), v)
        });
        let count_ge = |mu: usize| {
            by_degree.partition_point(|&v| offsets[v as usize + 1] - offsets[v as usize] >= mu)
        };
        let per_mu: Vec<Vec<(VertexId, f64)>> = parallel_map_adaptive(threads, mu_max, |m| {
            let mu = m + 1;
            let mut order: Vec<(VertexId, f64)> = by_degree[..count_ge(mu)]
                .iter()
                .map(|&v| (v, sig[offsets[v as usize] + mu - 1]))
                .collect();
            order.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            order
        });
        let mut co_offsets = Vec::with_capacity(mu_max + 1);
        let mut co_vertices = Vec::with_capacity(arcs);
        let mut co_thresholds = Vec::with_capacity(arcs);
        co_offsets.push(0);
        for order in &per_mu {
            for &(v, t) in order {
                co_vertices.push(v);
                co_thresholds.push(t);
            }
            co_offsets.push(co_vertices.len());
        }

        SimilarityIndex {
            offsets,
            nbr,
            sig,
            co_offsets,
            co_vertices,
            co_thresholds,
            num_edges: g.num_edges(),
            reorder: ReorderMode::None,
            sketches,
            sketch_mode: opts.sketch,
        }
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
        self.sketch_mode
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

    /// The core order for `μ` (`1 ≤ μ ≤ mu_max`): `(vertices, cθ_μ values)`,
    /// thresholds non-increasing.
    pub fn core_order(&self, mu: usize) -> (&[VertexId], &[f64]) {
        assert!((1..=self.mu_max()).contains(&mu), "μ = {mu} out of range");
        let r = self.co_offsets[mu - 1]..self.co_offsets[mu];
        (&self.co_vertices[r.clone()], &self.co_thresholds[r])
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
    /// whole-graph work is the O(|V|) label/role arrays and the hub/outlier
    /// sweep. Equivalent to the full anySCAN driver under
    /// `check_scan_equivalent` (same cores, same core partition, same noise
    /// set, justified border attachments).
    pub fn query(&self, g: &CsrGraph, params: ScanParams) -> Clustering {
        self.query_traced(g, params, &Telemetry::disabled())
    }

    /// [`SimilarityIndex::query`] recorded under the `index_query` span and
    /// the `index_queries` / `index_cores_found` / `index_borders_attached`
    /// counters.
    pub fn query_traced(
        &self,
        g: &CsrGraph,
        params: ScanParams,
        telemetry: &Telemetry,
    ) -> Clustering {
        if let Err(e) = self.check_graph(g) {
            panic!("similarity index does not match the queried graph: {e}");
        }
        let mut clustering = self.label_cores_and_borders(params, telemetry);
        clustering.classify_noise(g);
        clustering
    }

    /// Shared core of [`SimilarityIndex::query_traced`] and
    /// [`SimilarityIndex::query_offline_traced`]: labels cores and borders,
    /// leaving every noise vertex's role at [`Role::Outlier`] for the
    /// caller's hub/outlier sweep.
    fn label_cores_and_borders(&self, params: ScanParams, telemetry: &Telemetry) -> Clustering {
        let _span = telemetry.span("index_query");
        telemetry.add(Counter::IndexQueries, 1);
        let n = self.num_vertices();
        let eps = params.epsilon;
        let mut labels = vec![NOISE; n];
        let mut roles = vec![Role::Outlier; n];

        if params.mu <= self.mu_max() {
            // Cores: the prefix of the μ core order with cθ_μ ≥ ε.
            let (co_verts, co_th) = self.core_order(params.mu);
            let num_cores = co_th.partition_point(|&t| t >= eps);
            let cores = &co_verts[..num_cores];
            telemetry.add(Counter::IndexCoresFound, num_cores as u64);

            let mut is_core = vec![false; n];
            for &c in cores {
                is_core[c as usize] = true;
            }

            // Clusters: union similar core–core edges (each pair once).
            let mut dsu = DsuSeq::new(n);
            for &c in cores {
                let (nbrs, sigs) = self.neighbor_order(c);
                for (&q, &s) in nbrs.iter().zip(sigs) {
                    if s < eps {
                        break;
                    }
                    if q > c && is_core[q as usize] {
                        dsu.union(c, q);
                    }
                }
            }
            for &c in cores {
                labels[c as usize] = dsu.find(c);
                roles[c as usize] = Role::Core;
            }

            // Borders: non-cores inside some core's ε-prefix, attached to
            // the first such core in core order.
            let mut borders = 0u64;
            for &c in cores {
                let lc = labels[c as usize];
                let (nbrs, sigs) = self.neighbor_order(c);
                for (&q, &s) in nbrs.iter().zip(sigs) {
                    if s < eps {
                        break;
                    }
                    if !is_core[q as usize] && labels[q as usize] == NOISE {
                        labels[q as usize] = lc;
                        roles[q as usize] = Role::Border;
                        borders += 1;
                    }
                }
            }
            telemetry.add(Counter::IndexBordersAttached, borders);
        }

        Clustering { labels, roles }
    }

    /// Clusters at `params` **without the graph**: the adjacency needed to
    /// split noise into hubs and outliers is recovered from the index's own
    /// neighbor orders (each is a permutation of the closed neighborhood, and
    /// the hub rule is order-blind), so the answer is identical to
    /// [`SimilarityIndex::query`] on the indexed graph. This is what lets
    /// `index query --sketch approx` answer from the ASIX file alone.
    pub fn query_offline(&self, params: ScanParams) -> Clustering {
        self.query_offline_traced(params, &Telemetry::disabled())
    }

    /// [`SimilarityIndex::query_offline`] under the same span and counters
    /// as [`SimilarityIndex::query_traced`].
    pub fn query_offline_traced(&self, params: ScanParams, telemetry: &Telemetry) -> Clustering {
        let mut clustering = self.label_cores_and_borders(params, telemetry);
        // `Clustering::classify_noise` replicated against the neighbor
        // orders instead of the CSR rows.
        for v in 0..clustering.labels.len() as VertexId {
            if clustering.labels[v as usize] != NOISE {
                continue;
            }
            let mut first: Option<u32> = None;
            let mut is_hub = false;
            for &q in self.neighbor_order(v).0 {
                if q == v {
                    continue;
                }
                let l = clustering.labels[q as usize];
                if l == NOISE {
                    continue;
                }
                match first {
                    None => first = Some(l),
                    Some(f) if f != l => {
                        is_hub = true;
                        break;
                    }
                    _ => {}
                }
            }
            clustering.roles[v as usize] = if is_hub { Role::Hub } else { Role::Outlier };
        }
        clustering
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
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

    #[test]
    fn neighbor_orders_are_sorted_and_complete() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = erdos_renyi(&mut rng, 120, 900, WeightModel::uniform_default());
        let idx = SimilarityIndex::build(&g, 2);
        assert_eq!(idx.num_vertices(), 120);
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

    #[test]
    fn core_orders_match_definition() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = erdos_renyi(&mut rng, 100, 700, WeightModel::uniform_default());
        let idx = SimilarityIndex::build(&g, 2);
        let mu_max = g.vertices().map(|v| g.degree(v)).max().unwrap();
        assert_eq!(idx.mu_max(), mu_max);
        for mu in 1..=mu_max {
            let (verts, ths) = idx.core_order(mu);
            let expect: usize = g.vertices().filter(|&v| g.degree(v) >= mu).count();
            assert_eq!(verts.len(), expect, "μ={mu} membership");
            for w in ths.windows(2) {
                assert!(w[0] >= w[1], "cθ not descending at μ={mu}");
            }
            for (&v, &t) in verts.iter().zip(ths) {
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
        let g = erdos_renyi(&mut rng, 200, 1_500, WeightModel::uniform_default());
        let a = SimilarityIndex::build(&g, 1);
        let b = SimilarityIndex::build(&g, 4);
        assert_eq!(a, b);
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
    fn assist_build_is_bit_identical_to_off() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = erdos_renyi(&mut rng, 150, 1_000, WeightModel::uniform_default());
        let plain = SimilarityIndex::build(&g, 2);
        let opts = IndexBuildOptions {
            sketch: anyscan_scan_common::SketchMode::Assist,
            ..Default::default()
        };
        let assist = SimilarityIndex::build_with_options(&g, 2, opts, &Telemetry::disabled());
        // Same orders, same thresholds — the signatures ride along.
        assert_eq!(plain.offsets, assist.offsets);
        assert_eq!(plain.nbr, assist.nbr);
        assert_eq!(
            plain.sig.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            assist.sig.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(plain.co_vertices, assist.co_vertices);
        assert!(assist.sketches().is_some());
        for eps in [0.3, 0.6] {
            let params = ScanParams::new(eps, 3);
            assert_eq!(plain.query(&g, params), assist.query(&g, params));
        }
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

        // At 512 × 16 on unit weights every σ estimate is within the
        // tolerance band of the exact value.
        let exact = SimilarityIndex::build(&g, 2);
        let band = approx.sketches().unwrap().tolerance();
        for v in g.vertices() {
            let (nbrs, sigs) = approx.neighbor_order(v);
            for (&q, &s) in nbrs.iter().zip(sigs) {
                let want = if q == v { 1.0 } else { sigma_raw(&g, v, q) };
                assert!((s - want).abs() <= 3.0 * band, "σ̂({v},{q}) = {s} vs {want}");
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
