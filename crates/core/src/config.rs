//! anySCAN configuration.

use anyscan_graph::ReorderMode;
use anyscan_scan_common::sketch::{DEFAULT_BITS, DEFAULT_ROWS};
use anyscan_scan_common::HubBitmaps;
use anyscan_scan_common::{ScanParams, SketchMode};

/// Full configuration of an anySCAN run.
///
/// The paper's defaults are α = β = 8192 (sequential study, §IV-A) and
/// α = β = 32768 for the multicore study (§IV-B).
#[derive(Debug, Clone, Copy)]
pub struct AnyScanConfig {
    /// SCAN parameters (ε, μ).
    pub params: ScanParams,
    /// Step-1 block size: untouched vertices summarized per iteration.
    pub alpha: usize,
    /// Step-2/3 block size: candidates core-checked per iteration.
    pub beta: usize,
    /// Worker threads; 1 reproduces the sequential algorithm exactly.
    pub threads: usize,
    /// Seed of the random vertex draw order in Step 1.
    pub seed: u64,
    /// Section III-D similarity optimizations (Lemma-5 filter,
    /// early accept/reject). Ablation lever.
    pub optimizations: bool,
    /// Sort Step 2's candidate set by super-node count, descending
    /// (paper line 21). Ablation lever.
    pub sort_step2: bool,
    /// Sort Step 3's candidate set by degree, descending (paper line 36).
    /// Ablation lever.
    pub sort_step3: bool,
    /// Skip Step 2 entirely, leaving all merging to Step 3 — quantifies the
    /// strongly-related shortcut. The final result stays exact (Step 3
    /// subsumes the merges at higher cost). Ablation lever.
    pub skip_step2: bool,
    /// Lock-free symmetric edge-decision cache: remember each edge's
    /// ε-verdict (one tri-state atomic per CSR arc, O(E) memory) so no
    /// undirected edge is merge-joined twice across steps or directions.
    /// Ablation lever; exactness holds either way.
    pub edge_cache: bool,
    /// Run the finishing pass that decides the core/border role of vertices
    /// the pruning never examined. Cluster labels are final either way; with
    /// this off the run is cheaper but roles of some clustered vertices stay
    /// heuristic (reported as borders). Default on, so results are
    /// role-exact against SCAN.
    pub resolve_roles: bool,
    /// Cache-locality vertex reordering applied to the graph before the run.
    /// The driver itself clusters whatever labeling it is handed; this field
    /// travels in the checkpoint so a resumed run re-applies the same
    /// (deterministic) relabeling, and callers map output back to original
    /// ids via the [`anyscan_graph::VertexPermutation`].
    pub reorder: ReorderMode,
    /// MinHash neighborhood sketches: off (exact), or approx (the estimate
    /// decides, signature size as the error knob).
    pub sketch: SketchMode,
    /// MinHash rows per signature (estimate variance ∝ 1/rows).
    pub sketch_rows: usize,
    /// Bits kept per MinHash row (1, 2, 4, 8 or 16).
    pub sketch_bits: u32,
    /// Most hubs given packed bitmaps by the kernel's hub-bitmap layer
    /// (`--hub-cap`; caps bitmap memory).
    pub hub_max_hubs: usize,
    /// Closed-degree floor for hub-bitmap eligibility (`--hub-min-degree`).
    pub hub_min_degree: usize,
}

impl AnyScanConfig {
    /// Paper defaults with the given (ε, μ).
    pub fn new(params: ScanParams) -> Self {
        AnyScanConfig {
            params,
            alpha: 8192,
            beta: 8192,
            threads: 1,
            seed: 0x5CA7,
            optimizations: true,
            sort_step2: true,
            sort_step3: true,
            skip_step2: false,
            edge_cache: true,
            resolve_roles: true,
            reorder: ReorderMode::None,
            sketch: SketchMode::Off,
            sketch_rows: DEFAULT_ROWS,
            sketch_bits: DEFAULT_BITS,
            hub_max_hubs: HubBitmaps::DEFAULT_MAX_HUBS,
            hub_min_degree: HubBitmaps::DEFAULT_MIN_DEGREE,
        }
    }

    /// Builder-style block-size override (α = β = `size`).
    pub fn with_block_size(mut self, size: usize) -> Self {
        assert!(size >= 1, "block size must be positive");
        self.alpha = size;
        self.beta = size;
        self
    }

    /// Sets α = β to keep the paper's block-to-graph ratio at laptop scale.
    ///
    /// The paper runs α = 8192 against multi-million-vertex graphs
    /// (α/|V| ≈ 0.2 %); a block that *covers* the graph degenerates Step 1
    /// into plain SCAN (everything is range-queried before any state
    /// marking can save work). This helper picks `|V|/128`, clamped to
    /// `[32, 8192]` — the same fraction regime scaled down.
    pub fn with_auto_block_size(self, num_vertices: usize) -> Self {
        let size = (num_vertices / 128).clamp(32, 8192);
        self.with_block_size(size)
    }

    /// Builder-style thread-count override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style edge-decision-cache toggle.
    pub fn with_edge_cache(mut self, enabled: bool) -> Self {
        self.edge_cache = enabled;
        self
    }

    /// Builder-style reorder-mode override (recorded in checkpoints; the
    /// caller is responsible for actually relabeling the graph).
    pub fn with_reorder(mut self, mode: ReorderMode) -> Self {
        self.reorder = mode;
        self
    }

    /// Builder-style sketch-mode override.
    pub fn with_sketch(mut self, mode: SketchMode) -> Self {
        self.sketch = mode;
        self
    }

    /// Builder-style signature-size override (rows × bits).
    pub fn with_sketch_params(mut self, rows: usize, bits: u32) -> Self {
        self.sketch_rows = rows;
        self.sketch_bits = bits;
        self
    }

    /// Builder-style hub-bitmap tuning (`--hub-cap`, `--hub-min-degree`).
    pub fn with_hub_params(mut self, max_hubs: usize, min_degree: usize) -> Self {
        self.hub_max_hubs = max_hubs;
        self.hub_min_degree = min_degree;
        self
    }
}

impl Default for AnyScanConfig {
    fn default() -> Self {
        AnyScanConfig::new(ScanParams::paper_defaults())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AnyScanConfig::default();
        assert_eq!(c.alpha, 8192);
        assert_eq!(c.beta, 8192);
        assert_eq!(c.threads, 1);
        assert!(c.optimizations && c.sort_step2 && c.sort_step3 && !c.skip_step2);
    }

    #[test]
    fn builders_compose() {
        let c = AnyScanConfig::default()
            .with_block_size(256)
            .with_threads(4)
            .with_seed(9);
        assert_eq!((c.alpha, c.beta, c.threads, c.seed), (256, 256, 4, 9));
    }

    #[test]
    fn sketch_and_tuning_defaults() {
        let c = AnyScanConfig::default();
        assert_eq!(c.sketch, SketchMode::Off);
        assert_eq!((c.sketch_rows, c.sketch_bits), (128, 8));
        assert_eq!(c.hub_max_hubs, HubBitmaps::DEFAULT_MAX_HUBS);
        assert_eq!(c.hub_min_degree, HubBitmaps::DEFAULT_MIN_DEGREE);
        let c = c
            .with_sketch(SketchMode::Approx)
            .with_sketch_params(64, 4)
            .with_hub_params(32, 8);
        assert_eq!(c.sketch, SketchMode::Approx);
        assert_eq!((c.sketch_rows, c.sketch_bits), (64, 4));
        assert_eq!((c.hub_max_hubs, c.hub_min_degree), (32, 8));
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn rejects_zero_block() {
        let _ = AnyScanConfig::default().with_block_size(0);
    }
}
