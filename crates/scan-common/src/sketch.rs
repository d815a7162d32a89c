//! b-bit MinHash signatures over closed neighborhoods.
//!
//! Following the sketch-accelerated line of "Parallel Index-Based
//! Structural Graph Clustering and Its Approximation", every vertex gets a
//! fixed-width signature of its **closed** neighborhood Γ̄(v) = Γ(v) ∪ {v}:
//! `rows` independent MinHash rows, each truncated to the low `bits` bits
//! (b-bit MinHash, Li & König). Two signatures are compared with a packed
//! word-wise walk — `rows · bits / 64` XOR/mask operations, independent of
//! degree — and the matching-row rate `m` is de-biased for truncation
//! collisions to a Jaccard estimate
//!
//! ```text
//! Ĵ = (m − 2⁻ᵇ) / (1 − 2⁻ᵇ)          (clamped to [0, 1])
//! ```
//!
//! which converts to an estimated structural similarity through the
//! inclusion–exclusion identity `|A ∩ B| = J·(|A| + |B|) / (1 + J)`:
//!
//! ```text
//! σ̂(u, v) = |Γ̄(u) ∩ Γ̄(v)|_est / √(|Γ̄(u)|·|Γ̄(v)|)
//! ```
//!
//! **Error model.** Per-row matches are i.i.d. Bernoulli, so the standard
//! error of `m` is at most `0.5/√rows`. The estimator targets the
//! *unweighted* cosine: edge weights are invisible to a set sketch, which is
//! exact for unit-weight graphs and a documented source of bias on weighted
//! ones (DESIGN.md §11).
//!
//! Construction is deterministic: row `r` hashes vertex `x` with a
//! splitmix64-style mixer keyed on `seed` and `r`, so equal `(graph, rows,
//! bits, seed)` always yields byte-identical signatures regardless of
//! thread count.

use anyscan_graph::{CsrGraph, VertexId};
use anyscan_parallel::parallel_for_each_mut_with;

/// How the σ kernel uses neighborhood sketches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SketchMode {
    /// No sketches: every decision runs the exact kernels (the baseline).
    #[default]
    Off,
    /// The sketch estimate decides outright (`σ̂ ≥ ε` ⇒ similar). Signature
    /// size is the error knob; see the crate-level error model.
    Approx,
}

impl SketchMode {
    /// Stable one-byte code used by the `ASIX`/`ASCK` serializers.
    pub fn code(self) -> u8 {
        match self {
            SketchMode::Off => 0,
            SketchMode::Approx => 2,
        }
    }

    /// Inverse of [`SketchMode::code`]; `None` for unknown codes. Code 1
    /// belonged to a retired exact "assist" mode whose clusterings and σ
    /// values were bit-identical to [`SketchMode::Off`], so it decodes as
    /// `Off` and older files still load.
    pub fn from_code(code: u8) -> Option<SketchMode> {
        match code {
            0 | 1 => Some(SketchMode::Off),
            2 => Some(SketchMode::Approx),
            _ => None,
        }
    }

    /// CLI spelling (`--sketch off|approx`).
    pub fn as_str(self) -> &'static str {
        match self {
            SketchMode::Off => "off",
            SketchMode::Approx => "approx",
        }
    }
}

impl std::str::FromStr for SketchMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(SketchMode::Off),
            "approx" => Ok(SketchMode::Approx),
            other => Err(format!(
                "unknown sketch mode {other:?} (expected off or approx)"
            )),
        }
    }
}

impl std::fmt::Display for SketchMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Default number of MinHash rows per signature.
pub const DEFAULT_ROWS: usize = 128;
/// Default truncation width in bits per row.
pub const DEFAULT_BITS: u32 = 8;
/// Hard cap on rows (keeps signatures and the ASIX section bounded).
pub const MAX_ROWS: usize = 4096;

/// Row widths that pack evenly into `u64` words.
pub const VALID_BITS: [u32; 5] = [1, 2, 4, 8, 16];

/// splitmix64 finalizer: the per-row hash of a vertex id.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// b-bit MinHash signatures for every closed neighborhood of a graph.
///
/// Storage is row-major per vertex: vertex `v` owns
/// `words_per_vertex` consecutive `u64` words, each packing `64 / bits`
/// row lanes in ascending row order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborhoodSketches {
    rows: usize,
    bits: u32,
    words_per_vertex: usize,
    seed: u64,
    data: Vec<u64>,
}

impl NeighborhoodSketches {
    /// Builds signatures for all `g.num_vertices()` closed neighborhoods on
    /// the shared worker pool.
    ///
    /// # Panics
    /// If `rows` is 0 or exceeds [`MAX_ROWS`], or `bits` is not one of
    /// [`VALID_BITS`].
    pub fn build(g: &CsrGraph, rows: usize, bits: u32, seed: u64, threads: usize) -> Self {
        assert!(
            (1..=MAX_ROWS).contains(&rows),
            "sketch rows {rows} outside 1..={MAX_ROWS}"
        );
        assert!(
            VALID_BITS.contains(&bits),
            "sketch bits {bits} not one of {VALID_BITS:?}"
        );
        let lanes = (64 / bits) as usize;
        let words_per_vertex = rows.div_ceil(lanes);
        let n = g.num_vertices();
        let mut data = vec![0u64; n * words_per_vertex];
        let mut signatures: Vec<&mut [u64]> = data.chunks_mut(words_per_vertex).collect();
        let sign = |_: &mut (), v: usize, words: &mut &mut [u64]| {
            sign_closed_neighborhood(g, v as VertexId, rows, bits, seed, words)
        };
        parallel_for_each_mut_with(threads, &mut signatures, || (), sign);
        NeighborhoodSketches {
            rows,
            bits,
            words_per_vertex,
            seed,
            data,
        }
    }

    /// Reassembles sketches from their serialized parts (the ASIX reader).
    /// Validates the same bounds as [`NeighborhoodSketches::build`] but
    /// returns an error message instead of panicking.
    pub fn from_raw_parts(
        rows: usize,
        bits: u32,
        seed: u64,
        num_vertices: usize,
        data: Vec<u64>,
    ) -> Result<Self, String> {
        if !(1..=MAX_ROWS).contains(&rows) {
            return Err(format!("sketch rows {rows} outside 1..={MAX_ROWS}"));
        }
        if !VALID_BITS.contains(&bits) {
            return Err(format!("sketch bits {bits} not one of {VALID_BITS:?}"));
        }
        let lanes = (64 / bits) as usize;
        let words_per_vertex = rows.div_ceil(lanes);
        let expect = num_vertices * words_per_vertex;
        if data.len() != expect {
            return Err(format!(
                "sketch data has {} words, expected {expect} ({num_vertices} vertices × {words_per_vertex})",
                data.len()
            ));
        }
        Ok(NeighborhoodSketches {
            rows,
            bits,
            words_per_vertex,
            seed,
            data,
        })
    }

    /// Number of MinHash rows per signature.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Truncation width in bits per row.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// `u64` words per vertex signature.
    pub fn words_per_vertex(&self) -> usize {
        self.words_per_vertex
    }

    /// Seed the row hashes were keyed on.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of signed vertices.
    pub fn num_vertices(&self) -> usize {
        self.data.len() / self.words_per_vertex
    }

    /// The packed signature words (serialization).
    pub fn raw_data(&self) -> &[u64] {
        &self.data
    }

    #[inline]
    fn words(&self, v: VertexId) -> &[u64] {
        let start = v as usize * self.words_per_vertex;
        &self.data[start..start + self.words_per_vertex]
    }

    /// Fraction of rows whose b-bit lanes agree between `u` and `v`.
    pub fn match_rate(&self, u: VertexId, v: VertexId) -> f64 {
        let (wu, wv) = (self.words(u), self.words(v));
        let lanes = (64 / self.bits) as usize;
        let mut matches = 0u32;
        let mut remaining = self.rows;
        for (a, b) in wu.iter().zip(wv) {
            let in_word = remaining.min(lanes);
            matches += matching_lanes(a ^ b, self.bits, in_word);
            remaining -= in_word;
        }
        f64::from(matches) / self.rows as f64
    }

    /// Estimated Jaccard similarity of the two closed neighborhoods,
    /// de-biased for b-bit truncation collisions and clamped to `[0, 1]`.
    pub fn jaccard_estimate(&self, u: VertexId, v: VertexId) -> f64 {
        let c = collision_rate(self.bits);
        ((self.match_rate(u, v) - c) / (1.0 - c)).clamp(0.0, 1.0)
    }

    /// Estimated structural similarity σ̂(u, v) from the Jaccard estimate
    /// and the closed degrees (see the crate-level error model).
    pub fn sigma_estimate(&self, g: &CsrGraph, u: VertexId, v: VertexId) -> f64 {
        let j = self.jaccard_estimate(u, v);
        let du = g.degree(u) as f64;
        let dv = g.degree(v) as f64;
        let inter = j * (du + dv) / (1.0 + j);
        (inter / (du * dv).sqrt()).clamp(0.0, 1.0)
    }
}

/// Expected matching-row rate between two *independent* sets under b-bit
/// truncation: 2⁻ᵇ.
fn collision_rate(bits: u32) -> f64 {
    1.0 / (1u64 << bits) as f64
}

/// Counts lanes of width `bits` that are zero in `diff`, considering only
/// the first `lanes` lanes of the word.
#[inline]
fn matching_lanes(diff: u64, bits: u32, lanes: usize) -> u32 {
    // SWAR: OR-collapse every lane onto its own LSB (log₂ b shift-ORs;
    // bits shifted across a lane boundary only ever land in the *upper*
    // half of the lower lane, never on its LSB), then count the LSBs that
    // stayed zero among the live lanes with a single popcount.
    let mut d = diff;
    let mut w = bits;
    while w > 1 {
        w /= 2;
        d |= d >> w;
    }
    let lane_lsbs = if bits == 64 {
        1u64
    } else {
        u64::MAX / ((1u64 << bits) - 1)
    };
    let live = if lanes as u32 * bits >= 64 {
        u64::MAX
    } else {
        (1u64 << (lanes as u32 * bits)) - 1
    };
    (!d & lane_lsbs & live).count_ones()
}

/// Signs one closed neighborhood into `words` (already zeroed,
/// `words.len() == rows.div_ceil(64 / bits)`).
fn sign_closed_neighborhood(
    g: &CsrGraph,
    v: VertexId,
    rows: usize,
    bits: u32,
    seed: u64,
    words: &mut [u64],
) {
    let lanes = (64 / bits) as usize;
    let lane_mask = if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let nbrs = g.neighbor_ids(v);
    for r in 0..rows {
        // Row key: one mix of (seed, row) reused for every vertex of the row.
        let row_key = mix64(seed ^ (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut min = mix64(row_key ^ u64::from(v));
        for &x in nbrs {
            if x == v {
                continue;
            }
            let h = mix64(row_key ^ u64::from(x));
            min = min.min(h);
        }
        let lane = min & lane_mask;
        words[r / lanes] |= lane << ((r % lanes) as u32 * bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use anyscan_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path_graph(n: usize) -> CsrGraph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v as VertexId, (v + 1) as VertexId, 1.0);
        }
        b.build()
    }

    #[test]
    fn mode_codes_roundtrip() {
        for mode in [SketchMode::Off, SketchMode::Approx] {
            assert_eq!(SketchMode::from_code(mode.code()), Some(mode));
            assert_eq!(mode.as_str().parse::<SketchMode>().unwrap(), mode);
        }
        assert_eq!(
            SketchMode::from_code(1),
            Some(SketchMode::Off),
            "retired assist code"
        );
        assert_eq!(SketchMode::from_code(9), None);
        assert!("fuzzy".parse::<SketchMode>().is_err());
        assert!("assist".parse::<SketchMode>().is_err());
    }

    #[test]
    fn build_is_deterministic_across_thread_counts() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = erdos_renyi(
            &mut rng,
            200,
            1000,
            WeightModel::Uniform { lo: 0.2, hi: 1.0 },
        );
        let a = NeighborhoodSketches::build(&g, 96, 8, 42, 1);
        let b = NeighborhoodSketches::build(&g, 96, 8, 42, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn identical_neighborhoods_match_fully() {
        // K4: every closed neighborhood is {0,1,2,3}.
        let mut b = GraphBuilder::new(4);
        for u in 0..4u32 {
            for v in u + 1..4 {
                b.add_edge(u, v, 1.0);
            }
        }
        let g = b.build();
        let sk = NeighborhoodSketches::build(&g, 64, 8, 1, 1);
        for u in 0..4u32 {
            for v in 0..4 {
                assert_eq!(sk.match_rate(u, v), 1.0);
                assert_eq!(sk.jaccard_estimate(u, v), 1.0);
            }
        }
        // Jaccard 1 with equal degrees ⇒ σ̂ = 1.
        assert!((sk.sigma_estimate(&g, 0, 3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_neighborhoods_estimate_near_zero() {
        // Two far-apart path segments: closed neighborhoods are disjoint.
        let g = path_graph(40);
        let sk = NeighborhoodSketches::build(&g, 256, 8, 3, 1);
        let j = sk.jaccard_estimate(0, 30);
        assert!(j < 0.1, "disjoint Jaccard estimate {j} too large");
    }

    #[test]
    fn estimate_tracks_exact_sigma_on_unit_weights() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = erdos_renyi(&mut rng, 150, 1100, WeightModel::Unit);
        let sk = NeighborhoodSketches::build(&g, 512, 16, 5, 2);
        let mut worst: f64 = 0.0;
        for u in g.vertices() {
            for &v in g.neighbor_ids(u) {
                if v <= u {
                    continue;
                }
                let exact = crate::kernel::sigma_raw(&g, u, v);
                let est = sk.sigma_estimate(&g, u, v);
                worst = worst.max((exact - est).abs());
            }
        }
        // 512 rows × 16 bits: estimates should sit well within ~3 standard
        // errors of the exact unweighted cosine.
        assert!(worst < 0.16, "worst |σ − σ̂| = {worst}");
    }

    #[test]
    fn raw_parts_roundtrip_and_validation() {
        let g = path_graph(10);
        let sk = NeighborhoodSketches::build(&g, 33, 4, 9, 1);
        let back = NeighborhoodSketches::from_raw_parts(
            sk.rows(),
            sk.bits(),
            sk.seed(),
            sk.num_vertices(),
            sk.raw_data().to_vec(),
        )
        .unwrap();
        assert_eq!(back, sk);
        assert!(NeighborhoodSketches::from_raw_parts(0, 8, 9, 10, vec![]).is_err());
        assert!(NeighborhoodSketches::from_raw_parts(33, 7, 9, 10, vec![]).is_err());
        assert!(
            NeighborhoodSketches::from_raw_parts(33, 4, 9, 10, vec![0; 3]).is_err(),
            "length mismatch must be rejected"
        );
    }
}
