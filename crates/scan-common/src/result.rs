//! Clustering results and vertex roles.

use anyscan_graph::{CsrGraph, VertexId};

/// Sentinel label for vertices outside every cluster (hubs and outliers).
pub const NOISE: u32 = u32::MAX;

/// Label for vertices an anytime snapshot has not classified yet. Treated as
/// noise by the metrics (the paper scores intermediate results the same way).
pub const UNCLASSIFIED: u32 = u32::MAX - 1;

/// The role SCAN assigns to each vertex (Definition 3 plus the hub/outlier
/// split of the original SCAN paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// `|N^ε| ≥ μ`.
    Core,
    /// Non-core with a core ε-neighbor.
    Border,
    /// Noise adjacent (by plain edges) to two or more distinct clusters.
    Hub,
    /// Noise that is not a hub.
    Outlier,
    /// Not yet decided (anytime snapshots only).
    Unclassified,
}

/// Result of a SCAN-family run: a cluster label and a role per vertex.
///
/// Labels are arbitrary `u32`s (use [`Clustering::canonicalize`] for a dense
/// renumbering); `NOISE` marks hubs/outliers, `UNCLASSIFIED` marks vertices
/// an anytime snapshot has not reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    pub labels: Vec<u32>,
    pub roles: Vec<Role>,
}

impl Clustering {
    /// An all-unclassified result over `n` vertices.
    pub fn unclassified(n: usize) -> Self {
        Clustering {
            labels: vec![UNCLASSIFIED; n],
            roles: vec![Role::Unclassified; n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if the clustering covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Renumbers cluster labels densely (0..k, in order of first appearance)
    /// in place, leaving `NOISE`/`UNCLASSIFIED` fixed. Returns the number of
    /// clusters.
    ///
    /// Hash-free: labels below `len` (every label the SCAN family assigns)
    /// remap through a dense table; the rare larger ones through a sorted
    /// side table.
    pub fn canonicalize(&mut self) -> usize {
        const UNSET: u32 = u32::MAX;
        let bound = dense_bound(self.labels.len());
        let large = self.large_labels();
        let mut dense = vec![UNSET; bound as usize];
        let mut sparse = vec![UNSET; large.len()];
        let mut next = 0u32;
        for l in self.labels.iter_mut() {
            if *l == NOISE || *l == UNCLASSIFIED {
                continue;
            }
            let slot = if *l < bound {
                &mut dense[*l as usize]
            } else {
                &mut sparse[large.binary_search(l).expect("collected above")]
            };
            if *slot == UNSET {
                *slot = next;
                next += 1;
            }
            *l = *slot;
        }
        next as usize
    }

    /// Number of distinct (non-noise) clusters. Hash-free, like
    /// [`Clustering::canonicalize`]: a bitmap over labels below `len`, plus
    /// the sorted distinct labels at or above it.
    pub fn num_clusters(&self) -> usize {
        Clustering::count_clusters(&self.labels)
    }

    /// [`Clustering::num_clusters`] of a bare label array (a wire-form
    /// answer keeps labels without a `Clustering` around them).
    pub fn count_clusters(labels: &[u32]) -> usize {
        let bound = dense_bound(labels.len());
        // One bit per dense label, plus an overflow bit at `bound` that
        // every other label (sentinels included) lands on, so no label
        // takes an unpredictable branch; the overflow bit is dropped below.
        let mut seen = vec![0u64; bound as usize / 64 + 1];
        let mut large = Vec::new();
        for &l in labels {
            let slot = l.min(bound) as usize;
            seen[slot / 64] |= 1 << (slot % 64);
            if is_large(l, bound) {
                large.push(l);
            }
        }
        seen[bound as usize / 64] &= !(1 << (bound % 64));
        large.sort_unstable();
        large.dedup();
        seen.iter().map(|w| w.count_ones() as usize).sum::<usize>() + large.len()
    }

    /// The distinct cluster labels at or above [`dense_bound`],
    /// sorted (sentinels excluded).
    fn large_labels(&self) -> Vec<u32> {
        let bound = dense_bound(self.labels.len());
        let mut large: Vec<u32> = self
            .labels
            .iter()
            .copied()
            .filter(|&l| is_large(l, bound))
            .collect();
        large.sort_unstable();
        large.dedup();
        large
    }

    /// Sizes of all clusters, keyed by label.
    pub fn cluster_sizes(&self) -> std::collections::HashMap<u32, usize> {
        let mut sizes = std::collections::HashMap::new();
        for &l in &self.labels {
            if l != NOISE && l != UNCLASSIFIED {
                *sizes.entry(l).or_insert(0) += 1;
            }
        }
        sizes
    }

    /// Counts `(cores, borders, hubs, outliers, unclassified)` — the right
    /// panel of Fig. 7.
    pub fn role_counts(&self) -> RoleCounts {
        let mut c = RoleCounts::default();
        for &r in &self.roles {
            match r {
                Role::Core => c.cores += 1,
                Role::Border => c.borders += 1,
                Role::Hub => c.hubs += 1,
                Role::Outlier => c.outliers += 1,
                Role::Unclassified => c.unclassified += 1,
            }
        }
        c
    }

    /// Labels with every noise/unclassified vertex mapped into one shared
    /// synthetic cluster — the representation the paper feeds to NMI
    /// ("[noise vertices] could be regarded as members of a special
    /// cluster", §IV-A).
    pub fn labels_with_noise_cluster(&self) -> Vec<u32> {
        // Find a label id guaranteed unused by real clusters.
        let special = self
            .labels
            .iter()
            .filter(|&&l| l != NOISE && l != UNCLASSIFIED)
            .max()
            .map_or(0, |&m| m + 1);
        self.labels
            .iter()
            .map(|&l| {
                if l == NOISE || l == UNCLASSIFIED {
                    special
                } else {
                    l
                }
            })
            .collect()
    }

    /// Splits noise vertices into hubs and outliers: a noise vertex whose
    /// plain neighbors (excluding itself) touch ≥ 2 distinct clusters is a
    /// hub, else an outlier (SCAN's original post-processing).
    pub fn classify_noise(&mut self, g: &CsrGraph) {
        for v in 0..self.labels.len() as VertexId {
            if self.labels[v as usize] != NOISE {
                continue;
            }
            let mut first: Option<u32> = None;
            let mut is_hub = false;
            for &q in g.neighbor_ids(v) {
                if q == v {
                    continue;
                }
                let l = self.labels[q as usize];
                if l == NOISE || l == UNCLASSIFIED {
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
            self.roles[v as usize] = if is_hub { Role::Hub } else { Role::Outlier };
        }
    }
}

/// Labels below this bound index the dense tables of
/// [`Clustering::count_clusters`] and [`Clustering::canonicalize`]: the
/// label count `len`, capped so that the sentinels never fall below it.
fn dense_bound(len: usize) -> u32 {
    len.min(UNCLASSIFIED as usize) as u32
}

/// Whether `l` is a cluster label at or above `bound` (which is at most
/// `UNCLASSIFIED`). One comparison: labels below `bound` wrap around past
/// the range, and the two sentinels are the largest `u32`s.
fn is_large(l: u32, bound: u32) -> bool {
    l.wrapping_sub(bound) < UNCLASSIFIED - bound
}

/// Per-role tallies (Fig. 7 right panel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoleCounts {
    pub cores: usize,
    pub borders: usize,
    pub hubs: usize,
    pub outliers: usize,
    pub unclassified: usize,
}

impl RoleCounts {
    /// Hubs + outliers (the combined bottom band of Fig. 7).
    pub fn noise(&self) -> usize {
        self.hubs + self.outliers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::GraphBuilder;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn canonicalize_renumbers_densely() {
        let mut c = Clustering {
            labels: vec![7, 7, NOISE, 3, 3, 9, UNCLASSIFIED],
            roles: vec![Role::Core; 7],
        };
        let k = c.canonicalize();
        assert_eq!(k, 3);
        assert_eq!(c.labels, vec![0, 0, NOISE, 1, 1, 2, UNCLASSIFIED]);
    }

    #[test]
    fn counts_and_sizes() {
        let c = Clustering {
            labels: vec![0, 0, 1, NOISE, NOISE, UNCLASSIFIED],
            roles: vec![
                Role::Core,
                Role::Border,
                Role::Core,
                Role::Hub,
                Role::Outlier,
                Role::Unclassified,
            ],
        };
        assert_eq!(c.num_clusters(), 2);
        let sizes = c.cluster_sizes();
        assert_eq!(sizes[&0], 2);
        assert_eq!(sizes[&1], 1);
        let rc = c.role_counts();
        assert_eq!(
            (rc.cores, rc.borders, rc.hubs, rc.outliers, rc.unclassified),
            (2, 1, 1, 1, 1)
        );
        assert_eq!(rc.noise(), 2);
    }

    #[test]
    fn noise_cluster_mapping_uses_fresh_label() {
        let c = Clustering {
            labels: vec![0, 2, NOISE, UNCLASSIFIED],
            roles: vec![Role::Core, Role::Core, Role::Outlier, Role::Unclassified],
        };
        let l = c.labels_with_noise_cluster();
        assert_eq!(l, vec![0, 2, 3, 3]);
    }

    #[test]
    fn hub_outlier_classification() {
        // Path: cluster A = {0,1}, cluster B = {3,4}; vertex 2 bridges both
        // (hub); vertex 5 dangles off 4... attach to nothing -> outlier.
        let g =
            GraphBuilder::from_unweighted_edges(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (5, 5)])
                .unwrap();
        let mut c = Clustering {
            labels: vec![0, 0, NOISE, 1, 1, NOISE],
            roles: vec![
                Role::Core,
                Role::Core,
                Role::Outlier,
                Role::Core,
                Role::Core,
                Role::Outlier,
            ],
        };
        c.classify_noise(&g);
        assert_eq!(c.roles[2], Role::Hub);
        assert_eq!(c.roles[5], Role::Outlier);
    }

    #[test]
    fn unclassified_constructor() {
        let c = Clustering::unclassified(3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.num_clusters(), 0);
        assert_eq!(c.role_counts().unclassified, 3);
    }

    /// Labels mixing every class the hash-free counts distinguish: small
    /// labels (mostly `< len`), repeated labels above `len`, labels just
    /// below the sentinels, `NOISE` and `UNCLASSIFIED`. Lengths start at 0,
    /// so the empty clustering is drawn too.
    fn arb_labels() -> impl Strategy<Value = Vec<u32>> {
        proptest::collection::vec((0u8..5, 0u32..24), 0..48).prop_map(|draws| {
            draws
                .into_iter()
                .map(|(class, x)| match class {
                    0 => x,
                    1 => 1_000 + x,
                    2 => UNCLASSIFIED - 1 - x % 3,
                    3 => NOISE,
                    _ => UNCLASSIFIED,
                })
                .collect()
        })
    }

    fn with_labels(labels: Vec<u32>) -> Clustering {
        let n = labels.len();
        Clustering {
            labels,
            roles: vec![Role::Core; n],
        }
    }

    proptest! {
        #[test]
        fn num_clusters_matches_a_hash_set(labels in arb_labels()) {
            let reference: HashSet<u32> = labels
                .iter()
                .copied()
                .filter(|&l| l != NOISE && l != UNCLASSIFIED)
                .collect();
            prop_assert_eq!(with_labels(labels).num_clusters(), reference.len());
        }

        #[test]
        fn canonicalize_matches_a_hash_map(labels in arb_labels()) {
            let mut map = HashMap::new();
            let expected: Vec<u32> = labels
                .iter()
                .map(|&l| {
                    if l == NOISE || l == UNCLASSIFIED {
                        return l;
                    }
                    let next = map.len() as u32;
                    *map.entry(l).or_insert(next)
                })
                .collect();
            let mut c = with_labels(labels);
            prop_assert_eq!(c.canonicalize(), map.len());
            prop_assert_eq!(c.labels, expected);
        }
    }
}
