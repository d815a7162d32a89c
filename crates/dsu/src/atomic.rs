//! Lock-free concurrent union-find.
//!
//! Parents live in `AtomicU32`s; `find` applies path halving with benign-race
//! CAS updates, and `union` links roots by rank with a CAS retry loop — the
//! classic wait-free-find design of Anderson & Woll, also used by the
//! parallel DBSCAN of Patwary et al. [28] that the paper cites as prior art
//! for disjoint-set-based parallel clustering.
//!
//! Linearizability argument (informal): a root is only ever modified by the
//! CAS in `union`, which succeeds exactly once per root (a node stops being a
//! root forever afterwards). Path-halving CASes only replace a node's parent
//! with its current grandparent, which preserves the set structure. Ranks are
//! updated racily, which can only cost balance, never correctness.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::DsuCounters;

/// Concurrent disjoint-set structure with lock-free `find` and `union`.
#[derive(Debug)]
pub struct AtomicDsu {
    parent: Vec<AtomicU32>,
    rank: Vec<AtomicU32>,
    unions: AtomicU64,
    finds: AtomicU64,
}

impl AtomicDsu {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        AtomicDsu {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
            rank: (0..n).map(|_| AtomicU32::new(0)).collect(),
            unions: AtomicU64::new(0),
            finds: AtomicU64::new(0),
        }
    }

    /// Builds from an existing sequential structure (set partition is
    /// preserved; counters restart at the sequential structure's values).
    pub fn from_seq(seq: &crate::DsuSeq) -> Self {
        let n = seq.len();
        let d = AtomicDsu::new(n);
        for x in 0..n as u32 {
            let r = seq.find_immutable(x);
            d.parent[x as usize].store(r, Ordering::Relaxed);
        }
        d.unions.store(seq.counters().unions, Ordering::Relaxed);
        d.finds.store(seq.counters().finds, Ordering::Relaxed);
        d
    }

    /// Number of distinct sets (linear scan; call it outside hot loops).
    pub fn num_sets(&self) -> usize {
        (0..self.parent.len() as u32)
            .filter(|&x| self.parent[x as usize].load(Ordering::Acquire) == x)
            .count()
    }

    /// Canonical labeling: each element mapped to the smallest member of its
    /// set. Only meaningful while no concurrent mutation is in flight.
    pub fn labeling(&self) -> Vec<u32> {
        let n = self.parent.len();
        let mut smallest = vec![u32::MAX; n];
        let roots: Vec<u32> = (0..n as u32).map(|x| self.find(x)).collect();
        for x in 0..n as u32 {
            let r = roots[x as usize] as usize;
            if smallest[r] > x {
                smallest[r] = x;
            }
        }
        roots.into_iter().map(|r| smallest[r as usize]).collect()
    }

    /// Returns the current representative of `x`'s set.
    pub fn find(&self, mut x: u32) -> u32 {
        self.finds.fetch_add(1, Ordering::Relaxed);
        loop {
            let p = self.parent[x as usize].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp == p {
                return p;
            }
            // Path halving; failure is benign (someone else helped).
            let _ = self.parent[x as usize].compare_exchange_weak(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            x = gp;
        }
    }

    /// Merges the sets of `x` and `y`; returns true if they were distinct.
    pub fn union(&self, x: u32, y: u32) -> bool {
        let mut x = x;
        let mut y = y;
        loop {
            x = self.find(x);
            y = self.find(y);
            if x == y {
                return false;
            }
            let rx = self.rank[x as usize].load(Ordering::Relaxed);
            let ry = self.rank[y as usize].load(Ordering::Relaxed);
            // Link the lower-rank root under the higher-rank one; tie-break
            // by id so both sides attempt the same orientation.
            let (lo, hi, r_lo, r_hi) = if (rx, x) < (ry, y) {
                (x, y, rx, ry)
            } else {
                (y, x, ry, rx)
            };
            match self.parent[lo as usize].compare_exchange(
                lo,
                hi,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if r_lo == r_hi {
                        // Racy rank bump: affects balance only.
                        let _ = self.rank[hi as usize].compare_exchange(
                            r_hi,
                            r_hi + 1,
                            Ordering::AcqRel,
                            Ordering::Relaxed,
                        );
                    }
                    self.unions.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(_) => {
                    // `lo` stopped being a root underneath us; retry from the
                    // new roots.
                    continue;
                }
            }
        }
    }

    /// True if `x` and `y` are currently in the same set.
    pub fn same_set(&self, x: u32, y: u32) -> bool {
        self.find(x) == self.find(y)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Snapshot of the operation counters.
    pub fn counters(&self) -> DsuCounters {
        DsuCounters {
            finds: self.finds.load(Ordering::Relaxed),
            unions: self.unions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DsuSeq;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn sequential_semantics() {
        let d = AtomicDsu::new(5);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.union(3, 4));
        assert!(d.union(0, 4));
        assert!(d.same_set(1, 3));
        assert!(!d.same_set(1, 2));
        assert_eq!(d.num_sets(), 2);
        assert_eq!(d.counters().unions, 3);
    }

    #[test]
    fn set_operations_and_counters() {
        let d = AtomicDsu::new(4);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.same_set(0, 1));
        assert!(!d.same_set(0, 2));
        assert!(d.union(2, 3));
        assert!(d.union(0, 3));
        for a in 0..4 {
            for b in 0..4 {
                assert!(d.same_set(a, b));
            }
        }
        assert_eq!(d.counters().unions, 3);
        assert!(AtomicDsu::new(0).is_empty());
    }

    #[test]
    fn from_seq_preserves_partition() {
        let mut s = DsuSeq::new(8);
        s.union(0, 3);
        s.union(3, 7);
        s.union(1, 2);
        let d = AtomicDsu::from_seq(&s);
        for x in 0..8u32 {
            for y in 0..8u32 {
                assert_eq!(d.same_set(x, y), s.same_set(x, y), "({x},{y})");
            }
        }
        assert_eq!(d.counters().unions, s.counters().unions);
    }

    #[test]
    fn labeling_matches_seq() {
        let mut s = DsuSeq::new(6);
        let d = AtomicDsu::new(6);
        for (a, b) in [(4u32, 2u32), (2, 5), (0, 1)] {
            s.union(a, b);
            d.union(a, b);
        }
        assert_eq!(d.labeling(), s.labeling());
    }

    #[test]
    fn concurrent_stress_agrees_with_sequential() {
        // Same random operation multiset applied concurrently and
        // sequentially must yield the same partition (unions commute).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 2_000u32;
        let mut rng = StdRng::seed_from_u64(99);
        let ops: Vec<(u32, u32)> = (0..5_000)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();

        let mut seq = DsuSeq::new(n as usize);
        for &(a, b) in &ops {
            seq.union(a, b);
        }

        for threads in [2usize, 4, 8] {
            let d = Arc::new(AtomicDsu::new(n as usize));
            let merged = std::sync::atomic::AtomicU64::new(0);
            crossbeam::thread::scope(|s| {
                for t in 0..threads {
                    let d = Arc::clone(&d);
                    let ops = &ops;
                    let merged = &merged;
                    s.spawn(move |_| {
                        let mut local = 0u64;
                        for &(a, b) in ops.iter().skip(t).step_by(threads) {
                            if d.union(a, b) {
                                local += 1;
                            }
                        }
                        merged.fetch_add(local, Ordering::Relaxed);
                    });
                }
            })
            .unwrap();
            // Exactly (n - num_sets) successful unions can ever happen.
            assert_eq!(
                merged.load(Ordering::Relaxed),
                (n as usize - d.num_sets()) as u64
            );
            assert_eq!(d.counters().unions, merged.load(Ordering::Relaxed));
            // Partition equality with the sequential run.
            let mut seq_labels = seq.labeling();
            let atomic_labels = d.labeling();
            seq_labels.iter_mut().for_each(|_| {}); // same canonical form already
            assert_eq!(
                atomic_labels, seq_labels,
                "partition mismatch at {threads} threads"
            );
        }
    }

    proptest! {
        #[test]
        fn matches_seq_on_random_ops(ops in proptest::collection::vec((0u32..30, 0u32..30), 0..150)) {
            let d = AtomicDsu::new(30);
            let mut s = DsuSeq::new(30);
            for (a, b) in ops {
                prop_assert_eq!(d.union(a, b), s.union(a, b));
            }
            prop_assert_eq!(d.labeling(), s.labeling());
            prop_assert_eq!(d.num_sets(), s.num_sets());
        }
    }
}
