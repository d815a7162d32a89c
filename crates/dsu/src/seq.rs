//! Sequential union-find with union by rank and path halving.

use crate::DsuCounters;

/// The textbook disjoint-set structure [CLRS, ch. 21] used by the sequential
/// algorithms. `Find`/`Union` run in amortized `O(α(n))`.
///
/// Operation counters are maintained so the harness can reproduce Fig. 12
/// (number of Union operations of anySCAN vs pSCAN vs |V|).
#[derive(Debug, Clone)]
pub struct DsuSeq {
    parent: Vec<u32>,
    rank: Vec<u8>,
    counters: DsuCounters,
    /// Number of disjoint sets currently tracked.
    num_sets: usize,
}

impl DsuSeq {
    /// Creates `n` singleton sets `{0}, {1}, …, {n-1}`.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        DsuSeq {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            counters: DsuCounters::default(),
            num_sets: n,
        }
    }

    /// Rebuilds a structure from a parent forest snapshot (e.g. loaded from
    /// a checkpoint) and previously accumulated counters. The snapshot must
    /// be *canonical*: every entry points directly at its set's root
    /// (`parent[parent[x]] == parent[x]`), which is how
    /// [`find_immutable`](Self::find_immutable) flattens one. Ranks restart
    /// at zero — union-by-rank stays correct, only tree shapes differ.
    pub fn from_parts(parent: Vec<u32>, counters: DsuCounters) -> Result<DsuSeq, String> {
        let n = parent.len();
        if n > u32::MAX as usize {
            return Err(format!("{n} elements exceed u32 ids"));
        }
        let mut num_sets = 0;
        for (x, &p) in parent.iter().enumerate() {
            if p as usize >= n {
                return Err(format!("element {x}: parent {p} out of range"));
            }
            if p == x as u32 {
                num_sets += 1;
            } else if parent[p as usize] != p {
                return Err(format!(
                    "element {x}: parent {p} is not a root (snapshot not canonical)"
                ));
            }
        }
        Ok(DsuSeq {
            parent,
            rank: vec![0; n],
            counters,
            num_sets,
        })
    }

    /// The canonical parent forest: every element mapped to its root
    /// (a snapshot accepted by [`from_parts`](Self::from_parts)).
    pub fn roots(&self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .map(|x| self.find_immutable(x))
            .collect()
    }

    /// Appends a fresh singleton set and returns its id.
    pub fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        self.num_sets += 1;
        id
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if no elements are tracked.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Finds the representative of `x`'s set, halving the path on the way.
    pub fn find(&mut self, mut x: u32) -> u32 {
        self.counters.finds += 1;
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    /// Read-only find (no path compression, no counter bump); useful from
    /// contexts holding only a shared borrow.
    pub fn find_immutable(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            x = p;
        }
    }

    /// Merges the sets containing `x` and `y`; returns true if they were
    /// distinct (only such calls count toward [`DsuCounters::unions`]).
    pub fn union(&mut self, x: u32, y: u32) -> bool {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx == ry {
            return false;
        }
        self.counters.unions += 1;
        self.num_sets -= 1;
        let (hi, lo) = if self.rank[rx as usize] >= self.rank[ry as usize] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        true
    }

    /// True if `x` and `y` share a set.
    pub fn same_set(&mut self, x: u32, y: u32) -> bool {
        self.find(x) == self.find(y)
    }

    /// Snapshot of the operation counters.
    pub fn counters(&self) -> DsuCounters {
        self.counters
    }

    /// Canonical labeling: `labels[x]` is the smallest element of `x`'s set.
    /// Useful to compare two structures for set-partition equality.
    pub fn labeling(&mut self) -> Vec<u32> {
        let n = self.len();
        let mut smallest = vec![u32::MAX; n];
        for x in 0..n as u32 {
            let r = self.find(x) as usize;
            if smallest[r] > x {
                smallest[r] = x;
            }
        }
        (0..n as u32)
            .map(|x| smallest[self.find_immutable(x) as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn singletons_at_start() {
        let mut d = DsuSeq::new(5);
        assert_eq!(d.num_sets(), 5);
        for x in 0..5 {
            assert_eq!(d.find(x), x);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut d = DsuSeq::new(4);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert!(!d.union(1, 0), "repeat union must be a no-op");
        assert!(d.union(0, 2));
        assert_eq!(d.num_sets(), 1);
        assert_eq!(d.counters().unions, 3);
        assert!(d.same_set(1, 3));
    }

    #[test]
    fn push_adds_singletons() {
        let mut d = DsuSeq::new(2);
        let id = d.push();
        assert_eq!(id, 2);
        assert_eq!(d.len(), 3);
        assert!(!d.same_set(0, 2));
        d.union(0, 2);
        assert!(d.same_set(0, 2));
    }

    #[test]
    fn labeling_is_canonical() {
        let mut d = DsuSeq::new(6);
        d.union(4, 2);
        d.union(2, 5);
        d.union(0, 1);
        assert_eq!(d.labeling(), vec![0, 0, 2, 3, 2, 2]);
    }

    #[test]
    fn find_immutable_matches_find() {
        let mut d = DsuSeq::new(10);
        for i in 0..9 {
            d.union(i, i + 1);
        }
        for x in 0..10 {
            assert_eq!(d.find_immutable(x), d.find(x));
        }
    }

    #[test]
    fn empty() {
        let d = DsuSeq::new(0);
        assert!(d.is_empty());
        assert_eq!(d.num_sets(), 0);
    }

    #[test]
    fn roots_from_parts_roundtrip() {
        let mut d = DsuSeq::new(6);
        d.union(0, 3);
        d.union(3, 5);
        d.union(1, 2);
        let restored = DsuSeq::from_parts(d.roots(), d.counters()).unwrap();
        assert_eq!(restored.num_sets(), d.num_sets());
        assert_eq!(restored.counters(), d.counters());
        let mut a = restored;
        assert_eq!(a.labeling(), d.labeling());

        // Invalid snapshots are rejected.
        assert!(DsuSeq::from_parts(vec![5, 0, 0], DsuCounters::default()).is_err());
        assert!(DsuSeq::from_parts(vec![1, 2, 2], DsuCounters::default()).is_err());
    }

    proptest! {
        /// The DSU partition must equal a naive reference labeling under any
        /// operation sequence.
        #[test]
        fn matches_naive_reference(ops in proptest::collection::vec((0u32..40, 0u32..40), 0..200)) {
            let n = 40;
            let mut d = DsuSeq::new(n);
            let mut naive: Vec<u32> = (0..n as u32).collect();
            for (a, b) in ops {
                let (la, lb) = (naive[a as usize], naive[b as usize]);
                let merged_distinct = la != lb;
                if merged_distinct {
                    for l in naive.iter_mut() {
                        if *l == lb {
                            *l = la;
                        }
                    }
                }
                prop_assert_eq!(d.union(a, b), merged_distinct);
            }
            for x in 0..n as u32 {
                for y in 0..n as u32 {
                    prop_assert_eq!(
                        d.same_set(x, y),
                        naive[x as usize] == naive[y as usize],
                        "disagree on ({}, {})", x, y
                    );
                }
            }
            // num_sets must equal the number of distinct naive labels.
            let mut labels: Vec<u32> = naive.clone();
            labels.sort_unstable();
            labels.dedup();
            prop_assert_eq!(d.num_sets(), labels.len());
        }

        /// Rank union keeps trees shallow: find never loops excessively.
        #[test]
        fn long_union_chains_stay_fast(n in 1usize..500) {
            let mut d = DsuSeq::new(n);
            for i in 0..n as u32 - 1 {
                d.union(i, i + 1);
            }
            prop_assert_eq!(d.num_sets(), 1);
            let root = d.find(0);
            for x in 0..n as u32 {
                prop_assert_eq!(d.find(x), root);
            }
        }
    }
}
