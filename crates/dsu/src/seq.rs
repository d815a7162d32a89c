//! Sequential union-find with union by rank and path halving.

/// The textbook disjoint-set structure [CLRS, ch. 21] used by the sequential
/// algorithms. `Find`/`Union` run in amortized `O(α(n))`.
#[derive(Debug, Clone)]
pub struct DsuSeq {
    parent: Vec<u32>,
    rank: Vec<u8>,
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
            num_sets: n,
        }
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

    /// Merges the sets containing `x` and `y`; returns true if they were
    /// distinct.
    pub fn union(&mut self, x: u32, y: u32) -> bool {
        let rx = self.find(x);
        let ry = self.find(y);
        if rx == ry {
            return false;
        }
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

    /// Canonical labeling: `labels[x]` is the smallest element of `x`'s set.
    /// Useful to compare two structures for set-partition equality.
    pub fn labeling(&mut self) -> Vec<u32> {
        let n = self.len();
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
        assert!(d.same_set(1, 3));
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
    fn empty() {
        let d = DsuSeq::new(0);
        assert!(d.is_empty());
        assert_eq!(d.num_sets(), 0);
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
