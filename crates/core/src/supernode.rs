//! Super-nodes: the summarized ε-neighborhoods of examined cores.

use anyscan_graph::VertexId;

/// One super-node: a core's structural neighborhood (Lemma 1 — everything in
/// it belongs to one cluster).
#[derive(Debug, Clone)]
pub struct SuperNode {
    /// The examined core this super-node summarizes.
    pub rep: VertexId,
    /// `N^ε_rep`, including `rep` itself. Step 1 creates every super-node,
    /// one per examined core, so there are at most |V| of them.
    pub members: Vec<VertexId>,
}

/// The super-node list plus the inverse vertex → super-node index.
#[derive(Debug, Default)]
pub struct SuperNodes {
    nodes: Vec<SuperNode>,
    /// `memberships[v]` = ids of the super-nodes containing `v` (`SN_v`).
    memberships: Vec<Vec<u32>>,
}

impl SuperNodes {
    /// Empty registry over `n` vertices.
    pub fn new(n: usize) -> Self {
        SuperNodes {
            nodes: Vec::new(),
            memberships: vec![Vec::new(); n],
        }
    }

    /// Registers a super-node and its memberships; returns its id.
    pub fn insert(&mut self, rep: VertexId, members: Vec<VertexId>) -> u32 {
        debug_assert!(members.contains(&rep), "representative must be a member");
        let id = self.nodes.len() as u32;
        for &m in &members {
            self.memberships[m as usize].push(id);
        }
        self.nodes.push(SuperNode { rep, members });
        id
    }

    /// Number of super-nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no super-node exists yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The super-node with id `id`.
    pub fn node(&self, id: u32) -> &SuperNode {
        &self.nodes[id as usize]
    }

    /// `SN_v`: ids of the super-nodes containing `v`.
    #[inline]
    pub fn of(&self, v: VertexId) -> &[u32] {
        &self.memberships[v as usize]
    }

    /// First super-node of `v`, if any — the handle used for `clu(v)`.
    #[inline]
    pub fn first_of(&self, v: VertexId) -> Option<u32> {
        self.memberships[v as usize].first().copied()
    }

    /// Total membership entries (bounded by Σ|N^ε| ≤ O(|E|)).
    pub fn total_memberships(&self) -> usize {
        self.memberships.iter().map(Vec::len).sum()
    }

    /// Attaches `v` to an existing super-node (Step 4 border adoption).
    pub fn attach(&mut self, v: VertexId, snid: u32) {
        debug_assert!((snid as usize) < self.nodes.len());
        self.memberships[v as usize].push(snid);
    }

    /// Serialization view: the node list and the per-vertex membership
    /// index. Memberships must be captured separately from node member
    /// lists — Step 4's [`attach`](Self::attach) adds membership entries
    /// that never appear in any node's `members`.
    pub(crate) fn parts(&self) -> (&[SuperNode], &[Vec<u32>]) {
        (&self.nodes, &self.memberships)
    }

    /// Rebuilds a registry from checkpointed parts (inverse of
    /// [`parts`](Self::parts)).
    pub(crate) fn from_parts(nodes: Vec<SuperNode>, memberships: Vec<Vec<u32>>) -> Self {
        SuperNodes { nodes, memberships }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_builds_inverse_index() {
        let mut sn = SuperNodes::new(5);
        let a = sn.insert(0, vec![0, 1, 2]);
        let b = sn.insert(3, vec![2, 3, 4]);
        assert_eq!(sn.len(), 2);
        assert_eq!(sn.of(2), &[a, b]);
        assert_eq!(sn.of(0), &[a]);
        assert_eq!(sn.of(4), &[b]);
        assert_eq!(sn.first_of(1), Some(a));
        assert_eq!(sn.first_of(2), Some(a));
        assert_eq!(sn.node(b).rep, 3);
        assert_eq!(sn.total_memberships(), 6);
    }

    #[test]
    fn attach_extends_membership() {
        let mut sn = SuperNodes::new(3);
        let a = sn.insert(0, vec![0, 1]);
        assert_eq!(sn.first_of(2), None);
        sn.attach(2, a);
        assert_eq!(sn.first_of(2), Some(a));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "representative must be a member")]
    fn rep_must_be_member() {
        let mut sn = SuperNodes::new(3);
        let _ = sn.insert(0, vec![1, 2]);
    }
}
