//! Connected components by breadth-first traversal.

use std::collections::VecDeque;

use crate::csr::CsrGraph;

/// Assigns a component id to every vertex; ids are dense, in order of the
/// lowest vertex id in each component. Returns `(component_of, count)`.
pub fn connected_components(g: &CsrGraph) -> (Vec<u32>, usize) {
    const UNSEEN: u32 = u32::MAX;
    let n = g.num_vertices();
    let mut comp = vec![UNSEEN; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for s in g.vertices() {
        if comp[s as usize] != UNSEEN {
            continue;
        }
        comp[s as usize] = next;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbor_ids(u) {
                if comp[v as usize] == UNSEEN {
                    comp[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn components_of_disjoint_paths() {
        let g = GraphBuilder::from_unweighted_edges(6, vec![(0, 1), (1, 2), (3, 4)]).unwrap();
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[3], comp[5]);
    }

    #[test]
    fn single_vertex() {
        let g = GraphBuilder::new(1).build();
        let (comp, k) = connected_components(&g);
        assert_eq!(k, 1);
        assert_eq!(comp, vec![0]);
    }
}
