//! BFS (Graph500 kernel 2) validation: the SSSP rules on hop counts.
//!
//! A level is a distance over edges one unit long. The checker maps levels
//! to `f32` distances (exact below 2^24; a negative level is unreached) and
//! runs [`crate::sssp_check`]'s rule body with unit lengths and no
//! tolerance. Rule 5 then says levels across an edge differ by at most one,
//! rule 4 that every parent is exactly one level up over an input edge, and
//! rule 3 that the parents form one tree on the reached component.

use crate::sssp_check::check;
use g500_graph::{EdgeList, VertexId, INF_WEIGHT};

/// Validate a BFS tree: `level[v]` in hops (−1 unreached), `parent[v]`
/// (`u64::MAX` unreached, root self-parented). Returns `Ok(traversed_edges)`
/// or the first violations.
pub fn validate_bfs(
    n: u64,
    edges: &EdgeList,
    root: VertexId,
    level: &[i64],
    parent: &[u64],
) -> Result<u64, Vec<String>> {
    assert_eq!(level.len(), n as usize);
    let dist = levels_as_dist(level);
    let rep = check(edges, root, &dist, parent, |_| 1.0, |_, _| 0.0);
    if rep.ok {
        Ok(rep.traversed_edges)
    } else {
        Err(rep.errors)
    }
}

/// Levels as hop distances: a negative level is unreached
/// ([`INF_WEIGHT`]), and a level is exact below 2^24.
pub fn levels_as_dist(level: &[i64]) -> Vec<f32> {
    let hops = |&l: &i64| if l < 0 { INF_WEIGHT } else { l as f32 };
    level.iter().map(hops).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_bfs() -> (EdgeList, Vec<i64>, Vec<u64>) {
        let el = g500_gen::simple::path(4, 1.0);
        (el, vec![0, 1, 2, 3], vec![0, 0, 1, 2])
    }

    #[test]
    fn correct_tree_validates() {
        let (el, level, parent) = path_bfs();
        assert_eq!(validate_bfs(4, &el, 0, &level, &parent), Ok(3));
    }

    #[test]
    fn level_skip_rejected() {
        let (el, mut level, parent) = path_bfs();
        level[2] = 3;
        level[3] = 4;
        assert!(validate_bfs(4, &el, 0, &level, &parent).is_err());
    }

    #[test]
    fn wrong_parent_level_rejected() {
        let (el, level, mut parent) = path_bfs();
        parent[3] = 1; // level 1, but v is level 3
        assert!(validate_bfs(4, &el, 0, &level, &parent).is_err());
    }

    #[test]
    fn phantom_tree_edge_rejected() {
        let el = g500_gen::simple::path(4, 1.0);
        // claim parent(3) = 0 at level 1... edge (0,3) missing
        let level = vec![0, 1, 1, 1];
        let parent = vec![0, 0, 0, 0];
        assert!(validate_bfs(4, &el, 0, &level, &parent).is_err());
    }

    #[test]
    fn unreached_component_ok() {
        let el = g500_gen::simple::path(2, 1.0); // vertices 2,3 isolated
        let level = vec![0, 1, -1, -1];
        let parent = vec![0, 0, u64::MAX, u64::MAX];
        assert_eq!(validate_bfs(4, &el, 0, &level, &parent), Ok(1));
    }

    #[test]
    fn second_root_forest_rejected() {
        // vertex 2 claims level 0 and parents itself: two trees, one root
        let el = g500_gen::simple::path(4, 1.0);
        let (level, parent) = (vec![0, 1, 0, 1], vec![0, 0, 2, 2]);
        assert!(validate_bfs(4, &el, 0, &level, &parent).is_err());
    }

    #[test]
    fn errors_are_capped() {
        // every vertex has a level and no parent
        let n = 64;
        let el = g500_gen::simple::path(n, 1.0);
        let level: Vec<i64> = (0..n as i64).collect();
        let errors = validate_bfs(n, &el, 0, &level, &[u64::MAX; 64]).unwrap_err();
        assert_eq!(errors.len(), 8, "{errors:?}");
    }
}
