//! The peer-to-peer overlay topology.
//!
//! The Internet Computer's gossip network \[17\] connects each node to a
//! bounded set of peers; artifacts flood hop-by-hop instead of being
//! sent by their originator to all `n − 1` parties. [`Overlay`] builds a
//! connected, bounded-degree graph: a ring (guaranteeing connectivity)
//! plus random chords (shrinking the diameter to `O(log n)`).

use icc_types::NodeIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A static overlay graph over `n` nodes.
#[derive(Debug, Clone)]
pub struct Overlay {
    neighbors: Vec<Vec<NodeIndex>>,
}

impl Overlay {
    /// A full mesh (every node adjacent to every other) — with this
    /// overlay, gossip degenerates to direct broadcast.
    pub fn full_mesh(n: usize) -> Overlay {
        let neighbors = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| NodeIndex::new(j as u32))
                    .collect()
            })
            .collect();
        Overlay { neighbors }
    }

    /// A connected random graph of target degree `degree`: ring edges
    /// plus random chords, deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `degree < 2`.
    pub fn random_regular(n: usize, degree: usize, seed: u64) -> Overlay {
        assert!(n >= 2, "overlay needs at least two nodes");
        assert!(
            degree >= 2,
            "degree must be at least 2 for a connected ring"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        // Ring for connectivity.
        for i in 0..n {
            sets[i].insert((i + 1) % n);
            sets[(i + 1) % n].insert(i);
        }
        // Random chords until target degree (best effort).
        for i in 0..n {
            let mut attempts = 0;
            while sets[i].len() < degree && attempts < 50 {
                attempts += 1;
                let j = rng.gen_range(0..n);
                if j != i && sets[j].len() < degree + 2 {
                    sets[i].insert(j);
                    sets[j].insert(i);
                }
            }
        }
        Overlay {
            neighbors: sets
                .into_iter()
                .map(|s| s.into_iter().map(|j| NodeIndex::new(j as u32)).collect())
                .collect(),
        }
    }

    /// The default overlay for a subnet of `n` nodes: a full mesh while
    /// the subnet is small enough that direct broadcast is cheap
    /// (n ≤ 32), a bounded-degree random graph beyond that — degree
    /// `⌈log₂ n⌉ + 2` clamped to `[6, 16]`, so per-node fan-out stays
    /// ~flat while the diameter stays logarithmic.
    pub fn for_subnet(n: usize, seed: u64) -> Overlay {
        if n <= 32 {
            Overlay::full_mesh(n)
        } else {
            let log2_ceil = (usize::BITS - (n - 1).leading_zeros()) as usize;
            let degree = (log2_ceil + 2).clamp(6, 16);
            Overlay::random_regular(n, degree, seed)
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.neighbors.len()
    }

    /// The neighbors of `node`.
    pub fn neighbors(&self, node: NodeIndex) -> &[NodeIndex] {
        &self.neighbors[node.as_usize()]
    }

    /// Whether every node is adjacent to every other. Gossip over a
    /// complete overlay *is* direct broadcast: every push reaches every
    /// node in one hop, so there is nobody left to relay to.
    pub fn is_complete(&self) -> bool {
        let n = self.n();
        self.neighbors.iter().all(|nb| nb.len() + 1 == n)
    }

    /// Maximum degree in the graph.
    pub fn max_degree(&self) -> usize {
        self.neighbors.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Graph diameter via BFS (diagnostics / tests).
    pub fn diameter(&self) -> usize {
        let n = self.n();
        let mut diameter = 0;
        for start in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for v in &self.neighbors[u] {
                    let v = v.as_usize();
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            let ecc = dist.iter().copied().max().unwrap_or(0);
            assert_ne!(ecc, usize::MAX, "overlay is disconnected");
            diameter = diameter.max(ecc);
        }
        diameter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_adjacency() {
        let o = Overlay::full_mesh(4);
        assert_eq!(o.neighbors(NodeIndex::new(0)).len(), 3);
        assert_eq!(o.diameter(), 1);
    }

    /// Completeness is read off the graph, not off the constructor.
    #[test]
    fn completeness_is_a_property_of_the_graph() {
        assert!(Overlay::full_mesh(13).is_complete());
        assert!(Overlay::for_subnet(32, 1).is_complete());
        assert!(!Overlay::for_subnet(33, 1).is_complete());
        assert!(!Overlay::random_regular(7, 3, 1).is_complete());
        // Ring plus chords at degree n − 1 leaves no edge out.
        assert!(Overlay::random_regular(3, 2, 1).is_complete());
    }

    #[test]
    fn random_graph_is_connected_and_bounded() {
        for n in [4usize, 13, 40] {
            let o = Overlay::random_regular(n, 4, 7);
            assert!(o.diameter() < n, "connected");
            assert!(
                o.max_degree() <= 7,
                "degree bounded, got {}",
                o.max_degree()
            );
            // Symmetry.
            for i in 0..n {
                for j in o.neighbors(NodeIndex::new(i as u32)) {
                    assert!(o.neighbors(*j).contains(&NodeIndex::new(i as u32)));
                }
            }
        }
    }

    #[test]
    fn random_graph_diameter_is_small() {
        let o = Overlay::random_regular(40, 6, 3);
        assert!(o.diameter() <= 5, "diameter {} too large", o.diameter());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Overlay::random_regular(13, 4, 9);
        let b = Overlay::random_regular(13, 4, 9);
        for i in 0..13 {
            assert_eq!(
                a.neighbors(NodeIndex::new(i)),
                b.neighbors(NodeIndex::new(i))
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn too_small_panics() {
        Overlay::random_regular(1, 2, 0);
    }
}
