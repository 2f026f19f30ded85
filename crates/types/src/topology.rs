//! Network topology: physical/logical connectivity and service chains.
//!
//! Topology drives two CORNET capabilities: *conflict scoping* over
//! dependent nodes (e.g. a vGW and the physical server hosting it, §3.3.1)
//! and *control-group derivation* for impact verification (first-hop /
//! second-hop neighbors, §3.5.1, Fig. 14).

use crate::id::NodeId;
use std::collections::{BTreeSet, VecDeque};

/// Undirected connectivity graph over inventory nodes plus named service
/// chains (ordered node sequences, §2.2).
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Adjacency lists, indexed by `NodeId`. Kept sorted and deduplicated.
    adjacency: Vec<Vec<NodeId>>,
    /// Ordered node sequences that form service chains.
    chains: Vec<ServiceChain>,
}

/// An ordered sequence of nodes traffic traverses (e.g. CPE → vGW → vVIG).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceChain {
    /// Chain name, e.g. `"sdwan-zone3-chain-12"`.
    pub name: String,
    /// Nodes in traversal order.
    pub nodes: Vec<NodeId>,
}

impl Topology {
    /// Topology over `node_count` nodes with no edges.
    pub fn with_capacity(node_count: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); node_count],
            chains: Vec::new(),
        }
    }

    /// Number of nodes the topology covers.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Grow the node table so `id` is addressable.
    fn ensure(&mut self, id: NodeId) {
        if id.index() >= self.adjacency.len() {
            self.adjacency.resize(id.index() + 1, Vec::new());
        }
    }

    /// Add an undirected edge. Self-loops and duplicates are ignored.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        self.ensure(a);
        self.ensure(b);
        for (x, y) in [(a, b), (b, a)] {
            let list = &mut self.adjacency[x.index()];
            if let Err(pos) = list.binary_search(&y) {
                list.insert(pos, y);
            }
        }
    }

    /// Register a service chain and link consecutive nodes.
    pub fn add_chain(&mut self, name: impl Into<String>, nodes: Vec<NodeId>) {
        for pair in nodes.windows(2) {
            self.add_edge(pair[0], pair[1]);
        }
        self.chains.push(ServiceChain {
            name: name.into(),
            nodes,
        });
    }

    /// Service chains containing a node.
    pub fn chains_of(&self, id: NodeId) -> impl Iterator<Item = &ServiceChain> {
        self.chains.iter().filter(move |c| c.nodes.contains(&id))
    }

    /// All registered chains.
    pub fn chains(&self) -> &[ServiceChain] {
        &self.chains
    }

    /// Direct neighbors of a node (sorted).
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.adjacency
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether two nodes are directly connected.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Nodes at exactly `hops` hops from `id` (BFS ring). `hops == 0`
    /// returns just the node itself.
    ///
    /// This implements the paper's control-group tiers: 1st tier = 1 hop,
    /// 2nd tier = 2 hops, "2nd minus 1st" = this function at `hops = 2`.
    pub fn ring(&self, id: NodeId, hops: usize) -> Vec<NodeId> {
        if id.index() >= self.adjacency.len() {
            return if hops == 0 { vec![id] } else { Vec::new() };
        }
        let mut dist = vec![usize::MAX; self.adjacency.len()];
        let mut queue = VecDeque::new();
        dist[id.index()] = 0;
        queue.push_back(id);
        let mut out = Vec::new();
        while let Some(cur) = queue.pop_front() {
            let d = dist[cur.index()];
            if d == hops {
                out.push(cur);
                continue; // no need to expand past the target ring
            }
            for &nb in self.neighbors(cur) {
                if dist[nb.index()] == usize::MAX {
                    dist[nb.index()] = d + 1;
                    queue.push_back(nb);
                }
            }
        }
        out.sort();
        out
    }

    /// Nodes within `hops` hops of `id`, excluding `id` itself.
    pub fn within(&self, id: NodeId, hops: usize) -> Vec<NodeId> {
        let mut out = BTreeSet::new();
        for h in 1..=hops {
            out.extend(self.ring(id, h));
        }
        out.into_iter().collect()
    }

    /// Connected components over a *subset* of nodes, using only edges whose
    /// endpoints are both in the subset. Used by the planner's independent
    /// sub-problem decomposition (§3.3.3 idea (b)).
    pub fn components(&self, subset: &[NodeId]) -> Vec<Vec<NodeId>> {
        let in_subset: BTreeSet<NodeId> = subset.iter().copied().collect();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        let mut comps = Vec::new();
        for &start in subset {
            if seen.contains(&start) {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::from([start]);
            seen.insert(start);
            while let Some(cur) = queue.pop_front() {
                comp.push(cur);
                for &nb in self.neighbors(cur) {
                    if in_subset.contains(&nb) && seen.insert(nb) {
                        queue.push_back(nb);
                    }
                }
            }
            comp.sort();
            comps.push(comp);
        }
        comps
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Union of several daily topology snapshots — the §5.3 repair for
    /// inconsistent feeds: "even if some of the eNodeB-switch
    /// relationships are inconsistent, we can infer correct connections
    /// based on taking a union of last five days' worth of data."
    ///
    /// Edges and chains from every snapshot are merged; the downside the
    /// paper notes (decommissioned links linger, making schedules more
    /// conservative) is inherent to the union.
    pub fn union(snapshots: &[&Topology]) -> Topology {
        let node_count = snapshots.iter().map(|t| t.node_count()).max().unwrap_or(0);
        let mut merged = Topology::with_capacity(node_count);
        for snap in snapshots {
            for (i, neighbors) in snap.adjacency.iter().enumerate() {
                for &nb in neighbors {
                    merged.add_edge(NodeId(i as u32), nb);
                }
            }
            for chain in &snap.chains {
                if !merged.chains.iter().any(|c| c.name == chain.name) {
                    merged.chains.push(chain.clone());
                }
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Topology {
        // 0 - 1 - 2 - 3
        let mut t = Topology::with_capacity(4);
        t.add_edge(NodeId(0), NodeId(1));
        t.add_edge(NodeId(1), NodeId(2));
        t.add_edge(NodeId(2), NodeId(3));
        t
    }

    #[test]
    fn edges_are_undirected_and_deduped() {
        let mut t = Topology::with_capacity(2);
        t.add_edge(NodeId(0), NodeId(1));
        t.add_edge(NodeId(1), NodeId(0));
        t.add_edge(NodeId(0), NodeId(0)); // self-loop ignored
        assert_eq!(t.edge_count(), 1);
        assert!(t.connected(NodeId(0), NodeId(1)));
        assert!(t.connected(NodeId(1), NodeId(0)));
    }

    #[test]
    fn rings_match_hop_distance() {
        let t = path4();
        assert_eq!(t.ring(NodeId(0), 0), vec![NodeId(0)]);
        assert_eq!(t.ring(NodeId(0), 1), vec![NodeId(1)]);
        assert_eq!(t.ring(NodeId(0), 2), vec![NodeId(2)]);
        assert_eq!(t.ring(NodeId(1), 1), vec![NodeId(0), NodeId(2)]);
        assert_eq!(t.ring(NodeId(0), 9), Vec::<NodeId>::new());
    }

    #[test]
    fn within_excludes_self() {
        let t = path4();
        assert_eq!(
            t.within(NodeId(1), 2),
            vec![NodeId(0), NodeId(2), NodeId(3)]
        );
        assert!(!t.within(NodeId(1), 2).contains(&NodeId(1)));
    }

    #[test]
    fn chains_create_edges_and_lookup() {
        let mut t = Topology::with_capacity(3);
        t.add_chain("c1", vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(t.connected(NodeId(0), NodeId(1)));
        assert!(t.connected(NodeId(1), NodeId(2)));
        assert!(!t.connected(NodeId(0), NodeId(2)));
        assert_eq!(t.chains_of(NodeId(1)).count(), 1);
        assert_eq!(t.chains_of(NodeId(1)).next().unwrap().name, "c1");
    }

    #[test]
    fn components_respect_subset() {
        let t = path4();
        // Removing node 1 from the subset splits {0} from {2,3}.
        let comps = t.components(&[NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&vec![NodeId(0)]));
        assert!(comps.contains(&vec![NodeId(2), NodeId(3)]));
    }

    #[test]
    fn union_repairs_missing_edges() {
        // Day 1 misses edge 1-2; day 2 misses edge 0-1; the union has both.
        let mut day1 = Topology::with_capacity(3);
        day1.add_edge(NodeId(0), NodeId(1));
        let mut day2 = Topology::with_capacity(3);
        day2.add_edge(NodeId(1), NodeId(2));
        let merged = Topology::union(&[&day1, &day2]);
        assert!(merged.connected(NodeId(0), NodeId(1)));
        assert!(merged.connected(NodeId(1), NodeId(2)));
        assert_eq!(merged.edge_count(), 2);
    }

    #[test]
    fn union_deduplicates_chains_by_name() {
        let mut day1 = Topology::with_capacity(3);
        day1.add_chain("c", vec![NodeId(0), NodeId(1)]);
        let mut day2 = Topology::with_capacity(3);
        day2.add_chain("c", vec![NodeId(0), NodeId(1)]);
        day2.add_chain("d", vec![NodeId(1), NodeId(2)]);
        let merged = Topology::union(&[&day1, &day2]);
        assert_eq!(merged.chains().len(), 2);
    }

    #[test]
    fn union_of_nothing_is_empty() {
        let merged = Topology::union(&[]);
        assert_eq!(merged.node_count(), 0);
        assert_eq!(merged.edge_count(), 0);
    }

    #[test]
    fn out_of_range_node_has_no_neighbors() {
        let t = path4();
        assert!(t.neighbors(NodeId(99)).is_empty());
        assert_eq!(t.ring(NodeId(99), 0), vec![NodeId(99)]);
        assert!(t.ring(NodeId(99), 1).is_empty());
    }
}
