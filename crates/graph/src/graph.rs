//! Compact undirected multigraph with `f64` edge weights.
//!
//! The paper's games live on edge-weighted undirected graphs `G = (V, E, w)`
//! with non-negative weights; zero-weight edges ("ultra light" in Section 5)
//! are explicitly allowed, as are parallel edges (the Theorem 11 cycle has a
//! parallel pair when `n = 1`). Nodes and edges are identified by dense
//! `u32`-backed newtypes so that per-edge/per-node state lives in flat `Vec`s.

use std::fmt;

/// Identifier of a node: dense index in `0..graph.node_count()`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an edge: dense index in `0..graph.edge_count()`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for indexing flat arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge index as a `usize`, for indexing flat arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One undirected edge: unordered endpoint pair plus weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// First endpoint (as inserted).
    pub u: NodeId,
    /// Second endpoint (as inserted).
    pub v: NodeId,
    /// Non-negative weight `w_a`.
    pub w: f64,
}

/// Errors produced by graph construction and queries.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphError {
    /// A node index was out of `0..node_count()`.
    NodeOutOfRange { node: u32, node_count: usize },
    /// An edge weight was negative or not finite.
    BadWeight(f64),
    /// A self-loop was inserted; the paper's games never need them and
    /// cost-sharing over a loop is ill-defined, so we reject them.
    SelfLoop(u32),
    /// The graph (or a required subgraph) is not connected.
    Disconnected,
    /// An edge set expected to be a spanning tree is not one.
    NotASpanningTree,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (node count {node_count})")
            }
            GraphError::BadWeight(w) => write!(f, "edge weight {w} is negative or not finite"),
            GraphError::SelfLoop(u) => write!(f, "self-loop at node {u} rejected"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::NotASpanningTree => write!(f, "edge set is not a spanning tree"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The edge checks shared by [`Graph::add_edge`] and [`Graph::from_edges`],
/// in their order: endpoints in range, no self-loop, a finite
/// non-negative weight.
fn check_edge(n: usize, u: NodeId, v: NodeId, w: f64) -> Result<(), GraphError> {
    for x in [u, v] {
        if x.index() >= n {
            return Err(GraphError::NodeOutOfRange {
                node: x.0,
                node_count: n,
            });
        }
    }
    if u == v {
        return Err(GraphError::SelfLoop(u.0));
    }
    check_weight(w)
}

/// The weight check of [`check_edge`]: finite and non-negative.
fn check_weight(w: f64) -> Result<(), GraphError> {
    if !w.is_finite() || w < 0.0 {
        return Err(GraphError::BadWeight(w));
    }
    Ok(())
}

/// Compact undirected multigraph.
///
/// Adjacency is stored per node as `(neighbor, edge)` pairs; edges are stored
/// once in insertion order so `EdgeId`s are stable and dense.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    edges: Vec<Edge>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

impl Graph {
    /// Create a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        Graph {
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adj.push(Vec::new());
        NodeId((self.adj.len() - 1) as u32)
    }

    /// Add `k` nodes, returning the id of the first.
    pub fn add_nodes(&mut self, k: usize) -> NodeId {
        let first = NodeId(self.adj.len() as u32);
        for _ in 0..k {
            self.adj.push(Vec::new());
        }
        first
    }

    /// Build a graph on `n` nodes from an edge list; edge `k` of the list
    /// gets id `k`.
    ///
    /// Each edge is validated exactly as [`add_edge`](Self::add_edge)
    /// validates it, and the first bad edge returns the same error. The
    /// result equals the `add_edge` loop's, neighbour lists included, but
    /// every adjacency list is allocated once at its final degree.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        let mut degree = vec![0usize; n];
        let mut m = 0usize;
        for (u, v, w) in edges.clone() {
            check_edge(n, u, v, w)?;
            degree[u.index()] += 1;
            degree[v.index()] += 1;
            m += 1;
        }
        let mut g = Graph {
            edges: Vec::with_capacity(m),
            adj: degree.into_iter().map(Vec::with_capacity).collect(),
        };
        for (u, v, w) in edges {
            g.push_edge(u, v, w);
        }
        Ok(g)
    }

    /// Add an undirected edge `{u, v}` with weight `w`.
    ///
    /// Rejects self-loops, out-of-range endpoints and negative/non-finite
    /// weights. Parallel edges are allowed.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<EdgeId, GraphError> {
        check_edge(self.node_count(), u, v, w)?;
        Ok(self.push_edge(u, v, w))
    }

    /// Set the weight of edge `e` to `w`, checked as
    /// [`add_edge`](Self::add_edge) checks a weight; on error the graph is
    /// unchanged. Adjacency holds no weights, so the result equals
    /// [`from_edges`](Self::from_edges) of the patched edge list.
    ///
    /// # Panics
    /// Panics if `e` is not an edge of the graph.
    pub fn set_weight(&mut self, e: EdgeId, w: f64) -> Result<(), GraphError> {
        check_weight(w)?;
        self.edges[e.index()].w = w;
        Ok(())
    }

    /// Append an already validated edge.
    fn push_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> EdgeId {
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { u, v, w });
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        id
    }

    /// The edge record for `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Endpoints of `e` in insertion order.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let edge = &self.edges[e.index()];
        (edge.u, edge.v)
    }

    /// Weight of `e`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].w
    }

    /// Given one endpoint of `e`, return the other.
    ///
    /// # Panics
    /// Panics if `x` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, x: NodeId) -> NodeId {
        let edge = &self.edges[e.index()];
        if edge.u == x {
            edge.v
        } else {
            debug_assert_eq!(edge.v, x, "node {x:?} is not an endpoint of {e:?}");
            edge.u
        }
    }

    /// Whether `x` is an endpoint of `e`.
    #[inline]
    pub fn is_endpoint(&self, e: EdgeId, x: NodeId) -> bool {
        let edge = &self.edges[e.index()];
        edge.u == x || edge.v == x
    }

    /// Adjacency list of `u` as `(neighbor, edge)` pairs.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[u.index()]
    }

    /// Degree of `u` (counting parallel edges).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count() as u32).map(EdgeId)
    }

    /// Iterator over `(EdgeId, &Edge)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// First edge between `u` and `v` (if any), preferring minimum weight
    /// among parallel edges.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adj[u.index()]
            .iter()
            .filter(|(nb, _)| *nb == v)
            .min_by(|(_, e1), (_, e2)| self.weight(*e1).total_cmp(&self.weight(*e2)))
            .map(|(_, e)| *e)
    }

    /// Total weight of all edges of the graph.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Total weight `wgt(A)` of an edge set.
    pub fn weight_of(&self, edges: &[EdgeId]) -> f64 {
        edges.iter().map(|&e| self.weight(e)).sum()
    }

    /// Whether the graph is connected (true for the empty graph and
    /// single-node graph).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Whether `edges` forms a spanning tree of the graph: exactly `n − 1`
    /// edges that connect all `n` nodes.
    pub fn is_spanning_tree(&self, edges: &[EdgeId]) -> bool {
        let n = self.node_count();
        if n == 0 {
            return edges.is_empty();
        }
        if edges.len() != n - 1 {
            return false;
        }
        let mut uf = crate::unionfind::UnionFind::new(n);
        for &e in edges {
            let (u, v) = self.endpoints(e);
            if !uf.union(u.index(), v.index()) {
                return false; // cycle
            }
        }
        uf.set_count() == 1
    }

    /// Restrict the graph to an edge subset, keeping all nodes. Returns the
    /// new graph and the mapping from new `EdgeId` to old `EdgeId`.
    pub fn edge_subgraph(&self, edges: &[EdgeId]) -> (Graph, Vec<EdgeId>) {
        let list = edges.iter().map(|&e| {
            let Edge { u, v, w } = *self.edge(e);
            (u, v, w)
        });
        let g = Graph::from_edges(self.node_count(), list).expect("subgraph edge must be valid");
        (g, edges.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(0), 3.0).unwrap();
        g
    }

    #[test]
    fn basic_construction() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.weight(EdgeId(1)), 2.0);
        assert_eq!(g.endpoints(EdgeId(2)), (NodeId(2), NodeId(0)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(NodeId(0), NodeId(0), 1.0),
            Err(GraphError::SelfLoop(0))
        );
    }

    #[test]
    fn rejects_bad_weight() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), -1.0),
            Err(GraphError::BadWeight(_))
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), f64::NAN),
            Err(GraphError::BadWeight(_))
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), f64::INFINITY),
            Err(GraphError::BadWeight(_))
        ));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::new(2);
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(5), 1.0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn zero_weight_edges_allowed() {
        let mut g = Graph::new(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 0.0).unwrap();
        assert_eq!(g.weight(e), 0.0);
    }

    #[test]
    fn parallel_edges_allowed_and_find_edge_prefers_lighter() {
        let mut g = Graph::new(2);
        let heavy = g.add_edge(NodeId(0), NodeId(1), 5.0).unwrap();
        let light = g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert_ne!(heavy, light);
        assert_eq!(g.find_edge(NodeId(0), NodeId(1)), Some(light));
        assert_eq!(g.find_edge(NodeId(1), NodeId(0)), Some(light));
    }

    #[test]
    fn other_endpoint() {
        let g = triangle();
        assert_eq!(g.other_endpoint(EdgeId(0), NodeId(0)), NodeId(1));
        assert_eq!(g.other_endpoint(EdgeId(0), NodeId(1)), NodeId(0));
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let mut h = Graph::new(4);
        h.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        h.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        assert!(!h.is_connected());
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(!Graph::new(2).is_connected());
    }

    #[test]
    fn spanning_tree_recognition() {
        let g = triangle();
        assert!(g.is_spanning_tree(&[EdgeId(0), EdgeId(1)]));
        assert!(g.is_spanning_tree(&[EdgeId(1), EdgeId(2)]));
        assert!(!g.is_spanning_tree(&[EdgeId(0)]));
        assert!(!g.is_spanning_tree(&[EdgeId(0), EdgeId(1), EdgeId(2)]));
    }

    #[test]
    fn weight_sums() {
        let g = triangle();
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.weight_of(&[EdgeId(0), EdgeId(2)]), 4.0);
    }

    #[test]
    fn edge_subgraph_keeps_nodes() {
        let g = triangle();
        let (sub, back) = g.edge_subgraph(&[EdgeId(1)]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(back, vec![EdgeId(1)]);
        assert_eq!(sub.weight(EdgeId(0)), 2.0);
    }

    #[test]
    fn add_nodes_bulk() {
        let mut g = Graph::new(1);
        let first = g.add_nodes(3);
        assert_eq!(first, NodeId(1));
        assert_eq!(g.node_count(), 4);
    }
}
