//! `ndg-graph` — graph substrate for the subsidy-games reproduction.
//!
//! Built from scratch (no external graph crate): compact undirected
//! multigraphs, union-find, MST (Kruskal/Prim + uniqueness), shortest paths
//! (Dijkstra with pluggable weights — the paper's separation-oracle graph
//! `H_i`), rooted spanning-tree views (subtree sizes = player counts in
//! broadcast games, LCA, root paths), instance generators, exact
//! harmonic-number arithmetic that the paper's gadgets depend on, and the
//! partition-refinement / BFS-code substrate of instance canonicalization.

pub mod canon;
pub mod generators;
pub mod graph;
pub mod harmonic;
pub mod mst;
pub mod paths;
pub mod tree;
pub mod unionfind;

pub use canon::{bfs_code, condense, refine_partition, Refinement};
pub use graph::{Edge, EdgeId, Graph, GraphError, NodeId};
pub use harmonic::{bypass_path_length, harmonic, harmonic_diff};
pub use mst::{is_minimum_spanning_tree, kruskal, mst_is_unique, mst_weight, prim};
pub use paths::{
    bfs_distances, dijkstra, dijkstra_with, floyd_warshall, DijkstraWorkspace, PooledWorkspace,
    ShortestPaths, WorkspacePool,
};
pub use tree::RootedTree;
pub use unionfind::{RollbackUnionFind, UnionFind};

#[cfg(test)]
mod proptests;
