//! `subsidy-games` — reproduction of *Enforcing efficient equilibria in
//! network design games via subsidies* (Augustine, Caragiannis, Fanelli,
//! Kalaitzis; SPAA 2012, arXiv:1104.4423).
//!
//! This facade re-exports the workspace crates under stable names:
//!
//! * [`graph`] — graph substrate (MST, Dijkstra, rooted trees, harmonics);
//! * [`lp`] — dense simplex + cutting-plane driver;
//! * [`core`] — network design games, subsidies, equilibria, dynamics;
//! * [`exec`] — the deterministic executor and the cooperative `Budget`
//!   every engine entry point takes;
//! * [`canon`] — instance canonicalization: isomorphism-invariant
//!   relabeling for cache keying and scenario dedup;
//! * [`sne`] — Stable Network Enforcement: LPs (1)–(3) and Theorem 6;
//! * [`aon`] — all-or-nothing subsidies (Section 5);
//! * [`snd`] — Stable Network Design solvers and price-of-stability tools;
//! * [`serve`] — the serving layer: `ndg1` wire codec, sharded result
//!   cache, and the batched multi-threaded request engine (TCP + stdio);
//! * [`reductions`] — the hardness gadgets of Theorems 3, 5, 12 with exact
//!   solvers for their source problems.
//!
//! # Quickstart
//!
//! Enforce a minimum spanning tree as a Nash equilibrium with Theorem 6
//! subsidies and verify the `wgt(T)/e` budget:
//!
//! ```
//! use subsidy_games::core::NetworkDesignGame;
//! use subsidy_games::graph::{generators, kruskal, NodeId};
//! use subsidy_games::sne::theorem6;
//!
//! // A unit cycle: the classic Theorem 11 instance.
//! let g = generators::cycle_graph(9, 1.0);
//! let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
//! let mst = kruskal(game.graph()).unwrap();
//!
//! let sol = theorem6::enforce(&game, &mst).unwrap();
//! let budget = game.graph().weight_of(&mst) / std::f64::consts::E;
//! assert!(sol.cost <= budget + 1e-9);
//! ```

pub use ndg_aon as aon;
pub use ndg_canon as canon;
pub use ndg_core as core;
pub use ndg_exec as exec;
pub use ndg_graph as graph;
pub use ndg_lp as lp;
pub use ndg_reductions as reductions;
pub use ndg_serve as serve;
pub use ndg_snd as snd;
pub use ndg_sne as sne;
