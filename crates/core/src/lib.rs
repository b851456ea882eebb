//! `ndg-core` — the paper's model: fair-cost-sharing network design games.
//!
//! Implements Section 2 in full: games (general and broadcast), states with
//! usage counts, subsidy assignments and extension-game costs, exact Nash
//! verification (separation-oracle best responses), the broadcast Lemma 2
//! fast check, Rosenthal's potential, best-response dynamics, and exhaustive
//! spanning-tree enumeration with exact price of stability/anarchy on small
//! instances.

pub mod approx;
pub mod batch;
pub mod bounds;
pub mod broadcast;
pub mod coalition;
pub mod cost;
pub mod dynamics;
pub mod enumerate;
pub mod equilibrium;
pub mod game;
pub mod incremental;
pub mod multicast;
pub mod num;
pub mod potential;
pub mod recert;
pub mod state;
pub mod subsidy;
pub mod weighted;

pub use approx::{is_alpha_equilibrium, stability_threshold};
pub use batch::{BatchCertification, BatchCertifier};
pub use bounds::OptimisticBounds;
pub use broadcast::{
    is_tree_equilibrium, is_tree_equilibrium_eps, lemma2_violation, lemma2_violation_eps,
    lemma2_violation_eps_with, root_path_costs, Lemma2Violation, TreeView,
};
pub use coalition::{
    all_simple_paths, all_simple_paths_into, find_coalition_deviation, is_strong_equilibrium,
    CoalitionDeviation, PathScratch,
};
pub use cost::{deviation_cost, deviation_weight, player_cost, social_cost_subsidized};
pub use dynamics::{
    best_response_dynamics_budgeted, best_response_dynamics_naive, dynamics_from_tree,
    DynamicsResult, MoveOrder,
};
pub use enumerate::{
    best_equilibrium_tree, count_spanning_trees, equilibrium_trees, fold_equilibrium_trees,
    for_each_spanning_tree, for_each_spanning_tree_orbits, orbit_max_member, orbit_min_member,
    price_of_anarchy_trees, price_of_stability, spanning_trees, EdgeGroup, EnumError,
    EquilibriumTree,
};
pub use equilibrium::{
    best_response, best_response_with, find_deviation, is_equilibrium, Deviation,
};
pub use game::{GameError, NetworkDesignGame, Player};
pub use incremental::{IncrementalDynamics, MoveRecord};
pub use multicast::{exact_steiner_tree, multicast};
pub use num::{approx_eq, approx_ge, approx_le, strictly_gt, strictly_lt, EPS};
pub use potential::{potential_sandwich, rosenthal_potential};
pub use recert::{CertifierStats, IncrementalCertifier};
pub use state::{State, StateError};
pub use subsidy::{SubsidyAssignment, SubsidyError};
pub use weighted::{weighted_is_equilibrium, Demands};
