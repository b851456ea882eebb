//! The automorphism group that orbit-prunes the exact sweeps: discover
//! the automorphisms of a broadcast game through `ndg-canon` and close
//! their edge action into an [`EdgeGroup`], which the one sweep driver in
//! `ndg_core::enumerate` takes as an argument.
//!
//! Soundness layering: `ndg-canon` *verifies* every reported generator
//! against the decorated instance (subsidies enter as edge attachments, so
//! a generator can never move a subsidized edge onto an unsubsidized one),
//! and `EdgeGroup` degrades to the trivial group on any malformed or
//! oversized input — under which the sweep is *exactly* the unpruned one.
//! The PoS/PoA/best-tree results are bit-identical to the unpruned sweep by
//! construction (the orbit fold re-evaluates `wgt` on every orbit member
//! before taking minima — see [`ndg_core::orbit_min_member`]); `snd::tests`
//! and the `orbit_pruning` integration suite assert this across thread
//! counts.

use ndg_canon::{automorphisms, automorphisms_with, Attachments, Instance};
use ndg_core::{EdgeGroup, NetworkDesignGame, SubsidyAssignment};

/// The edge automorphism group of the subsidized broadcast game, as the
/// orbit-pruned enumeration consumes it. Trivial whenever `ndg-canon`
/// falls back (oversized instance, exhausted budgets) or the closure
/// exceeds the group cap — the cheap fast path for asymmetric instances.
pub fn broadcast_edge_group(game: &NetworkDesignGame, b: &SubsidyAssignment) -> EdgeGroup {
    let inst = Instance::of_game(game, None);
    let m = inst.edges.len();
    let gens = if b.as_slice().iter().all(|&x| x == 0.0) {
        automorphisms(&inst)
    } else {
        // Nonzero subsidies decorate the instance: generators must
        // preserve the subsidy vector bitwise to be reported at all.
        let att = Attachments {
            edge_vectors: vec![b.as_slice().to_vec()],
            ..Attachments::default()
        };
        automorphisms_with(&inst, &att)
    };
    EdgeGroup::from_generators(m, &gens.edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_core::price_of_stability;
    use ndg_exec::Budget;
    use ndg_graph::{generators, NodeId};

    fn broadcast(g: ndg_graph::Graph) -> NetworkDesignGame {
        NetworkDesignGame::broadcast(g, NodeId(0)).unwrap()
    }

    #[test]
    fn symmetric_families_get_nontrivial_groups() {
        let cases = [
            generators::cycle_graph(12, 1.0),
            generators::hypercube_graph(3, 1.0),
            generators::torus_graph(3, 3, 1.0),
        ];
        for g in cases {
            let game = broadcast(g);
            let b0 = SubsidyAssignment::zero(game.graph());
            let group = broadcast_edge_group(&game, &b0);
            assert!(!group.is_trivial(), "symmetric family must yield a group");
        }
    }

    #[test]
    fn exact_pos_orbits_matches_unpruned_bitwise() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(601);
        let mut symmetric: Vec<ndg_graph::Graph> = vec![
            generators::cycle_graph(9, 1.0),
            generators::hypercube_graph(3, 1.0),
            generators::torus_graph(3, 3, 1.0),
        ];
        for _ in 0..6 {
            let n = rng.random_range(4..7usize);
            symmetric.push(generators::random_connected(n, 0.5, &mut rng, 0.3..3.0));
        }
        for g in symmetric {
            let game = broadcast(g);
            let b0 = SubsidyAssignment::zero(game.graph());
            let trivial = EdgeGroup::trivial(game.graph().edge_count());
            let unlimited = Budget::unlimited();
            let plain = price_of_stability(&game, &b0, 100_000, &trivial, &unlimited)
                .unwrap()
                .unwrap();
            let orbit = crate::pos::exact_pos_budgeted(&game, 100_000, &unlimited).unwrap();
            assert_eq!(plain.to_bits(), orbit.to_bits(), "PoS diverged");
        }
    }

    #[test]
    fn subsidized_group_respects_the_subsidy_vector() {
        // Subsidizing a single cycle edge breaks the rotation/reflection
        // symmetry down to the stabilizer of that edge.
        let g = generators::cycle_graph(8, 1.0);
        let game = broadcast(g);
        let mut b = SubsidyAssignment::zero(game.graph());
        b.set(game.graph(), ndg_graph::EdgeId(3), 0.25);
        let group = broadcast_edge_group(&game, &b);
        for sigma in group.elements() {
            assert_eq!(sigma[3], 3, "subsidized edge must be fixed");
        }
    }
}
