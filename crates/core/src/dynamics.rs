//! Best-response dynamics.
//!
//! Because the game admits Rosenthal's exact potential, best-response
//! dynamics strictly decreases `Φ` with every improving move and therefore
//! converges to a pure Nash equilibrium. This module drives those dynamics
//! under several move orders; E7/E9 use it to estimate equilibrium quality
//! reached from the social optimum (the Anshelevich et al. price-of-
//! stability argument) and to cross-check the enumerator's equilibria.

use crate::cost::player_cost;
use crate::equilibrium::best_response;
use crate::game::NetworkDesignGame;
use crate::incremental::IncrementalDynamics;
use crate::num::strictly_lt;
use crate::potential::rosenthal_potential;
use crate::recert::IncrementalCertifier;
use crate::state::State;
use crate::subsidy::SubsidyAssignment;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Consecutive `try_improve` declines within a round before the driver
/// attempts one batched Lemma 2 sweep for the round's remainder (see
/// [`IncrementalDynamics::batch_certified_equilibrium`]).
const BATCH_CERTIFY_AFTER_FRUITLESS: usize = 32;

/// Which player moves next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveOrder {
    /// Players move in index order, round after round.
    RoundRobin,
    /// A uniformly random player order is drawn for each round.
    RandomOrder(u64),
    /// In every step, the player with the largest cost improvement moves.
    MaxGain,
}

/// Outcome of a dynamics run.
#[derive(Clone, Debug)]
pub struct DynamicsResult {
    /// Final state.
    pub state: State,
    /// Number of improving moves performed, under every [`MoveOrder`].
    pub moves: usize,
    /// Number of rounds elapsed. A round gives every player one chance to
    /// move: one index-order (or shuffled) pass for
    /// [`MoveOrder::RoundRobin`]/[`MoveOrder::RandomOrder`], and up to `n`
    /// max-gain moves for [`MoveOrder::MaxGain`] (previously a MaxGain
    /// "round" was a single move, which made `rounds` — and the
    /// `max_rounds` budget — incomparable across orders). The final round
    /// that finds no improving move is counted.
    pub rounds: usize,
    /// Whether a Nash equilibrium was certified (no player can improve).
    pub converged: bool,
    /// Potential after every improving move (starting value first),
    /// maintained incrementally in O(Δ) per move.
    pub potential_trace: Vec<f64>,
}

/// Run best-response dynamics from `initial` until convergence or
/// `max_rounds` rounds (see [`DynamicsResult::rounds`] for what a round
/// is under each order).
///
/// The drive runs on [`IncrementalDynamics`]: Rosenthal's potential and
/// all player costs are maintained incrementally, best responses reuse a
/// Dijkstra workspace, and the optimistic-bound filter skips players that
/// provably cannot move — reproducing the naive driver's decisions (and
/// its potential trace, up to float tolerance) at a fraction of the work.
///
/// A start that the Lemma-2 certifier ([`crate::recert`]) proves to be an
/// equilibrium returns the engine's first-round answer (no moves, one
/// round, the start's Φ) before any move machinery is built; any other
/// start hands the certifier and its answer on to the engine.
///
/// `budget` is checked at every round boundary (one round = one full
/// player pass, the natural chunk of work). Expiry aborts the drive with
/// [`ndg_exec::BudgetExceeded`]; `Budget::unlimited()` never expires and
/// leaves the move sequence untouched.
pub fn best_response_dynamics_budgeted(
    game: &NetworkDesignGame,
    initial: State,
    b: &SubsidyAssignment,
    order: MoveOrder,
    max_rounds: usize,
    budget: &ndg_exec::Budget,
) -> Result<DynamicsResult, ndg_exec::BudgetExceeded> {
    let n = game.num_players();
    let mut recert = IncrementalCertifier::new();
    // Round 1 asks this question first; a zero-round run asks it later
    // through `is_certified_equilibrium`.
    let certified = if recert.adopt(game, &initial, b) && max_rounds > 0 {
        recert.equilibrium(game, b)
    } else {
        None
    };
    if certified == Some(true) {
        budget.check()?;
        let phi = rosenthal_potential(game, &initial, b);
        return Ok(DynamicsResult {
            state: initial,
            moves: 0,
            rounds: 1,
            converged: true,
            potential_trace: vec![phi],
        });
    }
    let mut engine = IncrementalDynamics::with_certifier(game, initial, b, recert, certified);
    let mut moves = 0usize;
    let mut rounds = 0usize;
    let mut trace = vec![engine.potential()];
    let mut rng = match order {
        MoveOrder::RandomOrder(seed) => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };
    let mut players: Vec<usize> = (0..n).collect();

    while rounds < max_rounds {
        budget.check()?;
        rounds += 1;
        let mut improved_this_round = false;
        match order {
            MoveOrder::RoundRobin | MoveOrder::RandomOrder(_) => {
                if let Some(rng) = rng.as_mut() {
                    // Shuffle the *identity* order, as the naive driver
                    // does — re-shuffling the previous round's permutation
                    // would draw the same randomness onto a different
                    // arrangement and diverge from the reference order.
                    for (k, slot) in players.iter_mut().enumerate() {
                        *slot = k;
                    }
                    players.shuffle(rng);
                }
                // Working rounds consult the maintained Lemma-2 view
                // first (see [`crate::recert`]): after every move only
                // the O(Δ) dirty margins are re-evaluated, so "is the
                // current state already an equilibrium?" is answered in
                // O(1) memoized per turn — and the moment it turns true
                // (the last move of the dynamics has settled), every
                // remaining turn declines without a probe. Margin- and
                // probe-certified answers coincide up to the
                // per-constraint-vs-per-best-response tolerance caveat
                // documented in [`crate::batch`].
                let mut fruitless = 0usize;
                let mut swept = false;
                for &i in &players {
                    match engine.maintained_equilibrium() {
                        // Nobody can improve: the rest of the round (and
                        // the dynamics) is decline-only.
                        Some(true) => break,
                        // Somebody can still improve; the maintained
                        // certification already *is* the sweep's answer,
                        // so no lazy sweep is worth running.
                        Some(false) => {}
                        // Untracked state (mid-dynamics cycle, multicast):
                        // lazy batched certification as before — once
                        // several consecutive players decline, the round
                        // is probably the certifying one, and if the live
                        // state is tree-induced one Lemma 2 sweep proves
                        // the *rest* of the round also finds nothing.
                        None => {
                            if !swept
                                && !improved_this_round
                                && fruitless >= BATCH_CERTIFY_AFTER_FRUITLESS
                            {
                                swept = true;
                                if engine.batch_certified_equilibrium() {
                                    break;
                                }
                            }
                        }
                    }
                    match engine.try_improve(i) {
                        Some(_) => {
                            moves += 1;
                            improved_this_round = true;
                            let phi = engine.potential();
                            debug_assert!(
                                phi < trace.last().unwrap() + 1e-9,
                                "potential must not increase"
                            );
                            trace.push(phi);
                        }
                        None => fruitless += 1,
                    }
                }
            }
            MoveOrder::MaxGain => {
                // A round = up to n max-gain moves, so `max_rounds` budgets
                // comparably with the pass-based orders.
                for _ in 0..n {
                    match engine.best_improving_move() {
                        Some(_) => {
                            moves += 1;
                            improved_this_round = true;
                            trace.push(engine.potential());
                        }
                        None => break,
                    }
                }
            }
        }
        if !improved_this_round {
            return Ok(DynamicsResult {
                state: engine.into_state(),
                moves,
                rounds,
                converged: true,
                potential_trace: trace,
            });
        }
    }
    // Round budget exhausted; check whether we happen to be at equilibrium.
    let converged = engine.is_certified_equilibrium();
    Ok(DynamicsResult {
        state: engine.into_state(),
        moves,
        rounds,
        converged,
        potential_trace: trace,
    })
}

/// The pre-incremental reference driver: recomputes the full `O(m)`
/// potential after every move and runs a fresh Dijkstra per player per
/// scan. Kept verbatim for cross-checking ([`best_response_dynamics_budgeted`]
/// must reproduce its decisions) and as the baseline of E10 and E13.
/// MaxGain here performs one move per `max_rounds` unit, as the seed
/// driver did.
pub fn best_response_dynamics_naive(
    game: &NetworkDesignGame,
    initial: State,
    b: &SubsidyAssignment,
    order: MoveOrder,
    max_rounds: usize,
) -> DynamicsResult {
    let mut state = initial;
    let n = game.num_players();
    let mut moves = 0usize;
    let mut rounds = 0usize;
    let mut trace = vec![rosenthal_potential(game, &state, b)];
    let mut rng = match order {
        MoveOrder::RandomOrder(seed) => Some(StdRng::seed_from_u64(seed)),
        _ => None,
    };

    while rounds < max_rounds {
        rounds += 1;
        let mut improved_this_round = false;
        match order {
            MoveOrder::RoundRobin | MoveOrder::RandomOrder(_) => {
                let mut players: Vec<usize> = (0..n).collect();
                if let Some(rng) = rng.as_mut() {
                    players.shuffle(rng);
                }
                for i in players {
                    let current = player_cost(game, &state, b, i);
                    let (path, cost) = best_response(game, &state, b, i);
                    if strictly_lt(cost, current) {
                        state.replace_path(i, path);
                        moves += 1;
                        improved_this_round = true;
                        trace.push(rosenthal_potential(game, &state, b));
                    }
                }
            }
            MoveOrder::MaxGain => {
                let mut best: Option<(usize, Vec<ndg_graph::EdgeId>, f64)> = None;
                for i in 0..n {
                    let current = player_cost(game, &state, b, i);
                    let (path, cost) = best_response(game, &state, b, i);
                    if strictly_lt(cost, current) {
                        let gain = current - cost;
                        if best.as_ref().is_none_or(|(_, _, g)| gain > *g) {
                            best = Some((i, path, gain));
                        }
                    }
                }
                if let Some((i, path, _)) = best {
                    state.replace_path(i, path);
                    moves += 1;
                    improved_this_round = true;
                    trace.push(rosenthal_potential(game, &state, b));
                }
            }
        }
        if !improved_this_round {
            return DynamicsResult {
                state,
                moves,
                rounds,
                converged: true,
                potential_trace: trace,
            };
        }
    }
    let converged = crate::equilibrium::is_equilibrium(game, &state, b);
    DynamicsResult {
        state,
        moves,
        rounds,
        converged,
        potential_trace: trace,
    }
}

/// Convenience: run dynamics starting from the state induced by a spanning
/// tree (e.g. an MST, as in the price-of-stability argument).
pub fn dynamics_from_tree(
    game: &NetworkDesignGame,
    tree_edges: &[ndg_graph::EdgeId],
    b: &SubsidyAssignment,
    order: MoveOrder,
    max_rounds: usize,
) -> Result<DynamicsResult, crate::state::StateError> {
    let (state, _) = State::from_tree(game, tree_edges)?;
    let unlimited = ndg_exec::Budget::unlimited();
    Ok(
        best_response_dynamics_budgeted(game, state, b, order, max_rounds, &unlimited)
            .expect("an unlimited budget never expires"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equilibrium::is_equilibrium;
    use crate::game::Player;
    use ndg_graph::{generators, kruskal, EdgeId, NodeId};

    #[test]
    fn converges_on_cycle_and_improves_far_player() {
        let n = 6;
        let g = generators::cycle_graph(n + 1, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = (0..n as u32).map(EdgeId).collect();
        let b = SubsidyAssignment::zero(game.graph());
        let res = dynamics_from_tree(&game, &tree, &b, MoveOrder::RoundRobin, 100).unwrap();
        assert!(res.converged);
        assert!(res.moves >= 1);
        assert!(is_equilibrium(&game, &res.state, &b));
        // Potential strictly decreases along the trace.
        for w in res.potential_trace.windows(2) {
            assert!(w[1] < w[0] + 1e-9);
        }
    }

    #[test]
    fn all_orders_converge_randomized() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..12 {
            let n = rng.random_range(3..9usize);
            let g = generators::random_connected(n, 0.5, &mut rng, 0.2..3.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let b = SubsidyAssignment::zero(game.graph());
            for order in [
                MoveOrder::RoundRobin,
                MoveOrder::RandomOrder(case),
                MoveOrder::MaxGain,
            ] {
                let res = dynamics_from_tree(&game, &tree, &b, order, 10_000).unwrap();
                assert!(res.converged, "order {order:?} failed to converge");
                assert!(is_equilibrium(&game, &res.state, &b));
            }
        }
    }

    #[test]
    fn expired_budget_cancels_dynamics() {
        let n = 6;
        let g = generators::cycle_graph(n + 1, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = (0..n as u32).map(EdgeId).collect();
        let b = SubsidyAssignment::zero(game.graph());
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let budget = ndg_exec::Budget::with_deadline(std::time::Duration::ZERO);
        let err =
            best_response_dynamics_budgeted(&game, state, &b, MoveOrder::RoundRobin, 100, &budget)
                .unwrap_err();
        assert_eq!(err, ndg_exec::BudgetExceeded);
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_driver() {
        let n = 6;
        let g = generators::cycle_graph(n + 1, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = (0..n as u32).map(EdgeId).collect();
        let b = SubsidyAssignment::zero(game.graph());
        let plain = dynamics_from_tree(&game, &tree, &b, MoveOrder::RoundRobin, 100).unwrap();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let budgeted = best_response_dynamics_budgeted(
            &game,
            state,
            &b,
            MoveOrder::RoundRobin,
            100,
            &ndg_exec::Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(plain.moves, budgeted.moves);
        assert_eq!(plain.rounds, budgeted.rounds);
        assert_eq!(plain.potential_trace, budgeted.potential_trace);
    }

    #[test]
    fn equilibrium_start_needs_no_moves() {
        let g = generators::star_graph(5, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = game.graph().edge_ids().collect();
        let b = SubsidyAssignment::zero(game.graph());
        let res = dynamics_from_tree(&game, &tree, &b, MoveOrder::RoundRobin, 10).unwrap();
        assert!(res.converged);
        assert_eq!(res.moves, 0);
        assert_eq!(res.rounds, 1);
    }

    /// Random broadcast games opened at their MST, fully subsidized so
    /// that the start is an equilibrium the Lemma-2 certifier proves.
    fn certified_starts() -> Vec<(NetworkDesignGame, State, SubsidyAssignment)> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(26);
        (0..8)
            .map(|_| {
                let n = rng.random_range(4..12usize);
                let g = generators::random_connected(n, 0.5, &mut rng, 0.2..3.0);
                let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
                let tree = kruskal(game.graph()).unwrap();
                let (state, _) = State::from_tree(&game, &tree).unwrap();
                let b = SubsidyAssignment::all_or_nothing(game.graph(), &tree);
                (game, state, b)
            })
            .collect()
    }

    #[test]
    fn certified_start_returns_the_first_round_answer_under_every_order() {
        for (case, (game, state, b)) in certified_starts().into_iter().enumerate() {
            let phi = rosenthal_potential(&game, &state, &b);
            for order in [
                MoveOrder::RoundRobin,
                MoveOrder::RandomOrder(case as u64),
                MoveOrder::MaxGain,
            ] {
                let unlimited = ndg_exec::Budget::unlimited();
                let res = best_response_dynamics_budgeted(
                    &game,
                    state.clone(),
                    &b,
                    order,
                    50,
                    &unlimited,
                )
                .unwrap();
                assert_eq!((res.moves, res.rounds, res.converged), (0, 1, true));
                assert_eq!(res.potential_trace.len(), 1);
                assert_eq!(res.potential_trace[0].to_bits(), phi.to_bits());
                for i in 0..game.num_players() {
                    assert_eq!(res.state.path(i), state.path(i), "{order:?}");
                }
                let naive = best_response_dynamics_naive(&game, state.clone(), &b, order, 50);
                assert_eq!((naive.moves, naive.rounds), (0, 1), "{order:?}");
            }
        }
    }

    #[test]
    fn certified_start_still_checks_the_budget() {
        let (game, state, b) = certified_starts().swap_remove(0);
        let budget = ndg_exec::Budget::with_deadline(std::time::Duration::ZERO);
        let err =
            best_response_dynamics_budgeted(&game, state, &b, MoveOrder::RoundRobin, 10, &budget)
                .unwrap_err();
        assert_eq!(err, ndg_exec::BudgetExceeded);
    }

    #[test]
    fn zero_rounds_report_the_certified_verdict() {
        let unlimited = ndg_exec::Budget::unlimited();
        let (game, state, b) = certified_starts().swap_remove(0);
        let res =
            best_response_dynamics_budgeted(&game, state, &b, MoveOrder::MaxGain, 0, &unlimited)
                .unwrap();
        assert_eq!((res.moves, res.rounds, res.converged), (0, 0, true));
        // Unsubsidized, the 7-cycle's path tree is no equilibrium.
        let g = generators::cycle_graph(7, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = (0..6).map(EdgeId).collect();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let res =
            best_response_dynamics_budgeted(&game, state, &b, MoveOrder::RoundRobin, 0, &unlimited)
                .unwrap();
        assert_eq!((res.moves, res.rounds, res.converged), (0, 0, false));
    }

    #[test]
    fn general_game_start_still_runs_the_engine() {
        // Two players across a 6-ring, both routed the long way round: no
        // broadcast tree for Lemma 2 to certify, and both can improve.
        let g = generators::cycle_graph(6, 1.0);
        let game = NetworkDesignGame::new(
            g,
            vec![
                Player {
                    source: NodeId(0),
                    terminal: NodeId(2),
                },
                Player {
                    source: NodeId(1),
                    terminal: NodeId(2),
                },
            ],
        )
        .unwrap();
        let path = |ids: &[u32]| ids.iter().map(|&k| EdgeId(k)).collect::<Vec<_>>();
        let state = State::new(&game, vec![path(&[5, 4, 3, 2]), path(&[0, 5, 4, 3, 2])]).unwrap();
        let b = SubsidyAssignment::zero(game.graph());
        let unlimited = ndg_exec::Budget::unlimited();
        let res = best_response_dynamics_budgeted(
            &game,
            state.clone(),
            &b,
            MoveOrder::RoundRobin,
            50,
            &unlimited,
        )
        .unwrap();
        let naive = best_response_dynamics_naive(&game, state, &b, MoveOrder::RoundRobin, 50);
        assert!(res.moves > 0 && res.converged);
        assert_eq!((res.moves, res.rounds), (naive.moves, naive.rounds));
        assert_eq!(
            res.state.established_edges(),
            naive.state.established_edges()
        );
    }

    #[test]
    fn subsidized_dynamics_respects_extension_costs() {
        // With the Theorem 11 cycle and the closing edge made free to the
        // deviator, subsidizing the whole tree keeps everyone in place.
        let n = 5;
        let g = generators::cycle_graph(n + 1, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
        let tree: Vec<EdgeId> = (0..n as u32).map(EdgeId).collect();
        let b = SubsidyAssignment::all_or_nothing(game.graph(), &tree);
        let res = dynamics_from_tree(&game, &tree, &b, MoveOrder::RoundRobin, 10).unwrap();
        assert!(res.converged);
        assert_eq!(res.moves, 0);
    }
}
