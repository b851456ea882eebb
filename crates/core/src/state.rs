//! Game states: one strategy (simple path) per player.
//!
//! A state `T = (T₁, …, Tₙ)` induces per-edge usage counts `n_a(T)`; its
//! social cost is the total weight of established edges, which equals the
//! sum of player costs under fair sharing (Section 2).

use crate::game::NetworkDesignGame;
use ndg_graph::{EdgeId, Graph, GraphError, NodeId, RootedTree};
use std::fmt;

/// Errors raised when building or mutating a state.
#[derive(Clone, Debug, PartialEq)]
pub enum StateError {
    /// Wrong number of strategy paths.
    WrongPlayerCount { got: usize, want: usize },
    /// Player `i`'s path is not a simple `sᵢ → tᵢ` path in the graph.
    InvalidPath { player: usize },
    /// The given edge set is not a spanning tree (for tree states).
    NotASpanningTree,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::WrongPlayerCount { got, want } => {
                write!(f, "state has {got} paths for {want} players")
            }
            StateError::InvalidPath { player } => {
                write!(f, "player {player}'s strategy is not a simple s-t path")
            }
            StateError::NotASpanningTree => write!(f, "edge set is not a spanning tree"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<GraphError> for StateError {
    fn from(_: GraphError) -> Self {
        StateError::NotASpanningTree
    }
}

/// A state of a network design game.
#[derive(Clone, Debug)]
pub struct State {
    paths: Vec<Vec<EdgeId>>,
    /// `usage[e] = n_a(T)`: number of players whose strategy contains `e`.
    usage: Vec<u32>,
}

impl State {
    /// Build a state from explicit per-player paths, validating each as a
    /// simple `sᵢ → tᵢ` path (the test of
    /// [`ndg_graph::paths::is_simple_path`]; an edge id outside the graph
    /// makes the path invalid).
    pub fn new(game: &NetworkDesignGame, paths: Vec<Vec<EdgeId>>) -> Result<Self, StateError> {
        let n = game.num_players();
        if paths.len() != n {
            return Err(StateError::WrongPlayerCount {
                got: paths.len(),
                want: n,
            });
        }
        let g = game.graph();
        let m = g.edge_count();
        let mut usage = vec![0u32; m];
        // `visited[v] == i` iff player i's walk has reached node v: one
        // array for every player, since indices never repeat.
        let mut visited = vec![usize::MAX; g.node_count()];
        for (i, (p, player)) in paths.iter().zip(game.players()).enumerate() {
            let mut cur = player.source;
            visited[cur.index()] = i;
            for &e in p {
                if e.index() >= m || !g.is_endpoint(e, cur) {
                    return Err(StateError::InvalidPath { player: i });
                }
                cur = g.other_endpoint(e, cur);
                if visited[cur.index()] == i {
                    return Err(StateError::InvalidPath { player: i });
                }
                visited[cur.index()] = i;
                usage[e.index()] += 1;
            }
            if cur != player.terminal {
                return Err(StateError::InvalidPath { player: i });
            }
        }
        Ok(State { paths, usage })
    }

    /// Build the state induced by a spanning tree: every player uses the
    /// unique tree path between her endpoints. Returns the state together
    /// with the rooted view (rooted at the broadcast root if the game is a
    /// broadcast game, else at node 0).
    pub fn from_tree(
        game: &NetworkDesignGame,
        tree_edges: &[EdgeId],
    ) -> Result<(Self, RootedTree), StateError> {
        let g = game.graph();
        let root = game.root().unwrap_or(NodeId(0));
        let rt = RootedTree::new(g, tree_edges, root)?;
        let paths: Vec<Vec<EdgeId>> = game
            .players()
            .iter()
            .map(|p| rt.path_between(p.source, p.terminal))
            .collect();
        let state = State::new(game, paths)?;
        Ok((state, rt))
    }

    /// `n_a(T)` for edge `e`.
    #[inline]
    pub fn usage(&self, e: EdgeId) -> u32 {
        self.usage[e.index()]
    }

    /// `n_a^i(T)`: whether player `i` uses `e` (0/1 as bool).
    pub fn uses(&self, i: usize, e: EdgeId) -> bool {
        self.paths[i].contains(&e)
    }

    /// Player `i`'s strategy path.
    #[inline]
    pub fn path(&self, i: usize) -> &[EdgeId] {
        &self.paths[i]
    }

    /// Number of players.
    #[inline]
    pub fn num_players(&self) -> usize {
        self.paths.len()
    }

    /// Number of edges of the game's graph.
    pub(crate) fn edge_count(&self) -> usize {
        self.usage.len()
    }

    /// Established edges (usage ≥ 1), sorted by id.
    pub fn established_edges(&self) -> Vec<EdgeId> {
        self.usage
            .iter()
            .enumerate()
            .filter(|(_, &u)| u > 0)
            .map(|(i, _)| EdgeId(i as u32))
            .collect()
    }

    /// Social cost `wgt(T)`: total weight of established edges.
    pub fn weight(&self, g: &Graph) -> f64 {
        self.usage
            .iter()
            .enumerate()
            .filter(|(_, &u)| u > 0)
            .map(|(i, _)| g.weight(EdgeId(i as u32)))
            .sum()
    }

    /// Replace player `i`'s strategy, updating usage counts. The new path
    /// must already be validated by the caller (e.g. a Dijkstra output).
    pub fn replace_path(&mut self, i: usize, new_path: Vec<EdgeId>) {
        let mut new_path = new_path;
        self.swap_path(i, &mut new_path);
    }

    /// Map this state through an instance relabeling: player `i`'s path
    /// becomes player `player_map[i]`'s path in `target`, with every edge
    /// id sent through `edge_map` (sequence order preserved — a path stays
    /// a path). The result is fully re-validated against `target`, so a
    /// mismatched mapping surfaces as a [`StateError`] rather than a
    /// corrupt state.
    pub fn permuted(
        &self,
        target: &NetworkDesignGame,
        player_map: &[usize],
        edge_map: &[EdgeId],
    ) -> Result<State, StateError> {
        let n = target.num_players();
        if player_map.len() != self.paths.len() || self.paths.len() != n {
            return Err(StateError::WrongPlayerCount {
                got: self.paths.len(),
                want: n,
            });
        }
        let mut paths: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        for (i, path) in self.paths.iter().enumerate() {
            let j = player_map[i];
            if j >= n {
                return Err(StateError::InvalidPath { player: i });
            }
            paths[j] = path
                .iter()
                .map(|e| {
                    edge_map
                        .get(e.index())
                        .copied()
                        .ok_or(StateError::InvalidPath { player: i })
                })
                .collect::<Result<_, _>>()?;
        }
        State::new(target, paths)
    }

    /// Allocation-recycling variant of [`replace_path`](Self::replace_path):
    /// player `i` adopts the path in `path`, and on return `path` holds her
    /// previous strategy (whose buffer the caller can keep reusing).
    pub fn swap_path(&mut self, i: usize, path: &mut Vec<EdgeId>) {
        for &e in &self.paths[i] {
            self.usage[e.index()] -= 1;
        }
        for e in path.iter() {
            self.usage[e.index()] += 1;
        }
        std::mem::swap(&mut self.paths[i], path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Player;
    use ndg_graph::generators;
    use ndg_graph::kruskal;

    fn cycle_game(n: usize) -> NetworkDesignGame {
        NetworkDesignGame::broadcast(generators::cycle_graph(n, 1.0), NodeId(0)).unwrap()
    }

    #[test]
    fn tree_state_on_cycle() {
        let game = cycle_game(5);
        // Path tree 0-1-2-3-4 (drop the closing edge 4).
        let tree: Vec<EdgeId> = (0..4).map(EdgeId).collect();
        let (state, rt) = State::from_tree(&game, &tree).unwrap();
        assert_eq!(rt.root(), NodeId(0));
        // Player at node k uses edges 0..k: usage of edge i is 4 − i.
        assert_eq!(state.usage(EdgeId(0)), 4);
        assert_eq!(state.usage(EdgeId(3)), 1);
        assert_eq!(state.usage(EdgeId(4)), 0);
        assert_eq!(state.weight(game.graph()), 4.0);
        assert_eq!(state.established_edges().len(), 4);
        assert!(state.uses(3, EdgeId(0))); // player of node 4
        assert!(!state.uses(0, EdgeId(1))); // player of node 1 only uses edge 0
    }

    #[test]
    fn explicit_paths_validation() {
        let game = cycle_game(4);
        // Player of node 1 must connect 1 → 0.
        let bad = State::new(
            &game,
            vec![vec![EdgeId(1)], vec![EdgeId(1), EdgeId(0)], vec![EdgeId(3)]],
        );
        assert_eq!(bad.unwrap_err(), StateError::InvalidPath { player: 0 });
        let wrong_count = State::new(&game, vec![vec![EdgeId(0)]]);
        assert!(matches!(
            wrong_count,
            Err(StateError::WrongPlayerCount { got: 1, want: 3 })
        ));
    }

    /// `State::new` accepts a state iff every path passes
    /// [`is_simple_path`], and otherwise names the first failing player.
    /// The paths are shortest paths, some broken: emptied, a repeated
    /// node, the first or last edge dropped (a wrong start or end), an
    /// edge swapped for a random one, or a random walk. Half the games
    /// send every player to node 0, so valid paths share nodes.
    #[test]
    fn new_accepts_exactly_the_simple_paths() {
        use ndg_graph::paths::{dijkstra, is_simple_path};
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(26);
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..400 {
            let n = rng.random_range(3..10u32);
            let g = generators::random_connected(n as usize, 0.4, &mut rng, 0.5..2.0);
            let m = g.edge_count() as u32;
            let shared_terminal = rng.random_bool(0.5);
            let players = (0..rng.random_range(2..4))
                .map(|_| {
                    let source = rng.random_range(1..n);
                    let terminal = if shared_terminal {
                        0
                    } else {
                        (source + rng.random_range(1..n)) % n
                    };
                    Player {
                        source: NodeId(source),
                        terminal: NodeId(terminal),
                    }
                })
                .collect();
            let game = NetworkDesignGame::new(g, players).unwrap();
            let g = game.graph();
            let paths: Vec<Vec<EdgeId>> = game
                .players()
                .iter()
                .map(|p| {
                    let mut path = dijkstra(g, p.source).path_to(g, p.terminal).unwrap();
                    match rng.random_range(0..10) {
                        0 => path.clear(),
                        1 => {
                            let (_, e) = g.neighbors(p.source)[0];
                            path.splice(0..0, [e, e]);
                        }
                        2 => {
                            path.remove(0);
                        }
                        3 => {
                            path.pop();
                        }
                        4 => {
                            let k = rng.random_range(0..path.len());
                            path[k] = EdgeId(rng.random_range(0..m));
                        }
                        5 => {
                            let mut cur = p.source;
                            path.clear();
                            for _ in 0..rng.random_range(1..2 * n) {
                                let nb = g.neighbors(cur);
                                let (next, e) = nb[rng.random_range(0..nb.len())];
                                path.push(e);
                                cur = next;
                            }
                        }
                        _ => {}
                    }
                    path
                })
                .collect();
            let first_bad = paths
                .iter()
                .zip(game.players())
                .position(|(path, p)| !is_simple_path(g, path, p.source, p.terminal));
            match (State::new(&game, paths), first_bad) {
                (Ok(_), None) => accepted += 1,
                (Err(e), Some(i)) => {
                    assert_eq!(e, StateError::InvalidPath { player: i });
                    rejected += 1;
                }
                (got, want) => panic!("State::new {got:?}, first non-simple path {want:?}"),
            }
        }
        assert!(
            accepted >= 40 && rejected >= 40,
            "{accepted} accepted, {rejected} rejected"
        );
    }

    #[test]
    fn out_of_range_edge_id_is_an_invalid_path() {
        let game = cycle_game(4);
        // Player of node 1 reaches 0 over e0; player of node 2 names e9.
        let paths = vec![vec![EdgeId(0)], vec![EdgeId(9)], vec![EdgeId(3)]];
        assert_eq!(
            State::new(&game, paths).unwrap_err(),
            StateError::InvalidPath { player: 1 }
        );
    }

    #[test]
    fn non_tree_edge_set_rejected() {
        let game = cycle_game(4);
        let all: Vec<EdgeId> = game.graph().edge_ids().collect();
        assert_eq!(
            State::from_tree(&game, &all).unwrap_err(),
            StateError::NotASpanningTree
        );
    }

    #[test]
    fn replace_path_updates_usage() {
        let game = cycle_game(4);
        let tree: Vec<EdgeId> = (0..3).map(EdgeId).collect();
        let (mut state, _) = State::from_tree(&game, &tree).unwrap();
        // Player of node 3 (index 2) switches from [e2,e1,e0] to the
        // closing edge e3 (3 → 0 directly).
        assert_eq!(state.usage(EdgeId(0)), 3);
        state.replace_path(2, vec![EdgeId(3)]);
        assert_eq!(state.usage(EdgeId(0)), 2);
        assert_eq!(state.usage(EdgeId(2)), 0);
        assert_eq!(state.usage(EdgeId(3)), 1);
        assert_eq!(state.weight(game.graph()), 3.0);
    }

    #[test]
    fn sum_of_costs_equals_weight() {
        // Spot-check the identity wgt(T) = Σᵢ costᵢ(T) (Section 2).
        use crate::cost::player_cost;
        use crate::subsidy::SubsidyAssignment;
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let n = rng.random_range(3..12);
            let g = generators::random_connected(n, 0.4, &mut rng, 0.5..4.0);
            let game = NetworkDesignGame::broadcast(g, NodeId(0)).unwrap();
            let tree = kruskal(game.graph()).unwrap();
            let (state, _) = State::from_tree(&game, &tree).unwrap();
            let b = SubsidyAssignment::zero(game.graph());
            let total: f64 = (0..game.num_players())
                .map(|i| player_cost(&game, &state, &b, i))
                .sum();
            assert!(
                (total - state.weight(game.graph())).abs() < 1e-9,
                "Σ costs {total} != wgt {}",
                state.weight(game.graph())
            );
        }
    }

    #[test]
    fn general_game_tree_state() {
        let g = generators::grid_graph(2, 3, 1.0);
        let game = NetworkDesignGame::new(
            g,
            vec![
                Player {
                    source: NodeId(0),
                    terminal: NodeId(5),
                },
                Player {
                    source: NodeId(2),
                    terminal: NodeId(3),
                },
            ],
        )
        .unwrap();
        let tree = kruskal(game.graph()).unwrap();
        let (state, _) = State::from_tree(&game, &tree).unwrap();
        assert_eq!(state.num_players(), 2);
        // Both paths valid by construction.
        assert!(!state.path(0).is_empty());
        assert!(!state.path(1).is_empty());
    }
}
