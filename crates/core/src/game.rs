//! Network design games (Section 2 of the paper).
//!
//! A game is an edge-weighted undirected graph plus one `(sᵢ, tᵢ)` pair per
//! player; a *broadcast game* has a distinguished root, one player per
//! non-root node, and every player's terminal is the root.

use ndg_graph::{EdgeId, Graph, GraphError, NodeId};
use std::fmt;

/// One player's connectivity requirement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Player {
    /// Source node `sᵢ`.
    pub source: NodeId,
    /// Terminal node `tᵢ`.
    pub terminal: NodeId,
}

/// Errors raised when constructing a game.
#[derive(Clone, Debug, PartialEq)]
pub enum GameError {
    /// A player's endpoint is out of range.
    BadNode { node: u32, node_count: usize },
    /// A player has `source == terminal` (a trivial requirement we reject).
    TrivialPlayer { player: usize },
    /// A player's endpoints are not connected in the graph, so the player
    /// has an empty strategy set.
    NoStrategy { player: usize },
    /// Broadcast constructor: the graph must be connected.
    Disconnected,
    /// Broadcast constructor: the graph needs at least 2 nodes.
    TooSmall,
}

impl fmt::Display for GameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GameError::BadNode { node, node_count } => {
                write!(
                    f,
                    "player endpoint {node} out of range ({node_count} nodes)"
                )
            }
            GameError::TrivialPlayer { player } => {
                write!(f, "player {player} has source == terminal")
            }
            GameError::NoStrategy { player } => {
                write!(f, "player {player} has no connecting path")
            }
            GameError::Disconnected => write!(f, "broadcast game requires a connected graph"),
            GameError::TooSmall => write!(f, "broadcast game requires at least 2 nodes"),
        }
    }
}

impl std::error::Error for GameError {}

/// A fair-cost-sharing network design game.
#[derive(Clone, Debug)]
pub struct NetworkDesignGame {
    graph: Graph,
    players: Vec<Player>,
    /// `Some(root)` iff this game was built by [`NetworkDesignGame::broadcast`].
    broadcast_root: Option<NodeId>,
    /// Broadcast only: `player_of_node[v]` = index of the player whose
    /// source is `v` (`usize::MAX` for the root).
    player_of_node: Vec<usize>,
}

impl NetworkDesignGame {
    /// General game from explicit player pairs.
    pub fn new(graph: Graph, players: Vec<Player>) -> Result<Self, GameError> {
        let n = graph.node_count();
        // Connectivity per player (one BFS per component labeling).
        let component = component_labels(&graph);
        for (i, p) in players.iter().enumerate() {
            for x in [p.source, p.terminal] {
                if x.index() >= n {
                    return Err(GameError::BadNode {
                        node: x.0,
                        node_count: n,
                    });
                }
            }
            if p.source == p.terminal {
                return Err(GameError::TrivialPlayer { player: i });
            }
            if component[p.source.index()] != component[p.terminal.index()] {
                return Err(GameError::NoStrategy { player: i });
            }
        }
        Ok(NetworkDesignGame {
            graph,
            players,
            broadcast_root: None,
            player_of_node: Vec::new(),
        })
    }

    /// Broadcast game: one player per non-root node, all terminals = `root`.
    ///
    /// Players are ordered by increasing source node id (skipping the root),
    /// matching the paper's "player associated with node u" convention.
    pub fn broadcast(graph: Graph, root: NodeId) -> Result<Self, GameError> {
        let n = graph.node_count();
        if root.index() >= n {
            return Err(GameError::BadNode {
                node: root.0,
                node_count: n,
            });
        }
        if n < 2 {
            return Err(GameError::TooSmall);
        }
        if !graph.is_connected() {
            return Err(GameError::Disconnected);
        }
        let mut players = Vec::with_capacity(n - 1);
        let mut player_of_node = vec![usize::MAX; n];
        for v in graph.nodes() {
            if v != root {
                player_of_node[v.index()] = players.len();
                players.push(Player {
                    source: v,
                    terminal: root,
                });
            }
        }
        Ok(NetworkDesignGame {
            graph,
            players,
            broadcast_root: Some(root),
            player_of_node,
        })
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The players.
    #[inline]
    pub fn players(&self) -> &[Player] {
        &self.players
    }

    /// Number of players `n`.
    #[inline]
    pub fn num_players(&self) -> usize {
        self.players.len()
    }

    /// Whether this game was constructed as a broadcast game.
    #[inline]
    pub fn is_broadcast(&self) -> bool {
        self.broadcast_root.is_some()
    }

    /// The broadcast root, if any.
    #[inline]
    pub fn root(&self) -> Option<NodeId> {
        self.broadcast_root
    }

    /// Set the weight of edge `e` to `w` (see [`Graph::set_weight`]). The
    /// topology and the players are unchanged, so the game stays valid.
    ///
    /// # Panics
    /// Panics if `e` is not an edge of the graph.
    pub fn set_weight(&mut self, e: EdgeId, w: f64) -> Result<(), GraphError> {
        self.graph.set_weight(e, w)
    }

    /// Broadcast only: the player associated with node `v` (`None` for the
    /// root or non-broadcast games).
    pub fn player_of_node(&self, v: NodeId) -> Option<usize> {
        self.broadcast_root?;
        match self.player_of_node.get(v.index()) {
            Some(&i) if i != usize::MAX => Some(i),
            _ => None,
        }
    }
}

fn component_labels(g: &Graph) -> Vec<usize> {
    let mut uf = ndg_graph::UnionFind::new(g.node_count());
    for (_, e) in g.edges() {
        uf.union(e.u.index(), e.v.index());
    }
    (0..g.node_count()).map(|v| uf.find(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndg_graph::generators;

    #[test]
    fn broadcast_orders_players_by_node() {
        let g = generators::cycle_graph(5, 1.0);
        let game = NetworkDesignGame::broadcast(g, NodeId(2)).unwrap();
        assert_eq!(game.num_players(), 4);
        assert!(game.is_broadcast());
        assert_eq!(game.root(), Some(NodeId(2)));
        let sources: Vec<u32> = game.players().iter().map(|p| p.source.0).collect();
        assert_eq!(sources, vec![0, 1, 3, 4]);
        assert!(game.players().iter().all(|p| p.terminal == NodeId(2)));
        assert_eq!(game.player_of_node(NodeId(3)), Some(2));
        assert_eq!(game.player_of_node(NodeId(2)), None);
    }

    #[test]
    fn broadcast_rejects_disconnected_and_tiny() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        assert!(matches!(
            NetworkDesignGame::broadcast(g, NodeId(0)),
            Err(GameError::Disconnected)
        ));
        assert!(matches!(
            NetworkDesignGame::broadcast(Graph::new(1), NodeId(0)),
            Err(GameError::TooSmall)
        ));
        let g2 = generators::path_graph(3, 1.0);
        assert!(matches!(
            NetworkDesignGame::broadcast(g2, NodeId(9)),
            Err(GameError::BadNode { .. })
        ));
    }

    #[test]
    fn general_game_validation() {
        let g = generators::path_graph(4, 1.0);
        let ok = NetworkDesignGame::new(
            g.clone(),
            vec![Player {
                source: NodeId(0),
                terminal: NodeId(3),
            }],
        );
        assert!(ok.is_ok());
        assert!(!ok.unwrap().is_broadcast());

        assert!(matches!(
            NetworkDesignGame::new(
                g.clone(),
                vec![Player {
                    source: NodeId(1),
                    terminal: NodeId(1),
                }],
            ),
            Err(GameError::TrivialPlayer { player: 0 })
        ));

        let mut disc = Graph::new(4);
        disc.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        disc.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        assert!(matches!(
            NetworkDesignGame::new(
                disc,
                vec![Player {
                    source: NodeId(0),
                    terminal: NodeId(3),
                }],
            ),
            Err(GameError::NoStrategy { player: 0 })
        ));
    }
}
