//! Canonical-form cache keying: the glue between the wire codec and
//! [`ndg_canon`].
//!
//! [`canonicalize_request`] rewrites a parsed request into **canonical
//! label space**: the game spec is replaced by its canonical form and
//! every attachment the codec knows (target/initial trees, explicit
//! states, subsidy vectors) is carried through the same
//! [`Relabeling`]. Two requests that differ only by a node relabeling —
//! independent clients numbering the same network differently — rewrite
//! to byte-identical canonical bodies and therefore share one cache
//! entry. The router solves the *canonical* instance on a miss and maps
//! the stored payload back through [`unapply_payload`] on every answer,
//! so hit and miss responses to the same request are byte-identical by
//! construction.
//!
//! Canonicalization declines (returns `None`) whenever it cannot
//! faithfully map the request: no game, an unmappable/oversized/
//! over-symmetric instance ([`ndg_canon::canonicalize`] fell back), or an
//! attachment whose shape does not match the instance (out-of-range edge
//! ids, mis-sized subsidy vectors, wrong path count). Those requests
//! flow through the literal pipeline unchanged — same bytes as a
//! `canon=0` request — so error diagnostics keep their original labels.
//!
//! [`CanonMemo`] keys each outcome on the request's **literal body**, its
//! [`Request::canonical_body`] text: FNV-1a of the body picks the entry,
//! and the stored body must match byte for byte. A stateless line in the
//! fast form [`Request::serialize`] writes — `ndg1;id=…`, then any of
//! `deadline_ms=`, `trace=1`, `trace_id=` in that order, then the body —
//! already carries that text after its header, so the router probes the
//! memo with it before parsing anything. A stored rewrite answers the
//! line unparsed. A miss, a declined rewrite, `canon=0` and every other
//! line shape are parsed, and [`CanonMemo::lookup`] probes the memo with
//! the re-serialized body.

use crate::codec::{fmt_edge_ids, fmt_f64, Method, Request, WireGame};
use ndg_canon::{canonicalize_with, Attachments, Instance, Relabeling};
use ndg_graph::EdgeId;

/// Convert a decoded game spec into the canonicalizer's neutral shape.
pub(crate) fn instance_of(game: &WireGame) -> Instance {
    match game {
        WireGame::Broadcast { n, root, edges } => Instance {
            n: *n,
            edges: edges.clone(),
            root: Some(*root),
            players: Vec::new(),
            demands: None,
        },
        WireGame::General { n, edges, players } => Instance {
            n: *n,
            edges: edges.clone(),
            root: None,
            players: players.clone(),
            demands: None,
        },
        WireGame::Weighted {
            n,
            edges,
            players,
            demands,
        } => Instance {
            n: *n,
            edges: edges.clone(),
            root: None,
            players: players.clone(),
            demands: Some(demands.clone()),
        },
    }
}

/// Convert a (canonical or relabeled) instance back into a wire spec;
/// the game kind is recovered from which optional sections are present.
pub(crate) fn wiregame_of(inst: Instance) -> WireGame {
    match (inst.root, inst.demands) {
        (Some(root), _) => WireGame::Broadcast {
            n: inst.n,
            root,
            edges: inst.edges,
        },
        (None, Some(demands)) => WireGame::Weighted {
            n: inst.n,
            edges: inst.edges,
            players: inst.players,
            demands,
        },
        (None, None) => WireGame::General {
            n: inst.n,
            edges: inst.edges,
            players: inst.players,
        },
    }
}

/// A request rewritten into canonical label space, plus the relabeling
/// that carries payloads back.
#[derive(Clone, Debug)]
pub struct CanonRequest {
    /// The canonical-space request (same id/method/budgets, canonical
    /// game and mapped attachments). Its canonical body is the
    /// isomorphism-aware cache key.
    pub req: Request,
    /// The old→new relabeling; responses are mapped back through its
    /// inverse direction.
    pub map: Relabeling,
}

fn edge_ids_in_range(ids: &[EdgeId], m: usize) -> bool {
    ids.iter().all(|e| e.index() < m)
}

/// A memoized canonicalization outcome: the request's literal canonical
/// body plus the canonical rewrite (with its body pre-serialized) when
/// one applies.
#[derive(Clone, Debug)]
pub struct CanonOutcome {
    /// The request's own canonical body — the literal cache key, and the
    /// string an isomorphism hit is classified against.
    pub literal_body: String,
    /// The canonical rewrite and its canonical-space body; `None` when
    /// the canonicalizer declined and the literal pipeline owns the
    /// request.
    pub canon: Option<(CanonRequest, String)>,
}

/// A small sharded memo from *literal body* to canonicalization outcome:
/// replaying an already-seen request line (the dominant warm-cache case)
/// costs a map probe instead of a full partition-refinement search (and
/// no parse or serialization either, for a line in the fast form; see the
/// module docs) — and declined searches (including the
/// budget-tripping adversarial ones) are memoized too, so repeats of a
/// pathological instance pay the search once per eviction, not per
/// request. Entries verify the stored literal body, so a 64-bit key
/// collision recomputes instead of mismapping.
#[derive(Debug)]
pub struct CanonMemo {
    shards: Vec<std::sync::Mutex<MemoShard>>,
    cap_per_shard: usize,
}

#[derive(Debug, Default)]
struct MemoShard {
    map: std::collections::HashMap<u64, MemoEntry>,
    clock: u64,
}

#[derive(Debug)]
struct MemoEntry {
    literal_body: String,
    canon: Option<(CanonRequest, String)>,
    stamp: u64,
}

/// Memo shard count (matches the result cache's).
const MEMO_SHARDS: usize = 16;

// Registry mirrors (no-ops until [`ndg_obs::install`]): how often the
// canonicalization memo short-circuits the refinement search vs. pays
// for it (both recompute paths — disabled memo and genuine miss — count
// as misses).
static M_MEMO_HITS: ndg_obs::Counter = ndg_obs::Counter::new("canon_memo_hits_total");
static M_MEMO_MISSES: ndg_obs::Counter = ndg_obs::Counter::new("canon_memo_misses_total");

impl CanonMemo {
    /// Memo holding at most `capacity` outcomes (`0` disables
    /// memoization: every lookup recomputes).
    pub fn new(capacity: usize) -> CanonMemo {
        CanonMemo {
            shards: (0..MEMO_SHARDS)
                .map(|_| std::sync::Mutex::new(MemoShard::default()))
                .collect(),
            cap_per_shard: capacity.div_ceil(MEMO_SHARDS),
        }
    }

    /// Canonicalize `req`, serving repeats of the same literal body from
    /// the memo. Always returns the literal body (computed once either
    /// way).
    pub fn lookup(&self, req: &Request) -> CanonOutcome {
        let literal_body = req.canonical_body();
        if let Some(canon) = self.probe(&literal_body) {
            M_MEMO_HITS.inc();
            return CanonOutcome {
                literal_body,
                canon,
            };
        }
        M_MEMO_MISSES.inc();
        let canon = canonicalize_request(req).map(|c| {
            let body = c.req.canonical_body();
            (c, body)
        });
        if self.cap_per_shard > 0 {
            let key = crate::codec::fnv1a64(literal_body.as_bytes());
            let mut guard = self.shard(key);
            guard.clock += 1;
            let stamp = guard.clock;
            if guard.map.len() >= self.cap_per_shard && !guard.map.contains_key(&key) {
                if let Some((&victim, _)) = guard.map.iter().min_by_key(|(_, e)| e.stamp) {
                    guard.map.remove(&victim);
                }
            }
            guard.map.insert(
                key,
                MemoEntry {
                    literal_body: literal_body.clone(),
                    canon: canon.clone(),
                    stamp,
                },
            );
        }
        CanonOutcome {
            literal_body,
            canon,
        }
    }

    /// The memoized canonical rewrite of `literal_body`, counted as a
    /// memo hit. `None`, counted as nothing, on a miss and for a body
    /// whose canonicalization declined: the caller resolves those through
    /// [`lookup`](Self::lookup), which counts them once.
    pub(crate) fn rewrite_of(&self, literal_body: &str) -> Option<(CanonRequest, String)> {
        let rewrite = self.probe(literal_body).flatten()?;
        M_MEMO_HITS.inc();
        Some(rewrite)
    }

    /// The memo's keying: FNV-1a of the literal body picks the entry, and
    /// the stored body must equal `literal_body`, so a 64-bit collision
    /// is a miss. A hit refreshes the entry's recency and returns its
    /// outcome (`None` inside for a declined canonicalization); a miss,
    /// or a disabled memo, returns `None`.
    fn probe(&self, literal_body: &str) -> Option<Option<(CanonRequest, String)>> {
        if self.cap_per_shard == 0 {
            return None;
        }
        let key = crate::codec::fnv1a64(literal_body.as_bytes());
        let mut shard = self.shard(key);
        shard.clock += 1;
        let clock = shard.clock;
        let entry = shard
            .map
            .get_mut(&key)
            .filter(|e| e.literal_body == literal_body)?;
        entry.stamp = clock;
        Some(entry.canon.clone())
    }

    /// The locked shard that owns `key`.
    fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, MemoShard> {
        self.shards[(key as usize) & (MEMO_SHARDS - 1)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Rewrite `req` into canonical label space, or `None` when the request
/// must be handled literally (see module docs). Pure function of the
/// request — isomorphic requests yield byte-identical canonical bodies.
pub fn canonicalize_request(req: &Request) -> Option<CanonRequest> {
    if matches!(req.method, Method::Stats | Method::Metrics) || req.method.is_session() {
        // Sessions are literal by specification: a delta answer is
        // compared byte-for-byte against a cold solve of the *pinned*
        // instance, and engines are not bitwise label-equivariant, so
        // canonical label space would change the specified bytes.
        return None;
    }
    let game = req.game.as_ref()?;
    let inst = instance_of(game);
    let m = inst.edges.len();
    let players = inst.num_players();
    // Attachments must be mappable, else the literal pipeline owns the
    // request (and its error diagnostics).
    if let Some(tree) = &req.tree {
        if !edge_ids_in_range(tree, m) {
            return None;
        }
    }
    if let Some(paths) = &req.state {
        if paths.len() != players || paths.iter().any(|p| !edge_ids_in_range(p, m)) {
            return None;
        }
    }
    if let Some(b) = &req.subsidy {
        if b.len() != m {
            return None;
        }
    }
    // Attachments ride into the canonicalization itself: among the
    // automorphic labelings of a symmetric instance, the one minimizing
    // the *mapped* attachments is chosen, so isomorphic (instance,
    // attachments) pairs — not merely instances — key identically.
    let mut att = Attachments::default();
    if let Some(tree) = &req.tree {
        att.edge_sets.push(tree.clone());
    }
    if let Some(b) = &req.subsidy {
        att.edge_vectors.push(b.clone());
    }
    if let Some(paths) = &req.state {
        att.path_lists.push(paths.clone());
    }
    let (canonical, map) = canonicalize_with(&inst, &att)?;
    let mut out = req.clone();
    out.game = Some(wiregame_of(canonical));
    out.tree = req.tree.as_ref().map(|t| map.apply_edge_set(t));
    out.state = req.state.as_ref().map(|s| map.apply_paths(s));
    out.subsidy = req.subsidy.as_ref().map(|b| map.apply_edge_values(b));
    Some(CanonRequest { req: out, map })
}

/// Map a canonical-space `ok` payload back into the request's original
/// labels. Floats are moved as substrings (never reparsed), so the bits
/// the canonical solve produced are the bits the client reads; edge sets
/// are re-sorted ascending in the original id space. Unknown fields pass
/// through untouched, which also makes the function safe on cached
/// error tails (they carry no ids that were mapped in the first place).
pub fn unapply_payload(method: Method, map: &Relabeling, payload: &str) -> String {
    match method {
        // Session payloads are never canonicalized in the first place
        // (sessions pin the literal instance), so unapply is the identity.
        Method::Pos
        | Method::Stats
        | Method::Metrics
        | Method::Events
        | Method::Health
        | Method::Open
        | Method::Delta
        | Method::Resync
        | Method::Close => payload.to_string(),
        Method::Enforce => map_fields(payload, |key, value| match key {
            "b" => Some(unmap_edge_vector(map, value)),
            _ => None,
        }),
        Method::Dynamics | Method::Aon => map_fields(payload, |key, value| match key {
            "edges" => Some(unmap_edge_set(map, value)),
            _ => None,
        }),
        Method::Certify => map_fields(payload, |key, value| match key {
            "player" => value
                .parse::<usize>()
                .ok()
                .map(|p| map.unapply_player(p).to_string()),
            "node" => value
                .parse::<u32>()
                .ok()
                .map(|v| map.unapply_node(v).to_string()),
            // `via` is the witness's non-tree *edge id*, not a node.
            "via" => value
                .parse::<u32>()
                .ok()
                .map(|e| map.unapply_edge(EdgeId(e)).0.to_string()),
            _ => None,
        }),
    }
}

/// Rewrite selected `key=value` fields of a payload, preserving order
/// and untouched fields byte-for-byte.
fn map_fields(payload: &str, rewrite: impl Fn(&str, &str) -> Option<String>) -> String {
    payload
        .split(';')
        .map(|field| match field.split_once('=') {
            Some((key, value)) => match rewrite(key, value) {
                Some(mapped) => format!("{key}={mapped}"),
                None => field.to_string(),
            },
            None => field.to_string(),
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Canonical-space edge-id set → original ids, sorted ascending.
fn unmap_edge_set(map: &Relabeling, value: &str) -> String {
    if value.is_empty() {
        return String::new();
    }
    let ids: Option<Vec<EdgeId>> = value
        .split(',')
        .map(|tok| tok.parse::<u32>().ok().map(EdgeId))
        .collect();
    match ids {
        Some(ids) => fmt_edge_ids(&map.unapply_edge_set(&ids)),
        // Internal payloads always parse; keep unknown shapes untouched.
        None => value.to_string(),
    }
}

/// Canonical-space per-edge float vector → original index order, the
/// float *substrings* moved verbatim.
fn unmap_edge_vector(map: &Relabeling, value: &str) -> String {
    if value.is_empty() {
        return String::new();
    }
    let parts: Vec<&str> = value.split(',').collect();
    if parts.len() != map.edge_count() {
        return value.to_string();
    }
    map.unapply_edge_values(&parts).join(",")
}

/// `canon_rate` formatting for the `stats` payload: share of cache hits
/// that needed the canonical mapping (0 when there were none).
pub(crate) fn canon_rate(canon_hits: u64, total_hits: u64) -> String {
    if total_hits == 0 {
        return "0".to_string();
    }
    fmt_f64(canon_hits as f64 / total_hits as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Method, Request};

    fn req(line: &str) -> Request {
        Request::parse(line).unwrap()
    }

    #[test]
    fn isomorphic_requests_share_a_canonical_body() {
        // The same weighted triangle written by two different clients:
        // nodes renamed (0,1,2)→(2,0,1), edges and players listed in a
        // different order, one endpoint pair flipped.
        let a = req("ndg1;id=a;method=enforce;tree=0,1;b=0.5,0,0;\
             game=general:3:0/1/1,1/2/2,2/0/4:0/2,1/2");
        let b = req("ndg1;id=b;method=enforce;tree=0,2;b=0,0,0.5;\
             game=general:3:0/1/2,1/2/4,2/0/1:2/1,0/1");
        let ca = canonicalize_request(&a).expect("mappable");
        let cb = canonicalize_request(&b).expect("mappable");
        assert_eq!(
            ca.req.canonical_body(),
            cb.req.canonical_body(),
            "relabeled duplicates must key identically"
        );
        // And a genuinely different instance must not collide.
        let c = req("ndg1;id=c;method=enforce;tree=0,1;b=0.5,0,0;\
             game=general:3:0/1/1,1/2/2,2/0/9:0/2,1/2");
        let cc = canonicalize_request(&c).expect("mappable");
        assert_ne!(ca.req.canonical_body(), cc.req.canonical_body());
    }

    #[test]
    fn unmappable_attachments_decline() {
        // Edge id out of range: the literal pipeline owns the error.
        let r = req("ndg1;id=x;method=certify;tree=90;game=broadcast:2:0:0/1/1");
        assert!(canonicalize_request(&r).is_none());
        // Subsidy vector of the wrong length.
        let r = req("ndg1;id=x;method=certify;tree=0;b=1,1;game=broadcast:2:0:0/1/1");
        assert!(canonicalize_request(&r).is_none());
        // Stats has no instance at all.
        let r = req("ndg1;id=x;method=stats");
        assert!(canonicalize_request(&r).is_none());
    }

    #[test]
    fn payload_mapping_round_trips_witness_fields() {
        let r = req("ndg1;id=a;method=certify;tree=0,1;\
             game=broadcast:3:0:0/1/1,1/2/2,2/0/4");
        let c = canonicalize_request(&r).expect("mappable");
        // A synthetic certify witness in canonical space: every id must
        // come back in original labels, floats untouched.
        let canon_node = c.map.apply_node(2);
        // `via` is an edge id (the witness's non-tree edge).
        let canon_via = c.map.apply_edge(EdgeId(1)).0;
        let canon_player = c.map.apply_player(1);
        let payload = format!(
            "eq=false;player={canon_player};node={canon_node};via={canon_via};\
             lhs=1.5;rhs=0.25;best=0.30000000000000004"
        );
        let back = unapply_payload(Method::Certify, &c.map, &payload);
        assert_eq!(
            back,
            "eq=false;player=1;node=2;via=1;lhs=1.5;rhs=0.25;best=0.30000000000000004"
        );
        // Edge sets come back sorted in original ids.
        let canon_tree = fmt_edge_ids(&c.map.apply_edge_set(&[EdgeId(0), EdgeId(1)]));
        let dyn_payload =
            format!("converged=true;moves=0;rounds=1;weight=3;phi=3;edges={canon_tree}");
        let back = unapply_payload(Method::Dynamics, &c.map, &dyn_payload);
        assert!(back.ends_with(";edges=0,1"), "{back}");
        // Per-edge vectors are reindexed with their substrings intact.
        let canon_b = c.map.apply_edge_values(&["0.1", "0", "7e-3"]);
        let enf = format!("cost=1;b={}", canon_b.join(","));
        let back = unapply_payload(Method::Enforce, &c.map, &enf);
        assert_eq!(back, "cost=1;b=0.1,0,7e-3");
    }

    #[test]
    fn memo_serves_stored_rewrites_by_literal_body() {
        let memo = CanonMemo::new(64);
        let r = req("ndg1;id=a;method=certify;tree=0,1;game=broadcast:3:0:0/1/1,1/2/2,2/0/4");
        let body = r.canonical_body();
        assert!(
            memo.rewrite_of(&body).is_none(),
            "a miss before the first lookup"
        );
        let stored = memo.lookup(&r).canon.expect("mappable");
        let (c, canon_body) = memo.rewrite_of(&body).expect("a hit after it");
        assert_eq!((c.req, canon_body), (stored.0.req, stored.1));
        // A declined canonicalization is stored but serves no rewrite.
        let declined = req("ndg1;id=x;method=certify;tree=90;game=broadcast:2:0:0/1/1");
        assert!(memo.lookup(&declined).canon.is_none());
        assert!(memo.rewrite_of(&declined.canonical_body()).is_none());
        // A disabled memo stores nothing.
        let off = CanonMemo::new(0);
        assert!(off.lookup(&r).canon.is_some());
        assert!(off.rewrite_of(&body).is_none());
    }

    #[test]
    fn canon_rate_formats_stably() {
        assert_eq!(canon_rate(0, 0), "0");
        assert_eq!(canon_rate(1, 2), "0.5");
        assert_eq!(canon_rate(3, 3), "1");
    }
}
