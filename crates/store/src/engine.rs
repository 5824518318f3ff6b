//! The gRePair backend's query engine: grammar navigation with memoized
//! rule expansions and compiled RPQ plans.
//!
//! The grammar engine is one [`QueryEngine`] among the backends; the store
//! serves it through the same dispatch as every other. What makes it
//! special lives behind the trait: its [`QueryEngine::answer`] override
//! shares reach and RPQ source closures and `locate` descents across a
//! batch (DESIGN.md §5), levers that are grammar-shaped and have no analog
//! in the adjacency-backed engines.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use grepair_grammar::Grammar;
use grepair_hypergraph::{EdgeId, EdgeLabel, NodeId};
use grepair_queries::neighbors::Direction;
use grepair_queries::{speedup, GRepr, GrammarIndex, QueryError, ReachIndex, RpqIndex};

use crate::backend::{CacheStats, QueryEngine};
use crate::cache::ShardedMap;
use crate::query::{compile_pattern, Query, QueryAnswer};
use crate::store::BatchContext;
use crate::GrepairError;

/// One memoized rule expansion: the `(path, terminal label, node)` rows one
/// `(nt, ext position, direction)` combination contributes, with `path`
/// rule-relative (see [`GrammarIndex::rule_expansion`]). Neighbor queries
/// read the nodes; `out_edges`/`in_edges`, the primitive the version
/// overlay corrects (DESIGN.md §12), read the labels too. A row is as
/// large as it would be without the label: `NodeId` and `EdgeId` are
/// `u32`, so `(Vec<u32>, u32)` pads to the same 32 bytes.
type Expansion = Arc<Vec<(Vec<EdgeId>, u32, NodeId)>>;
/// Cache key: `(nonterminal, external position, direction)`.
type ExpansionKey = (u32, u32, Direction);
/// Both directions, for `neighbors`.
const BOTH: [Direction; 2] = [Direction::Out, Direction::In];

/// Per-worker scratch buffers, reused across the queries one worker
/// answers so the hot path does not reallocate per query. The store hands
/// one to each [`QueryEngine::answer`] call; never shared between threads.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Absolute derivation path assembled while expanding nonterminal edges.
    full: Vec<EdgeId>,
}

/// Hit/miss counters for the engine's two store-wide caches. Relaxed
/// atomics: exact totals, no lock (see `StoreStats`).
#[derive(Debug, Default)]
struct CacheCounters {
    expansion_hits: AtomicU64,
    expansion_misses: AtomicU64,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

/// The grammar-backed [`QueryEngine`]: G-representation navigation
/// (Prop. 4), skeleton reachability (Thm. 6), grammar-side RPQ plans, and
/// the memoized rule-expansion cache that makes hub-node neighborhoods
/// cheap.
#[derive(Debug)]
pub struct GrammarEngine {
    grammar: Arc<Grammar>,
    /// G-representation navigation (Prop. 4), built eagerly.
    index: GrammarIndex<Arc<Grammar>>,
    /// Skeleton-based reachability (Thm. 6), built eagerly.
    reach: ReachIndex<Arc<Grammar>>,
    /// Memoized rule expansions — hot on hub nodes, whose incident
    /// nonterminal edges repeat few distinct labels. One cache serves
    /// neighbor and labeled-edge queries alike.
    expansions: ShardedMap<ExpansionKey, Expansion>,
    /// Compiled RPQ plans per canonical pattern text.
    plans: ShardedMap<String, Arc<RpqIndex<Arc<Grammar>>>>,
    cache_counters: CacheCounters,
}

/// The other end of a rank-2 terminal edge with attachment `att` that
/// leaves (`Out`) or enters (`In`) `v`; `None` for any other edge.
fn terminal_neighbor(att: &[NodeId], v: NodeId, dir: Direction) -> Option<NodeId> {
    match (dir, att) {
        (Direction::Out, &[s, t]) if s == v => Some(t),
        (Direction::In, &[s, t]) if t == v => Some(s),
        _ => None,
    }
}

impl GrammarEngine {
    /// Build the engine from an already-validated grammar (the callers —
    /// [`crate::GraphStore::from_grammar`] and the grepair codec's `load`
    /// — validate first).
    pub(crate) fn new(grammar: Arc<Grammar>) -> Self {
        Self {
            index: GrammarIndex::new(grammar.clone()),
            reach: ReachIndex::new(grammar.clone()),
            grammar,
            expansions: ShardedMap::default(),
            plans: ShardedMap::default(),
            cache_counters: CacheCounters::default(),
        }
    }

    /// The context scan behind every neighbor and labeled-edge answer:
    /// each terminal edge at `repr`'s node in direction `dir` — in the
    /// node's own context or inside a nonterminal edge's memoized
    /// expansion — reported as `(label, global neighbor id)`. It mirrors
    /// `GrammarIndex::neighbors`, with the descent into each nonterminal
    /// edge replaced by the expansion cache. The caller resolves `repr`
    /// (possibly through the per-batch locate cache); the derivation-path
    /// buffer comes from `scratch`.
    fn scan(
        &self,
        repr: &GRepr,
        dir: Direction,
        scratch: &mut Scratch,
        mut emit: impl FnMut(u32, u64),
    ) {
        let ctx_graph = self.index.context(&repr.path);
        let full = &mut scratch.full;
        full.clear();
        full.extend_from_slice(&repr.path);
        for e in ctx_graph.incident(repr.node) {
            let att = ctx_graph.att(e);
            match ctx_graph.label(e) {
                EdgeLabel::Terminal(label) => {
                    if let Some(neighbor) = terminal_neighbor(att, repr.node, dir) {
                        emit(label, self.index.global_id(&repr.path, neighbor));
                    }
                }
                EdgeLabel::Nonterminal(nt) => {
                    for (pos, &x) in att.iter().enumerate() {
                        if x != repr.node {
                            continue;
                        }
                        for (rel, label, node) in self.expansion(nt, pos as u32, dir).iter() {
                            full.truncate(repr.path.len());
                            full.push(e);
                            full.extend_from_slice(rel);
                            emit(*label, self.index.global_id(full, *node));
                        }
                    }
                }
            }
        }
    }

    /// Neighbors of `repr`'s node over every direction in `dirs`, sorted
    /// and deduplicated.
    fn collect_neighbors(
        &self,
        repr: &GRepr,
        dirs: &[Direction],
        scratch: &mut Scratch,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        for &dir in dirs {
            self.scan(repr, dir, scratch, |_, id| out.push(id));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Labeled edges of `repr`'s node in direction `dir` as sorted,
    /// deduplicated `(label, neighbor)` pairs.
    fn collect_edges(
        &self,
        repr: &GRepr,
        dir: Direction,
        scratch: &mut Scratch,
    ) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        self.scan(repr, dir, scratch, |label, id| out.push((label, id)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Memoized rule-relative expansion for `(nt, ext position, dir)` — a
    /// hit is an `Arc` clone out of the sharded cache (read lock, no copy).
    pub(crate) fn expansion(&self, nt: u32, pos: u32, dir: Direction) -> Expansion {
        let key: ExpansionKey = (nt, pos, dir);
        if let Some(hit) = self.expansions.get(&key) {
            self.cache_counters.expansion_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        // Compute outside any lock: the recursion below re-enters
        // `expansion` for nested nonterminals (sharing their entries too).
        self.cache_counters.expansion_misses.fetch_add(1, Ordering::Relaxed);
        let computed = Arc::new(self.compute_expansion(nt, pos, dir));
        self.expansions.insert_if_absent(key, computed)
    }

    /// Uncached expansion body; straight-line grammars make the recursion
    /// (over strictly smaller nonterminals) finite.
    fn compute_expansion(
        &self,
        nt: u32,
        pos: u32,
        dir: Direction,
    ) -> Vec<(Vec<EdgeId>, u32, NodeId)> {
        let rhs = self.grammar.rule(nt);
        let Some(&v) = rhs.ext().get(pos as usize) else { return Vec::new() };
        let mut out = Vec::new();
        for e in rhs.incident(v) {
            let att = rhs.att(e);
            match rhs.label(e) {
                EdgeLabel::Terminal(label) => {
                    if let Some(neighbor) = terminal_neighbor(att, v, dir) {
                        out.push((Vec::new(), label, neighbor));
                    }
                }
                EdgeLabel::Nonterminal(sub) => {
                    for (p2, &x) in att.iter().enumerate() {
                        if x != v {
                            continue;
                        }
                        for (rel, label, node) in self.expansion(sub, p2 as u32, dir).iter() {
                            let mut path = Vec::with_capacity(rel.len() + 1);
                            path.push(e);
                            path.extend_from_slice(rel);
                            out.push((path, *label, *node));
                        }
                    }
                }
            }
        }
        out
    }

    /// The neighbors of `v` over `dirs` as a batch answer. `v` is located
    /// through the batch's cache when the plan says ≥ 2 neighbor queries
    /// name it.
    fn batch_neighbors(
        &self,
        v: u64,
        dirs: &[Direction],
        ctx: &BatchContext<'_>,
        scratch: &mut Scratch,
    ) -> Result<QueryAnswer, QueryError> {
        let repr = ctx
            .locate(v, || self.index.try_locate(v))
            .unwrap_or_else(|| self.index.try_locate(v).map(Arc::new))?;
        Ok(QueryAnswer::Nodes(self.collect_neighbors(&repr, dirs, scratch)))
    }

    /// Compiled-plan lookup for an RPQ pattern — a hit is an `Arc` clone out
    /// of the sharded cache.
    fn plan(
        &self,
        pattern: &str,
    ) -> Result<Arc<RpqIndex<Arc<Grammar>>>, GrepairError> {
        if let Some(hit) = self.plans.get(pattern) {
            self.cache_counters.plan_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.cache_counters.plan_misses.fetch_add(1, Ordering::Relaxed);
        let nfa = compile_pattern(pattern)?;
        let plan = Arc::new(RpqIndex::new(self.grammar.clone(), nfa));
        Ok(self.plans.insert_if_absent(pattern.to_string(), plan))
    }
}

impl QueryEngine for GrammarEngine {
    fn backend(&self) -> &'static str {
        crate::backend::GREPAIR
    }

    fn total_nodes(&self) -> u64 {
        self.index.total_nodes
    }

    fn out_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let repr = self.index.try_locate(v)?;
        Ok(self.collect_neighbors(&repr, &[Direction::Out], &mut Scratch::default()))
    }

    fn in_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let repr = self.index.try_locate(v)?;
        Ok(self.collect_neighbors(&repr, &[Direction::In], &mut Scratch::default()))
    }

    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        let repr = self.index.try_locate(v)?;
        Ok(self.collect_edges(&repr, Direction::Out, &mut Scratch::default()))
    }

    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        let repr = self.index.try_locate(v)?;
        Ok(self.collect_edges(&repr, Direction::In, &mut Scratch::default()))
    }

    fn neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let repr = self.index.try_locate(v)?;
        Ok(self.collect_neighbors(&repr, &BOTH, &mut Scratch::default()))
    }

    fn reachable(&self, s: u64, t: u64) -> Result<bool, GrepairError> {
        Ok(self.reach.try_reachable(s, t)?)
    }

    fn rpq(&self, pattern: &str, s: u64, t: u64) -> Result<bool, GrepairError> {
        let plan = self.plan(pattern)?;
        Ok(plan.try_matches(s, t)?)
    }

    fn components(&self) -> u64 {
        speedup::connected_components(&self.grammar)
    }

    fn degree_extrema(&self) -> Option<(u64, u64)> {
        speedup::degree_extrema(&self.grammar)
    }

    /// The per-batch sharing levers. Each engages only for keys the batch
    /// plan marked as shared, so an empty context answers exactly like the
    /// methods above.
    fn answer<'q>(
        &self,
        q: &'q Query,
        ctx: &BatchContext<'q>,
        scratch: &mut Scratch,
    ) -> Result<QueryAnswer, GrepairError> {
        Ok(match q {
            Query::OutNeighbors(v) => self.batch_neighbors(*v, &[Direction::Out], ctx, scratch)?,
            Query::InNeighbors(v) => self.batch_neighbors(*v, &[Direction::In], ctx, scratch)?,
            Query::Neighbors(v) => self.batch_neighbors(*v, &BOTH, ctx, scratch)?,
            // Trivially true for valid ids — skip the forward closure.
            Query::Reach { s, t } if s == t => QueryAnswer::Bool(self.reach.try_reachable(*s, *t)?),
            Query::Reach { s, t } => {
                let shared = ctx.reach_source(*s, || self.reach.try_source(*s));
                QueryAnswer::Bool(match shared {
                    Some(src) => self.reach.try_reachable_from(&*src?, *t)?,
                    None => self.reach.try_reachable(*s, *t)?,
                })
            }
            Query::Rpq { s, t, pattern } => {
                let plan = self.plan(pattern)?;
                let shared = ctx.rpq_source((pattern.as_str(), *s), || plan.try_source(*s));
                QueryAnswer::Bool(match shared {
                    Some(src) => plan.try_matches_from(&*src?, *t)?,
                    None => plan.try_matches(*s, *t)?,
                })
            }
            Query::Components => QueryAnswer::Count(self.components()),
            Query::DegreeExtrema => QueryAnswer::Extrema(self.degree_extrema()),
        })
    }

    fn cache_stats(&self) -> CacheStats {
        let c = &self.cache_counters;
        CacheStats {
            expansion_hits: c.expansion_hits.load(Ordering::Relaxed),
            expansion_misses: c.expansion_misses.load(Ordering::Relaxed),
            plan_hits: c.plan_hits.load(Ordering::Relaxed),
            plan_misses: c.plan_misses.load(Ordering::Relaxed),
        }
    }
}
