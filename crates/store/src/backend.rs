//! Pluggable compression backends: one codec/engine API from container
//! bytes to query answers (DESIGN.md §7).
//!
//! The paper's evaluation is comparative — gRePair against k²-trees and
//! list-based compressors — and its framing treats every compressor as an
//! interchangeable *representation* that must still answer neighborhood and
//! reachability queries. This module is that interface:
//!
//! * [`GraphCodec`] — a named compressor: encode a [`Hypergraph`] into a
//!   self-describing container image, load the container payload into a
//!   live engine, decode it back to a graph.
//! * [`QueryEngine`] — the serving surface every backend answers: the same
//!   fallible `neighbors`/`reach`/`rpq`/`components`/`degrees` queries
//!   [`crate::GraphStore`] has always served for the grammar.
//!
//! Containers are self-describing. A pre-redesign `.g2g` (magic `G2G1`)
//! is detected as the legacy gRePair container and keeps loading — and the
//! gRePair codec still *writes* that format, so its bytes are unchanged.
//! Every other backend writes the tagged layout:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "G2GC"
//! 4       1     container version (2)
//! 5       1     backend tag length L (1..=16)
//! 6       L     backend name, lower-case ASCII
//! 6+L     8     payload bit length, u64 LE
//! 14+L    ...   payload
//! ```
//!
//! [`crate::GraphStore::from_bytes`] dispatches on the tag, so the CLI,
//! the TCP server, hot `RELOAD`, and the batch machinery all serve any
//! registered backend without knowing which one they got.

use std::collections::VecDeque;

use grepair_baselines::{hn, k2 as k2base, lm};
use grepair_hypergraph::{EdgeLabel, Hypergraph, NodeId};
use grepair_k2tree::K2Tree;
use grepair_queries::{Nfa, QueryError};
use grepair_util::FxHashSet;

use crate::engine::Scratch;
use crate::query::{compile_pattern, Query, QueryAnswer};
use crate::store::{parse_container, write_container, BatchContext};
use crate::GrepairError;

/// Magic of the tagged (multi-backend) container layout.
pub const TAGGED_MAGIC: &[u8; 4] = b"G2GC";
/// Tagged container format version.
pub const TAGGED_VERSION: u8 = 2;

/// Backend name: the gRePair grammar (the paper's compressor).
pub const GREPAIR: &str = "grepair";
/// Backend name: one k²-tree per edge label (Brisaboa et al. \[21\] /
/// Álvarez-García et al. \[8\]).
pub const K2: &str = "k2";
/// Backend name: list-merging (Grabowski & Bieniecki \[20\]).
pub const LM: &str = "lm";
/// Backend name: virtual-node mining over a k²-tree (Buehrer &
/// Chellapilla \[23\] / Hernández & Navarro \[22\]).
pub const HN: &str = "hn";

/// A live, loaded compressed representation answering queries.
///
/// This is the exact query surface [`crate::GraphStore`] serves — every
/// method fallible, every id checked, no panic on any input (the §2
/// zero-panic policy extends to every backend). Node ids are the dense ids
/// of the graph the container was encoded from; whole-graph aggregates
/// (`components`, `degree_extrema`) are uncached here — the store memoizes
/// them once per loaded container.
pub trait QueryEngine: Send + Sync + std::fmt::Debug {
    /// The backend's registered name (matches its [`GraphCodec::name`]).
    fn backend(&self) -> &'static str;

    /// Number of nodes; valid query ids are `0..total_nodes()`.
    fn total_nodes(&self) -> u64;

    /// Out-neighbors of `v`, sorted ascending, deduplicated.
    fn out_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError>;

    /// In-neighbors of `v`, sorted ascending, deduplicated.
    fn in_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError>;

    /// Labeled out-edges of `v` as `(label, target)` pairs, sorted
    /// ascending, deduplicated. This is the primitive the version overlay
    /// corrects (DESIGN.md §12): an overlay must know *which* labeled edge
    /// a patch removed, so plain neighbor sets are not enough. Backends
    /// whose container drops labels (`lm`, `hn`) report everything as
    /// label `0`, matching their RPQ semantics.
    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError>;

    /// Labeled in-edges of `v` as `(label, source)` pairs, sorted
    /// ascending, deduplicated.
    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError>;

    /// Union of both directions, sorted and deduplicated.
    fn neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let mut out = self.out_neighbors(v)?;
        out.extend(self.in_neighbors(v)?);
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }

    /// Is `t` reachable from `s` along directed edges (reflexively)?
    fn reachable(&self, s: u64, t: u64) -> Result<bool, GrepairError>;

    /// Does some `s → t` path spell a word of the pattern's language?
    fn rpq(&self, pattern: &str, s: u64, t: u64) -> Result<bool, GrepairError>;

    /// Number of connected components (undirected view; isolated nodes
    /// count).
    fn components(&self) -> u64;

    /// `(min, max)` undirected degree, `None` for the empty graph.
    fn degree_extrema(&self) -> Option<(u64, u64)>;

    /// Answer `q` inside a batch: `ctx` is the batch's shared context
    /// (empty for a single query) and `scratch` the answering worker's
    /// buffers. Every store query lands here, after the store's duplicate
    /// memo; `components`/`degrees` are answered from the store's own memo
    /// first. The default answers through the methods above. An engine
    /// with work worth sharing across a batch overrides it — the grammar
    /// engine shares reach and RPQ source closures and `locate` descents
    /// (DESIGN.md §5).
    fn answer<'q>(
        &self,
        q: &'q Query,
        _ctx: &BatchContext<'q>,
        _scratch: &mut Scratch,
    ) -> Result<QueryAnswer, GrepairError> {
        Ok(match q {
            Query::OutNeighbors(v) => QueryAnswer::Nodes(self.out_neighbors(*v)?),
            Query::InNeighbors(v) => QueryAnswer::Nodes(self.in_neighbors(*v)?),
            Query::Neighbors(v) => QueryAnswer::Nodes(self.neighbors(*v)?),
            Query::Reach { s, t } => QueryAnswer::Bool(self.reachable(*s, *t)?),
            Query::Rpq { s, t, pattern } => QueryAnswer::Bool(self.rpq(pattern, *s, *t)?),
            Query::Components => QueryAnswer::Count(self.components()),
            Query::DegreeExtrema => QueryAnswer::Extrema(self.degree_extrema()),
        })
    }

    /// Hit/miss totals of the engine's store-wide caches, reported in
    /// [`crate::StoreStats`]; all zero for an engine without caches.
    fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// A snapshot of an engine's store-wide cache counters (see
/// [`QueryEngine::cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Memoized rule-expansion lookups that hit.
    pub expansion_hits: u64,
    /// Memoized rule-expansion lookups that missed (and computed).
    pub expansion_misses: u64,
    /// RPQ plan-cache hits.
    pub plan_hits: u64,
    /// RPQ plan-cache misses.
    pub plan_misses: u64,
}

/// A named compression backend: [`Hypergraph`] → container bytes → live
/// [`QueryEngine`] (or back to a graph).
///
/// `encode` returns a complete container *file image* (header included),
/// so `GraphStore::from_bytes(codec.encode(&g)?)` round-trips for every
/// registered codec. `load`/`decode` receive the already-split payload —
/// header parsing and backend dispatch are the container layer's job, not
/// the codec's.
pub trait GraphCodec: Sync {
    /// Registered backend name — the container tag, the `--backend` value,
    /// and what `INFO`/`STATS` report.
    fn name(&self) -> &'static str;

    /// Compress `g` into a self-describing container image.
    ///
    /// Errors (rather than panicking) when the graph is outside the
    /// backend's model — hyperedges for any baseline, labeled edges for
    /// the unlabeled-only `lm`/`hn` formats.
    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError>;

    /// Build a query engine from a container payload.
    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError>;

    /// Decode a container payload back into a graph (the `decompress`
    /// path). Lossy exactly where the format is: the baselines deduplicate
    /// parallel edges, `lm`/`hn` keep only the unlabeled out-structure.
    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError>;
}

/// Every registered backend, in registry order (`grepair` first — it is
/// the default everywhere a backend is not named).
pub fn codecs() -> &'static [&'static dyn GraphCodec] {
    static CODECS: [&'static dyn GraphCodec; 4] = [&GrepairCodec, &K2Codec, &LmCodec, &HnCodec];
    &CODECS
}

/// Registered backend names, in registry order.
pub fn backend_names() -> Vec<&'static str> {
    codecs().iter().map(|c| c.name()).collect()
}

/// Look a codec up by name.
pub fn codec_for(name: &str) -> Option<&'static dyn GraphCodec> {
    codecs().iter().copied().find(|c| c.name() == name)
}

/// The error text for an unregistered backend name — the one message both
/// container dispatch and the CLI's `--backend` flag print, so the two
/// never drift.
pub fn unknown_backend_error(name: &str) -> String {
    format!(
        "unknown backend {name:?} (registered: {})",
        backend_names().join(", ")
    )
}

/// Look a codec up by name, with an error naming every registered backend.
pub fn resolve_codec(name: &str) -> Result<&'static dyn GraphCodec, GrepairError> {
    codec_for(name).ok_or_else(|| GrepairError::Container(unknown_backend_error(name)))
}

/// Wrap a backend payload in the tagged container layout.
///
/// # Panics
/// If `backend` is not 1..=16 bytes of lower-case ASCII — backend names are
/// compile-time constants, so this is a programming error, not input.
pub fn write_tagged_container(backend: &str, bytes: &[u8], bit_len: u64) -> Vec<u8> {
    assert!(
        !backend.is_empty()
            && backend.len() <= 16
            && backend.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit()),
        "invalid backend tag {backend:?}"
    );
    let mut file = Vec::with_capacity(bytes.len() + 14 + backend.len());
    file.extend_from_slice(TAGGED_MAGIC);
    file.push(TAGGED_VERSION);
    file.push(backend.len() as u8);
    file.extend_from_slice(backend.as_bytes());
    file.extend_from_slice(&bit_len.to_le_bytes());
    file.extend_from_slice(bytes);
    file
}

/// Split any container image — legacy `.g2g` or tagged — into its backend
/// tag, claimed payload bit length, and payload.
///
/// The legacy-detection rule: a file starting with the old `G2G1` magic is
/// the pre-redesign gRePair container (12-byte header, no tag) and reports
/// backend [`GREPAIR`]; the tag of a tagged file is returned verbatim —
/// callers resolve it via [`resolve_codec`], so an unregistered tag names
/// every registered backend in its error.
pub fn split_any_container(file: &[u8]) -> Result<(&str, u64, &[u8]), GrepairError> {
    if file.starts_with(crate::store::MAGIC) {
        let (bit_len, payload) = parse_container(file)?;
        return Ok((GREPAIR, bit_len, payload));
    }
    if !file.starts_with(TAGGED_MAGIC) {
        // Exactly the legacy errors: too short to say, or a foreign magic.
        return match parse_container(file) {
            Err(e) => Err(e),
            // audited: parse_container rejects any file without the legacy magic, checked just above
            Ok(_) => unreachable!("legacy parse accepted bytes without the legacy magic"),
        };
    }
    let header = |what: &str| GrepairError::Container(format!("tagged container: {what}"));
    if file.len() < 6 {
        return Err(header("truncated header"));
    }
    // audited: file.len() >= 6 was checked just above
    if file[4] != TAGGED_VERSION {
        // audited: file.len() >= 6 was checked just above
        return Err(header(&format!("unsupported version {}", file[4])));
    }
    // audited: file.len() >= 6 was checked just above
    let tag_len = file[5] as usize;
    if !(1..=16).contains(&tag_len) {
        return Err(header(&format!("backend tag length {tag_len} out of range")));
    }
    let end = 6 + tag_len + 8;
    if file.len() < end {
        return Err(header("truncated header"));
    }
    // audited: file.len() >= end == 6 + tag_len + 8 was checked just above
    let tag = std::str::from_utf8(&file[6..6 + tag_len])
        .map_err(|_| header("backend tag is not UTF-8"))?;
    // audited: the slice is exactly end - (6 + tag_len) == 8 bytes, inside the checked end
    let bit_len = u64::from_le_bytes(file[6 + tag_len..end].try_into().expect("8 bytes"));
    // audited: end <= file.len() was checked above
    Ok((tag, bit_len, &file[end..]))
}

// ---------------------------------------------------------------------
// Shared engine plumbing
// ---------------------------------------------------------------------

pub(crate) fn check_id(v: u64, total: u64) -> Result<u32, GrepairError> {
    if v >= total {
        return Err(QueryError::NodeOutOfRange { id: v, total }.into());
    }
    Ok(v as u32)
}

/// Sorted-`u32` rows widened to the `u64` answer shape.
pub(crate) fn widen(mut rows: Vec<NodeId>) -> Vec<u64> {
    rows.sort_unstable();
    rows.dedup();
    rows.into_iter().map(u64::from).collect()
}

/// Directed BFS `s → t` over a neighbor primitive.
pub(crate) fn bfs_reachable(
    n: usize,
    s: u32,
    t: u32,
    mut outs: impl FnMut(u32, &mut Vec<NodeId>),
) -> bool {
    if s == t {
        return true;
    }
    let mut visited = vec![false; n];
    // audited: callers pass s < n (check_id)
    visited[s as usize] = true;
    let mut queue = VecDeque::from([s]);
    let mut buf = Vec::new();
    while let Some(v) = queue.pop_front() {
        buf.clear();
        outs(v, &mut buf);
        for &w in &buf {
            if w == t {
                return true;
            }
            // audited: engine adjacency entries are validated < n at decode time
            if !visited[w as usize] {
                // audited: engine adjacency entries are validated < n at decode time
                visited[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    false
}

/// Product-automaton BFS for RPQs over a labeled neighbor primitive:
/// states are `(node, nfa state)`, accepting when the target is reached in
/// an accepting state. Handles the empty word (`s == t` with an accepting
/// start state) for free, matching the grammar engine's semantics.
pub(crate) fn product_rpq(
    nfa: &Nfa,
    s: u32,
    t: u32,
    labels: &[u32],
    mut outs: impl FnMut(u32, u32, &mut Vec<NodeId>),
) -> bool {
    let mut visited: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
    for &q in nfa.start_states() {
        if visited.insert((s, q)) {
            queue.push_back((s, q));
        }
    }
    let mut buf = Vec::new();
    while let Some((v, q)) = queue.pop_front() {
        if v == t && nfa.is_accepting(q) {
            return true;
        }
        for &label in labels {
            let next: Vec<u32> = nfa.step(q, label).collect();
            if next.is_empty() {
                continue;
            }
            buf.clear();
            outs(v, label, &mut buf);
            for &w in &buf {
                for &q2 in &next {
                    if visited.insert((w, q2)) {
                        queue.push_back((w, q2));
                    }
                }
            }
        }
    }
    false
}

/// Component count over an edge iterator (undirected view; isolated nodes
/// count — the same semantics as the grammar's one-pass evaluation).
pub(crate) fn count_components(n: usize, edges: impl Iterator<Item = (u32, u32)>) -> u64 {
    let mut uf = grepair_hypergraph::traverse::UnionFind::new(n);
    for (a, b) in edges {
        uf.union(a, b);
    }
    uf.component_count() as u64
}

/// Degree extrema over an edge iterator (each edge adds one incidence per
/// endpoint, so a self-loop counts twice — matching `val(G)` semantics).
pub(crate) fn degree_extrema_of(
    n: usize,
    edges: impl Iterator<Item = (u32, u32)>,
) -> Option<(u64, u64)> {
    if n == 0 {
        return None;
    }
    let mut deg = vec![0u64; n];
    for (a, b) in edges {
        // audited: engine edge endpoints are validated < n at decode time
        deg[a as usize] += 1;
        // audited: engine edge endpoints are validated < n at decode time
        deg[b as usize] += 1;
    }
    // audited: deg is non-empty: n == 0 returned None above
    let lo = *deg.iter().min().expect("n > 0");
    // audited: deg is non-empty: n == 0 returned None above
    let hi = *deg.iter().max().expect("n > 0");
    Some((lo, hi))
}

/// `(label, node)` pairs sorted ascending and deduplicated — the answer
/// shape of [`QueryEngine::out_edges`]/[`QueryEngine::in_edges`].
pub(crate) fn sort_edge_pairs(mut pairs: Vec<(u32, u64)>) -> Vec<(u32, u64)> {
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

// ---------------------------------------------------------------------
// k² engine: per-label adjacency-matrix trees, queried in place
// ---------------------------------------------------------------------

/// The k²-tree backend's engine: one tree per edge label, neighborhoods
/// answered by row/column walks, reachability and RPQs by BFS over that
/// primitive. Nothing is materialized per node — the trees themselves are
/// the resident representation, exactly as in \[21\].
#[derive(Debug)]
pub struct K2Engine {
    n: u32,
    trees: Vec<(u32, K2Tree)>,
}

impl K2Engine {
    fn out_row(&self, v: u32, buf: &mut Vec<NodeId>) {
        for (_, tree) in &self.trees {
            buf.extend(tree.row(v));
        }
    }

    fn all_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.trees.iter().flat_map(|(_, tree)| tree.iter_ones())
    }
}

impl QueryEngine for K2Engine {
    fn backend(&self) -> &'static str {
        K2
    }

    fn total_nodes(&self) -> u64 {
        self.n as u64
    }

    fn out_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let v = check_id(v, self.total_nodes())?;
        let mut rows = Vec::new();
        self.out_row(v, &mut rows);
        Ok(widen(rows))
    }

    fn in_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let v = check_id(v, self.total_nodes())?;
        let mut cols = Vec::new();
        for (_, tree) in &self.trees {
            cols.extend(tree.col(v));
        }
        Ok(widen(cols))
    }

    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        let v = check_id(v, self.total_nodes())?;
        let mut pairs = Vec::new();
        for &(label, ref tree) in &self.trees {
            pairs.extend(tree.row(v).into_iter().map(|w| (label, w as u64)));
        }
        Ok(sort_edge_pairs(pairs))
    }

    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        let v = check_id(v, self.total_nodes())?;
        let mut pairs = Vec::new();
        for &(label, ref tree) in &self.trees {
            pairs.extend(tree.col(v).into_iter().map(|w| (label, w as u64)));
        }
        Ok(sort_edge_pairs(pairs))
    }

    fn reachable(&self, s: u64, t: u64) -> Result<bool, GrepairError> {
        let s = check_id(s, self.total_nodes())?;
        let t = check_id(t, self.total_nodes())?;
        Ok(bfs_reachable(self.n as usize, s, t, |v, buf| self.out_row(v, buf)))
    }

    fn rpq(&self, pattern: &str, s: u64, t: u64) -> Result<bool, GrepairError> {
        let s = check_id(s, self.total_nodes())?;
        let t = check_id(t, self.total_nodes())?;
        let nfa = compile_pattern(pattern)?;
        let labels: Vec<u32> = self.trees.iter().map(|&(l, _)| l).collect();
        Ok(product_rpq(&nfa, s, t, &labels, |v, label, buf| {
            if let Some((_, tree)) = self.trees.iter().find(|&&(l, _)| l == label) {
                buf.extend(tree.row(v));
            }
        }))
    }

    fn components(&self) -> u64 {
        count_components(self.n as usize, self.all_edges())
    }

    fn degree_extrema(&self) -> Option<(u64, u64)> {
        degree_extrema_of(self.n as usize, self.all_edges())
    }
}

// ---------------------------------------------------------------------
// Adjacency engine: decoded out-lists (the lm and hn backends)
// ---------------------------------------------------------------------

/// The engine behind the list-shaped backends (`lm`, `hn`): decoded,
/// unlabeled out-adjacency plus its in-inversion, built once at load.
/// These formats store single-label rank-2 structure only, so every edge
/// is label `0` for RPG purposes.
#[derive(Debug)]
pub struct AdjEngine {
    backend: &'static str,
    out: Vec<Vec<NodeId>>,
    ins: Vec<Vec<NodeId>>,
}

impl AdjEngine {
    /// Build from sorted, deduplicated out-lists.
    fn from_out(backend: &'static str, out: Vec<Vec<NodeId>>) -> Self {
        let mut ins: Vec<Vec<NodeId>> = vec![Vec::new(); out.len()];
        for (v, outs) in out.iter().enumerate() {
            for &w in outs {
                // audited: out-list entries are validated < out.len() == ins.len() at decode time
                ins[w as usize].push(v as NodeId);
            }
        }
        // Ascending v pushes keep every in-list sorted; out-lists arrive
        // sorted+deduplicated from the decoders.
        Self { backend, out, ins }
    }

    fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(v, outs)| outs.iter().map(move |&w| (v as u32, w)))
    }
}

impl QueryEngine for AdjEngine {
    fn backend(&self) -> &'static str {
        self.backend
    }

    fn total_nodes(&self) -> u64 {
        self.out.len() as u64
    }

    fn out_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let v = check_id(v, self.total_nodes())?;
        // audited: check_id just bounded v by total_nodes == out.len()
        Ok(self.out[v as usize].iter().map(|&w| w as u64).collect())
    }

    fn in_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        let v = check_id(v, self.total_nodes())?;
        // audited: check_id just bounded v by total_nodes == ins.len()
        Ok(self.ins[v as usize].iter().map(|&w| w as u64).collect())
    }

    fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        // These formats are unlabeled: every edge carries label 0, and the
        // out-lists are already sorted + deduplicated.
        Ok(self.out_neighbors(v)?.into_iter().map(|w| (0, w)).collect())
    }

    fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        Ok(self.in_neighbors(v)?.into_iter().map(|w| (0, w)).collect())
    }

    fn reachable(&self, s: u64, t: u64) -> Result<bool, GrepairError> {
        let s = check_id(s, self.total_nodes())?;
        let t = check_id(t, self.total_nodes())?;
        Ok(bfs_reachable(self.out.len(), s, t, |v, buf| {
            // audited: bfs visits only check_id-validated ids and decoder-validated neighbors
            buf.extend_from_slice(&self.out[v as usize])
        }))
    }

    fn rpq(&self, pattern: &str, s: u64, t: u64) -> Result<bool, GrepairError> {
        let s = check_id(s, self.total_nodes())?;
        let t = check_id(t, self.total_nodes())?;
        let nfa = compile_pattern(pattern)?;
        Ok(product_rpq(&nfa, s, t, &[0], |v, _, buf| {
            // audited: product_rpq visits only check_id-validated ids and decoder-validated neighbors
            buf.extend_from_slice(&self.out[v as usize])
        }))
    }

    fn components(&self) -> u64 {
        count_components(self.out.len(), self.edges())
    }

    fn degree_extrema(&self) -> Option<(u64, u64)> {
        degree_extrema_of(self.out.len(), self.edges())
    }
}

// ---------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------

fn require_simple(g: &Hypergraph, backend: &str) -> Result<(), GrepairError> {
    for e in g.edges() {
        if !matches!(e.label, EdgeLabel::Terminal(_)) || e.att.len() != 2 {
            return Err(GrepairError::Unsupported(format!(
                "the {backend} backend encodes terminal rank-2 edges only"
            )));
        }
    }
    Ok(())
}

fn require_unlabeled(g: &Hypergraph, backend: &str) -> Result<(), GrepairError> {
    for e in g.edges() {
        if e.label != EdgeLabel::Terminal(0) || e.att.len() != 2 {
            return Err(GrepairError::Unsupported(format!(
                "the {backend} backend encodes unlabeled rank-2 edges only"
            )));
        }
    }
    Ok(())
}

fn adjacency_graph(out: &[Vec<NodeId>]) -> Hypergraph {
    let mut g = Hypergraph::with_nodes(out.len());
    for (v, outs) in out.iter().enumerate() {
        for &w in outs {
            g.add_edge(EdgeLabel::Terminal(0), &[v as NodeId, w]);
        }
    }
    g
}

/// The gRePair grammar backend. Writes the *legacy* `.g2g` container —
/// byte-identical to every pre-redesign file — and is recognized by magic
/// rather than tag.
pub struct GrepairCodec;

impl GraphCodec for GrepairCodec {
    fn name(&self) -> &'static str {
        GREPAIR
    }

    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError> {
        let out = grepair_core::compress(g, &grepair_core::GRePairConfig::default());
        let enc = grepair_codec::encode(&out.grammar);
        Ok(write_container(&enc.bytes, enc.bit_len))
    }

    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError> {
        let grammar = decode_validated_grammar(payload, bit_len)?;
        Ok(Box::new(crate::engine::GrammarEngine::new(std::sync::Arc::new(grammar))))
    }

    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError> {
        Ok(decode_validated_grammar(payload, bit_len)?.derive())
    }
}

/// Decode + revalidate a grammar payload: derivation and index building
/// must never run on structurally invalid rules (the §2 zero-panic policy).
pub(crate) fn decode_validated_grammar(
    payload: &[u8],
    bit_len: u64,
) -> Result<grepair_grammar::Grammar, GrepairError> {
    let grammar = grepair_codec::decode(payload, bit_len)?;
    grammar
        .validate()
        .map_err(|e| GrepairError::Codec(grepair_codec::CodecError::Malformed(e)))?;
    Ok(grammar)
}

/// The plain k²-tree backend (one tree per label).
pub struct K2Codec;

impl GraphCodec for K2Codec {
    fn name(&self) -> &'static str {
        K2
    }

    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError> {
        require_simple(g, K2)?;
        let enc = k2base::encode(g);
        Ok(write_tagged_container(K2, &enc.bytes, enc.bit_len))
    }

    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError> {
        let (n, trees) = k2base::decode_trees(payload, bit_len)?;
        Ok(Box::new(K2Engine { n, trees }))
    }

    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError> {
        Ok(k2base::decode(payload, bit_len)?)
    }
}

/// The list-merging backend.
pub struct LmCodec;

impl LmCodec {
    fn decode_adj(payload: &[u8], bit_len: u64) -> Result<Vec<Vec<NodeId>>, GrepairError> {
        let encoded = lm::LmEncoded { bytes: payload.to_vec(), bit_len };
        Ok(lm::decode(&encoded)?)
    }
}

impl GraphCodec for LmCodec {
    fn name(&self) -> &'static str {
        LM
    }

    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError> {
        require_unlabeled(g, LM)?;
        let enc = lm::encode(g);
        Ok(write_tagged_container(LM, &enc.bytes, enc.bit_len))
    }

    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError> {
        Ok(Box::new(AdjEngine::from_out(LM, Self::decode_adj(payload, bit_len)?)))
    }

    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError> {
        Ok(adjacency_graph(&Self::decode_adj(payload, bit_len)?))
    }
}

/// The virtual-node mining backend.
pub struct HnCodec;

impl HnCodec {
    fn decode_adj(payload: &[u8], bit_len: u64) -> Result<Vec<Vec<NodeId>>, GrepairError> {
        let rewired = hn::decode(payload, bit_len)?;
        // Budgeted expansion: hostile virtual-reference chains can make the
        // intermediate memo quadratically larger than the container.
        Ok(hn::try_expand(&rewired, hn::EXPAND_BUDGET)?)
    }
}

impl GraphCodec for HnCodec {
    fn name(&self) -> &'static str {
        HN
    }

    fn encode(&self, g: &Hypergraph) -> Result<Vec<u8>, GrepairError> {
        require_unlabeled(g, HN)?;
        let enc = hn::encode(g, &hn::HnParams::default());
        Ok(write_tagged_container(HN, &enc.bytes, enc.bit_len))
    }

    fn load(&self, payload: &[u8], bit_len: u64) -> Result<Box<dyn QueryEngine>, GrepairError> {
        Ok(Box::new(AdjEngine::from_out(HN, Self::decode_adj(payload, bit_len)?)))
    }

    fn decode(&self, payload: &[u8], bit_len: u64) -> Result<Hypergraph, GrepairError> {
        Ok(adjacency_graph(&Self::decode_adj(payload, bit_len)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> Hypergraph {
        Hypergraph::from_simple_edges(n as usize, (0..n - 1).map(|i| (i, 0u32, i + 1))).0
    }

    #[test]
    fn registry_is_complete_and_ordered() {
        assert_eq!(backend_names(), vec![GREPAIR, K2, LM, HN]);
        for c in codecs() {
            assert!(codec_for(c.name()).is_some());
        }
        assert!(codec_for("zpaq").is_none());
        let Err(err) = resolve_codec("zpaq").map(|c| c.name()) else {
            panic!("unknown backend must not resolve")
        };
        let err = err.to_string();
        assert!(err.contains("zpaq") && err.contains("grepair, k2, lm, hn"), "{err}");
    }

    #[test]
    fn tagged_container_round_trips() {
        for name in [K2, LM, HN] {
            let file = write_tagged_container(name, b"payload", 56);
            let (tag, bit_len, payload) = split_any_container(&file).unwrap();
            assert_eq!(tag, name);
            assert_eq!(bit_len, 56);
            assert_eq!(payload, b"payload");
        }
    }

    #[test]
    fn legacy_magic_is_detected_as_grepair() {
        let file = write_container(b"xyz", 24);
        let (tag, bit_len, payload) = split_any_container(&file).unwrap();
        assert_eq!(tag, GREPAIR);
        assert_eq!(bit_len, 24);
        assert_eq!(payload, b"xyz");
    }

    #[test]
    fn hostile_headers_error_cleanly() {
        for junk in [
            &b""[..],
            b"G2",
            b"G2GC",
            b"G2GC\x02",
            b"G2GC\x03\x02k2aaaaaaaa",   // wrong version
            b"G2GC\x02\x00aaaaaaaa",     // zero tag length
            b"G2GC\x02\x7faaaaaaaa",     // absurd tag length
            b"G2GC\x02\x02k2",           // truncated before bit length
            b"not a container at all..",
        ] {
            assert!(split_any_container(junk).is_err(), "{junk:?}");
        }
        // Non-UTF-8 tag.
        let mut file = write_tagged_container(K2, b"", 0);
        file[6] = 0xFF;
        assert!(split_any_container(&file).is_err());
    }

    #[test]
    fn every_codec_round_trips_a_path_graph() {
        let g = path_graph(30);
        for codec in codecs() {
            let file = codec.encode(&g).unwrap();
            let (tag, bit_len, payload) = split_any_container(&file).unwrap();
            assert_eq!(tag, codec.name());
            let engine = codec.load(payload, bit_len).unwrap();
            assert_eq!(engine.backend(), codec.name());
            assert_eq!(engine.total_nodes(), 30, "{}", codec.name());
            // The grammar backend renumbers nodes (FP order), so locate the
            // path's endpoints structurally instead of by input id.
            let head = (0..30)
                .find(|&v| engine.in_neighbors(v).unwrap().is_empty())
                .expect("path head");
            let tail = (0..30)
                .find(|&v| engine.out_neighbors(v).unwrap().is_empty())
                .expect("path tail");
            assert_ne!(head, tail);
            assert_eq!(engine.out_neighbors(head).unwrap().len(), 1, "{}", codec.name());
            assert_eq!(engine.in_neighbors(tail).unwrap().len(), 1, "{}", codec.name());
            let mid = engine.out_neighbors(head).unwrap()[0];
            assert_eq!(engine.neighbors(mid).unwrap().len(), 2, "{}", codec.name());
            assert!(engine.reachable(head, tail).unwrap(), "{}", codec.name());
            assert!(!engine.reachable(tail, head).unwrap(), "{}", codec.name());
            // The labeled edge primitive agrees with the neighbor views
            // (the whole path is label 0 for every backend).
            assert_eq!(engine.out_edges(head).unwrap(), vec![(0, mid)], "{}", codec.name());
            assert_eq!(engine.in_edges(mid).unwrap(), vec![(0, head)], "{}", codec.name());
            assert!(engine.out_edges(30).is_err(), "{}", codec.name());
            assert!(engine.in_edges(1 << 40).is_err(), "{}", codec.name());
            let two_away = engine.out_neighbors(mid).unwrap()[0];
            assert!(engine.rpq("0 0", head, two_away).unwrap(), "{}", codec.name());
            assert!(engine.rpq("0*", 5, 5).unwrap(), "{}", codec.name());
            assert!(!engine.rpq("0", head, two_away).unwrap(), "{}", codec.name());
            assert_eq!(engine.components(), 1, "{}", codec.name());
            assert_eq!(engine.degree_extrema(), Some((1, 2)), "{}", codec.name());
            // Out-of-range ids are clean errors naming the range.
            let err = engine.out_neighbors(30).unwrap_err().to_string();
            assert!(err.contains("out of range") && err.contains("0..30"), "{err}");
            assert!(engine.reachable(1 << 40, 0).is_err(), "{}", codec.name());
            assert!(engine.rpq("0", 0, u64::MAX).is_err(), "{}", codec.name());
            // And the decode path reproduces the edge set.
            let back = codec.decode(payload, bit_len).unwrap();
            assert_eq!(back.num_edges(), 29, "{}", codec.name());
        }
    }

    #[test]
    fn labeled_graphs_are_rejected_by_unlabeled_backends() {
        let g = Hypergraph::from_simple_edges(4, [(0u32, 1u32, 1u32), (1, 0, 2)]).0;
        for name in [LM, HN] {
            let err = codec_for(name).unwrap().encode(&g).unwrap_err();
            assert!(matches!(err, GrepairError::Unsupported(_)), "{name}: {err}");
        }
        // k2 accepts labels, grepair accepts anything.
        assert!(codec_for(K2).unwrap().encode(&g).is_ok());
        assert!(codec_for(GREPAIR).unwrap().encode(&g).is_ok());
    }

    #[test]
    fn k2_engine_answers_labeled_rpqs() {
        // 0 -a-> 1 -b-> 2, labels a=0, b=1.
        let g = Hypergraph::from_simple_edges(3, [(0u32, 0u32, 1u32), (1, 1, 2)]).0;
        let codec = codec_for(K2).unwrap();
        let file = codec.encode(&g).unwrap();
        let (_, bit_len, payload) = split_any_container(&file).unwrap();
        let engine = codec.load(payload, bit_len).unwrap();
        assert!(engine.rpq("0 1", 0, 2).unwrap());
        assert!(!engine.rpq("1 0", 0, 2).unwrap());
        assert!(engine.rpq("0 1?", 0, 1).unwrap());
        assert!(!engine.rpq("2", 0, 1).unwrap());
        // The labeled edge primitive keeps the per-label structure.
        assert_eq!(engine.out_edges(1).unwrap(), vec![(1, 2)]);
        assert_eq!(engine.in_edges(1).unwrap(), vec![(0, 0)]);
        assert_eq!(engine.out_edges(2).unwrap(), vec![]);
    }
}
