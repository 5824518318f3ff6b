//! The long-lived query-serving store.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use grepair_grammar::Grammar;
use grepair_queries::reach::SourceClosure;
use grepair_queries::{GRepr, QueryError, RpqSourceClosure};
use grepair_util::{FxHashMap, FxHashSet};

use crate::backend::{self, QueryEngine};
use crate::cache::ShardedMap;
use crate::engine::{GrammarEngine, Scratch};
use crate::query::{Query, QueryAnswer};
use crate::GrepairError;

/// Container magic for legacy `.g2g` files (shared with the CLI writer; the
/// gRePair backend still writes exactly this format — see
/// [`crate::backend::split_any_container`] for the multi-backend layout).
pub const MAGIC: &[u8; 4] = b"G2G1";
/// Legacy container header size: magic + little-endian `u64` bit length.
pub const HEADER_LEN: usize = 12;

/// Split a legacy `.g2g` container into its claimed bit length and payload.
///
/// Only the *container* is judged here; whether the payload actually holds
/// `bit_len` coherent bits is the codec's job. Tagged multi-backend
/// containers go through [`crate::backend::split_any_container`], which
/// calls this for files carrying the legacy magic.
pub fn parse_container(file: &[u8]) -> Result<(u64, &[u8]), GrepairError> {
    if file.len() < HEADER_LEN {
        return Err(GrepairError::Container(format!(
            "{} bytes is shorter than the {HEADER_LEN}-byte header",
            file.len()
        )));
    }
    // audited: file.len() >= HEADER_LEN >= 4 was checked just above
    if &file[..4] != MAGIC {
        return Err(GrepairError::Container("bad magic".into()));
    }
    // audited: 4..HEADER_LEN is exactly 8 bytes, inside the checked header
    let bit_len = u64::from_le_bytes(file[4..HEADER_LEN].try_into().expect("4..12 is 8 bytes"));
    // audited: file.len() >= HEADER_LEN was checked just above
    Ok((bit_len, &file[HEADER_LEN..]))
}

/// Wrap an encoded grammar in the legacy `.g2g` container format (the
/// gRePair backend's on-disk bytes, unchanged across the backend redesign).
pub fn write_container(bytes: &[u8], bit_len: u64) -> Vec<u8> {
    let mut file = Vec::with_capacity(bytes.len() + HEADER_LEN);
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&bit_len.to_le_bytes());
    file.extend_from_slice(bytes);
    file
}

/// What every query entry point returns: a shared handle to the answer, so
/// cache and memo hits are `Arc` clones, never `Vec` copies.
type AnswerResult = Result<Arc<QueryAnswer>, GrepairError>;

/// Something that can run a set of borrowed jobs to completion — the seam
/// between the store's batch partitioning and whoever owns the threads.
///
/// [`GraphStore::query_batch_on`] hands the executor one job per worker; a
/// long-lived server plugs in a reusable worker pool (`grepair-server`'s
/// `WorkerPool`), so batches never pay a per-batch thread spawn. The batch
/// being fanned out may be served by *any* registered backend — the jobs
/// capture `&GraphStore`, which dispatches to the engine behind it.
///
/// # Contract
///
/// `scope` must run (or at worst drop) every job before returning — the
/// jobs borrow the caller's stack. Safe implementations can only uphold
/// this (a borrowed job cannot be smuggled past `scope`'s return without
/// `unsafe`); implementations using `unsafe` to ship jobs to long-lived
/// threads must block until all jobs are done.
pub trait BatchExecutor {
    /// How many jobs one batch should be split into at most (usually the
    /// number of worker threads).
    fn max_workers(&self) -> usize;

    /// Run every job to completion before returning.
    fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>);
}

/// The executor behind [`GraphStore::query_batch`]: one worker, the
/// calling thread.
struct Inline;

impl BatchExecutor for Inline {
    fn max_workers(&self) -> usize {
        1
    }

    fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        for job in jobs {
            job();
        }
    }
}

/// Monotonic serving counters. Every counter is an [`AtomicU64`] bumped with
/// `Relaxed` ordering — correct under the concurrent batch paths (each
/// increment lands exactly once) and free of any lock. The grammar engine's
/// cache hit/miss counters live with the engine (`engine::CacheCounters`).
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    batches: AtomicU64,
    parallel_batches: AtomicU64,
    errors: AtomicU64,
}

/// A point-in-time snapshot of a store's serving statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Which generation of a [`crate::StoreRegistry`] this store is: `1`
    /// for a store that was never registered or registered first, and a
    /// strictly larger number for every store a reload swapped in (the
    /// registry's monotonic counter). Echoed by the wire protocol's
    /// `STATS`/`INFO` admin replies (DESIGN.md §6) so clients can observe
    /// a hot reload taking effect.
    pub generation: u64,
    /// Which compression backend is serving (`grepair`, `k2`, `lm`, `hn` —
    /// see DESIGN.md §7). Echoed by `STATS`/`INFO` so clients can observe
    /// a cross-backend reload.
    pub backend: &'static str,
    /// Decode + index-build operations performed for this store (always 1:
    /// a reload builds a *new* store — see [`crate::StoreRegistry`]).
    pub loads: u64,
    /// Queries answered (each element of a batch counts once).
    pub queries_served: u64,
    /// [`GraphStore::query_batch`] + [`GraphStore::query_batch_on`]
    /// invocations.
    pub batches: u64,
    /// Batches that actually fanned out to more than one worker (also
    /// counted in `batches`).
    pub parallel_batches: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Size of the container image this store was decoded from, in bytes —
    /// the currency of the registry's `--memory-budget` (DESIGN.md §8).
    /// `0` for stores built in memory ([`GraphStore::from_grammar`] /
    /// [`GraphStore::from_engine`]), which are never evicted.
    pub resident_bytes: u64,
    /// Memoized rule-expansion lookups that hit (grammar backend; 0
    /// elsewhere).
    pub expansion_cache_hits: u64,
    /// Memoized rule-expansion lookups that missed (and computed).
    pub expansion_cache_misses: u64,
    /// RPQ plan-cache hits (pattern already compiled against this grammar;
    /// grammar backend only).
    pub rpq_plan_hits: u64,
    /// RPQ plan-cache misses.
    pub rpq_plan_misses: u64,
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "generation={} loads={} queries={} batches={} (parallel={}) errors={} expansion_cache={}/{} rpq_plans={}/{} resident_bytes={} backend={}",
            self.generation,
            self.loads,
            self.queries_served,
            self.batches,
            self.parallel_batches,
            self.errors,
            self.expansion_cache_hits,
            self.expansion_cache_hits + self.expansion_cache_misses,
            self.rpq_plan_hits,
            self.rpq_plan_hits + self.rpq_plan_misses,
            self.resident_bytes,
            self.backend,
        )
    }
}

/// What one pre-scan over the batch says is worth sharing. Amortization is
/// only free when something repeats: memoizing a query nobody asks twice,
/// or caching a source closure nobody reuses, is pure overhead (hash,
/// clone, lock) on the hot path. The plan is built once per batch in O(n)
/// and consulted read-only by every worker thread, lock-free.
#[derive(Default)]
struct BatchPlan<'q> {
    /// Queries occurring ≥ 2 times — the only ones the memo admits.
    duplicates: FxHashSet<&'q Query>,
    /// Sources of ≥ 2 (non-trivial) `reach` queries.
    shared_reach: FxHashSet<u64>,
    /// (pattern, source) pairs of ≥ 2 `rpq` queries.
    shared_rpq: FxHashSet<(&'q str, u64)>,
    /// Nodes named by ≥ 2 neighbor queries (`out`/`in`/`neighbors` mix).
    shared_nodes: FxHashSet<u64>,
}

impl<'q> BatchPlan<'q> {
    fn new(queries: &'q [Query]) -> Self {
        if queries.len() < 2 {
            // Nothing can repeat: skip the counting maps (single queries).
            return Self::default();
        }
        let cap = queries.len();
        let mut query_count: FxHashMap<&Query, u32> =
            FxHashMap::with_capacity_and_hasher(cap, Default::default());
        let mut reach_count: FxHashMap<u64, u32> =
            FxHashMap::with_capacity_and_hasher(cap / 4, Default::default());
        let mut rpq_count: FxHashMap<(&str, u64), u32> =
            FxHashMap::with_capacity_and_hasher(cap / 4, Default::default());
        let mut node_count: FxHashMap<u64, u32> =
            FxHashMap::with_capacity_and_hasher(cap / 4, Default::default());
        for q in queries {
            *query_count.entry(q).or_default() += 1;
            match q {
                Query::Reach { s, t } if s != t => *reach_count.entry(*s).or_default() += 1,
                Query::Rpq { s, pattern, .. } => {
                    *rpq_count.entry((pattern.as_str(), *s)).or_default() += 1
                }
                Query::OutNeighbors(v) | Query::InNeighbors(v) | Query::Neighbors(v) => {
                    *node_count.entry(*v).or_default() += 1
                }
                _ => {}
            }
        }
        let repeated = |m: FxHashMap<u64, u32>| {
            m.into_iter().filter(|&(_, c)| c >= 2).map(|(k, _)| k).collect()
        };
        Self {
            duplicates: query_count
                .into_iter()
                .filter(|&(_, c)| c >= 2)
                .map(|(q, _)| q)
                .collect(),
            shared_reach: repeated(reach_count),
            shared_rpq: rpq_count
                .into_iter()
                .filter(|&(_, c)| c >= 2)
                .map(|(k, _)| k)
                .collect(),
            shared_nodes: repeated(node_count),
        }
    }
}

/// Per-batch shared state: everything that lets one request's work pay for
/// the next request's. Internally sharded (`ShardedMap`) and keyed by
/// references into the batch slice (no `Query`/pattern clones), so the same
/// context is shared *across worker threads* by
/// [`GraphStore::query_batch_on`] without a global lock. A single query
/// gets an empty context, whose plan shares nothing.
///
/// The store applies the duplicate memo for every backend; engines reach
/// the source-closure and locate maps through [`QueryEngine::answer`]
/// (the grammar engine's levers).
pub struct BatchContext<'q> {
    /// Which keys are worth admitting into the maps.
    plan: BatchPlan<'q>,
    /// The maps, built on first use: a single query, or a batch where
    /// nothing repeats, never touches them. Building their 64 empty shards
    /// up front cost ~1 µs per single query on a 2-vCPU guest, twice the
    /// cost of an `out` query itself.
    maps: OnceLock<Box<BatchMaps<'q>>>,
}

/// The sharing maps of one [`BatchContext`].
#[derive(Default)]
struct BatchMaps<'q> {
    /// Duplicate queries collapse to one computation; hits are `Arc` clones.
    memo: ShardedMap<&'q Query, AnswerResult>,
    /// `reach` queries sharing a source reuse one forward closure.
    reach_sources: ShardedMap<u64, Result<Arc<SourceClosure>, QueryError>>,
    /// `rpq` queries sharing (pattern, source) reuse one product closure.
    rpq_sources: ShardedMap<(&'q str, u64), Result<Arc<RpqSourceClosure>, QueryError>>,
    /// Neighbor queries against the same node (`out v` / `in v` /
    /// `neighbors v`) share one `locate` descent; distinct nodes under the
    /// same rule subtree additionally share the store-wide expansions.
    locates: ShardedMap<u64, Result<Arc<GRepr>, QueryError>>,
}

impl<'q> BatchContext<'q> {
    fn new(queries: &'q [Query]) -> Self {
        Self { plan: BatchPlan::new(queries), maps: OnceLock::new() }
    }

    fn maps(&self) -> &BatchMaps<'q> {
        self.maps.get_or_init(Box::default)
    }

    /// The forward closure from `s`, computed once per batch — `None`
    /// unless ≥ 2 of the batch's `reach` queries start at `s`.
    pub(crate) fn reach_source(
        &self,
        s: u64,
        compute: impl FnOnce() -> Result<SourceClosure, QueryError>,
    ) -> Option<Result<Arc<SourceClosure>, QueryError>> {
        is_shared(&self.plan.shared_reach, &s)
            .then(|| memoize(&self.maps().reach_sources, s, compute))
    }

    /// The RPQ product closure from `(pattern, source)`, computed once per
    /// batch — `None` unless ≥ 2 of the batch's `rpq` queries share it.
    pub(crate) fn rpq_source(
        &self,
        key: (&'q str, u64),
        compute: impl FnOnce() -> Result<RpqSourceClosure, QueryError>,
    ) -> Option<Result<Arc<RpqSourceClosure>, QueryError>> {
        is_shared(&self.plan.shared_rpq, &key)
            .then(|| memoize(&self.maps().rpq_sources, key, compute))
    }

    /// The G-representation of `v`, located once per batch — `None`
    /// unless ≥ 2 of the batch's neighbor queries name `v`.
    pub(crate) fn locate(
        &self,
        v: u64,
        compute: impl FnOnce() -> Result<GRepr, QueryError>,
    ) -> Option<Result<Arc<GRepr>, QueryError>> {
        is_shared(&self.plan.shared_nodes, &v).then(|| memoize(&self.maps().locates, v, compute))
    }
}

/// Did the batch plan mark `key` as shared? Empty sets short-circuit
/// before hashing.
fn is_shared<K: Hash + Eq>(shared: &FxHashSet<K>, key: &K) -> bool {
    !shared.is_empty() && shared.contains(key)
}

/// `compute` once per key through `memo`.
fn memoize<K: Hash + Eq, T>(
    memo: &ShardedMap<K, Result<Arc<T>, QueryError>>,
    key: K,
    compute: impl FnOnce() -> Result<T, QueryError>,
) -> Result<Arc<T>, QueryError> {
    match memo.get(&key) {
        Some(hit) => hit,
        None => memo.insert_if_absent(key, compute().map(Arc::new)),
    }
}

/// A loaded compressed graph, indexed once, serving forever.
///
/// `GraphStore` is the serving-grade counterpart of the one-shot CLI path:
/// it loads a container through a fully fallible pipeline (no panic on any
/// byte sequence), dispatches to the backend the container's header names
/// (DESIGN.md §7 — legacy `.g2g` files are detected as the gRePair
/// grammar), eagerly builds that backend's indexes, and then answers any
/// number of [`Query`]s — individually via [`GraphStore::query`], amortized
/// via [`GraphStore::query_batch`], or across worker threads via
/// [`GraphStore::query_batch_on`].
///
/// All interior mutability is synchronized (sharded `RwLock` caches, atomic
/// counters), so one store can be shared across threads
/// (`&GraphStore: Send + Sync`) and the read-mostly hot path scales with
/// cores instead of serializing on a global lock. Answers come back as
/// `Arc<QueryAnswer>`: a memoized hit is a pointer clone, never a deep copy
/// of a neighbor list.
#[derive(Debug)]
pub struct GraphStore {
    engine: Box<dyn QueryEngine>,
    /// Whole-graph aggregates, computed at most once per loaded store —
    /// for the grammar in one O(|G|) pass, for adjacency backends by a
    /// full scan.
    components: OnceLock<u64>,
    degrees: OnceLock<Option<(u64, u64)>>,
    counters: Counters,
    loads: u64,
    /// Container image size in bytes (see [`StoreStats::resident_bytes`]);
    /// `0` for stores that never came from a container.
    container_bytes: u64,
    /// Registry generation (see [`StoreStats::generation`]); `1` until a
    /// [`crate::StoreRegistry`] swap assigns a later one. Atomic because it
    /// is stamped through `&self` after the store is shared.
    generation: AtomicU64,
}

impl GraphStore {
    /// Build a store around any loaded [`QueryEngine`] — the seam every
    /// backend (and embedders with custom representations) comes through.
    /// The store supplies batching, parallel fan-out, the duplicate memo,
    /// aggregate memoization, counters, and hot-reload registration; the
    /// engine supplies the answers.
    pub fn from_engine(engine: Box<dyn QueryEngine>) -> Self {
        Self {
            engine,
            components: OnceLock::new(),
            degrees: OnceLock::new(),
            counters: Counters::default(),
            loads: 1,
            container_bytes: 0,
            generation: AtomicU64::new(1),
        }
    }

    /// Build a grammar-backed store from an already-validated (or freshly
    /// compressed) grammar. Validation runs again here — the store's
    /// zero-panic guarantee must not depend on the caller's discipline.
    pub fn from_grammar(grammar: Grammar) -> Result<Self, GrepairError> {
        grammar
            .validate()
            .map_err(|e| GrepairError::Codec(grepair_codec::CodecError::Malformed(e)))?;
        Ok(Self::from_engine(Box::new(GrammarEngine::new(Arc::new(grammar)))))
    }

    /// Decode any container image — legacy `.g2g` or tagged — and build
    /// the store for whichever backend the header names.
    pub fn from_bytes(file: &[u8]) -> Result<Self, GrepairError> {
        let (tag, bit_len, payload) = backend::split_any_container(file)?;
        let mut store = Self::from_engine(backend::resolve_codec(tag)?.load(payload, bit_len)?);
        store.container_bytes = file.len() as u64;
        Ok(store)
    }

    /// Load a container file and build the store.
    pub fn open(path: &str) -> Result<Self, GrepairError> {
        // Failpoint `store.open.read` (DESIGN.md §10): injects an I/O
        // failure before the real read — a no-op unless the `fail`
        // feature armed it.
        grepair_util::fail::point("store.open.read")
            .map_err(|error| GrepairError::Io { path: path.into(), error })?;
        let file = std::fs::read(path)
            .map_err(|e| GrepairError::Io { path: path.into(), error: e.to_string() })?;
        Self::from_bytes(&file)
    }

    /// Name of the backend serving this store (`grepair`, `k2`, …).
    pub fn backend(&self) -> &'static str {
        self.engine.backend()
    }

    /// Number of nodes of the represented graph — valid query ids are
    /// `0..total_nodes()`.
    pub fn total_nodes(&self) -> u64 {
        self.engine.total_nodes()
    }

    /// Which registry generation this store is (see
    /// [`StoreStats::generation`]).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Stamp the registry generation onto this store (only
    /// [`crate::StoreRegistry`] calls this — on swap/reload, and when a
    /// transparent evict-then-reopen re-stamps the reopened store with the
    /// namespace's unchanged generation).
    pub(crate) fn set_generation(&self, generation: u64) {
        self.generation.store(generation, Ordering::Relaxed);
    }

    /// Size of the container image this store was decoded from — `0` for
    /// stores built in memory (see [`StoreStats::resident_bytes`]).
    pub fn resident_bytes(&self) -> u64 {
        self.container_bytes
    }

    /// Snapshot the serving statistics.
    pub fn stats(&self) -> StoreStats {
        let c = &self.counters;
        let cache = self.engine.cache_stats();
        StoreStats {
            generation: self.generation(),
            backend: self.backend(),
            loads: self.loads,
            resident_bytes: self.container_bytes,
            queries_served: c.queries.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            parallel_batches: c.parallel_batches.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
            expansion_cache_hits: cache.expansion_hits,
            expansion_cache_misses: cache.expansion_misses,
            rpq_plan_hits: cache.plan_hits,
            rpq_plan_misses: cache.plan_misses,
        }
    }

    // ------------------------------------------------------------------
    // Individual queries
    // ------------------------------------------------------------------

    /// Out-neighbors of `v`, sorted ascending.
    pub fn out_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        self.engine.out_neighbors(v)
    }

    /// In-neighbors of `v`, sorted ascending.
    pub fn in_neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        self.engine.in_neighbors(v)
    }

    /// Union of both directions, sorted and deduplicated.
    pub fn neighbors(&self, v: u64) -> Result<Vec<u64>, GrepairError> {
        self.engine.neighbors(v)
    }

    /// Labeled out-edges of `v` as sorted `(label, target)` pairs — the
    /// primitive the version overlay corrects (DESIGN.md §12).
    pub fn out_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        self.engine.out_edges(v)
    }

    /// Labeled in-edges of `v` as sorted `(label, source)` pairs.
    pub fn in_edges(&self, v: u64) -> Result<Vec<(u32, u64)>, GrepairError> {
        self.engine.in_edges(v)
    }

    /// Is `t` reachable from `s`?
    pub fn reachable(&self, s: u64, t: u64) -> Result<bool, GrepairError> {
        self.engine.reachable(s, t)
    }

    /// Does some `s → t` path spell a word of the pattern's language?
    pub fn rpq(&self, pattern: &str, s: u64, t: u64) -> Result<bool, GrepairError> {
        self.engine.rpq(pattern, s, t)
    }

    /// Number of connected components (memoized per loaded store).
    pub fn components(&self) -> u64 {
        *self.components.get_or_init(|| self.engine.components())
    }

    /// `(min, max)` degree (memoized; `None` when empty).
    pub fn degree_extrema(&self) -> Option<(u64, u64)> {
        *self.degrees.get_or_init(|| self.engine.degree_extrema())
    }

    /// Answer one query, updating the serving counters.
    pub fn query(&self, q: &Query) -> AnswerResult {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        let result = self.answer(q, &BatchContext::new(&[]), &mut Scratch::default());
        if result.is_err() {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    // ------------------------------------------------------------------
    // Batched queries
    // ------------------------------------------------------------------

    /// Answer many queries at once, amortizing shared work:
    ///
    /// * duplicate queries are answered once; repeats share the `Arc`
    ///   (every backend),
    /// * `reach` queries sharing a source reuse one forward closure
    ///   ([`grepair_queries::ReachIndex::try_source`]) instead of
    ///   recomputing it per target (grammar backend),
    /// * `rpq` queries sharing a (pattern, source) pair reuse one product
    ///   closure (grammar backend),
    /// * neighbor queries against the same node share one `locate` descent
    ///   (grammar backend),
    /// * rule expansions and RPQ plans hit the store-wide sharded caches.
    ///
    /// This is [`GraphStore::query_batch_on`] with one worker: the calling
    /// thread.
    pub fn query_batch(&self, queries: &[Query]) -> Vec<AnswerResult> {
        self.query_batch_on(queries, &Inline)
    }

    /// [`GraphStore::query_batch`] across `executor`'s workers: the batch
    /// is partitioned into one contiguous job per worker, all jobs share
    /// one batch context (per-source closures, duplicate memo, locate
    /// cache) through the sharded maps, and `executor` runs them. Answers
    /// come back in input order, errors included, exactly as the one-worker
    /// path produces them. One worker, or a batch shorter than two
    /// queries, runs on the calling thread.
    pub fn query_batch_on(
        &self,
        queries: &[Query],
        executor: &impl BatchExecutor,
    ) -> Vec<AnswerResult> {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        let ctx = BatchContext::new(queries);
        let threads = executor.max_workers().min(queries.len());
        if threads <= 1 {
            return self.answer_chunk(queries, &ctx, &mut Scratch::default());
        }
        self.counters.parallel_batches.fetch_add(1, Ordering::Relaxed);
        let chunk_len = queries.len().div_ceil(threads);
        // One pre-sized slot per query: each job fills a disjoint chunk, so
        // answers land in input order without a post-hoc reorder.
        let mut slots: Vec<Option<AnswerResult>> = Vec::new();
        slots.resize_with(queries.len(), || None);
        {
            let ctx = &ctx;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = queries
                .chunks(chunk_len)
                .zip(slots.chunks_mut(chunk_len))
                .map(|(chunk, out)| {
                    Box::new(move || {
                        let mut scratch = Scratch::default();
                        let answers = self.answer_chunk(chunk, ctx, &mut scratch);
                        for (slot, answer) in out.iter_mut().zip(answers) {
                            *slot = Some(answer);
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            executor.scope(jobs);
        }
        slots
            .into_iter()
            // audited: executor.scope runs every job before returning
            .map(|slot| slot.expect("executor must run every job to completion"))
            .collect()
    }

    /// Answer a contiguous run of batch queries through the shared context.
    /// The memo only admits queries the batch plan saw twice — unique
    /// queries (the common case in realistic traffic) skip the memo's hash,
    /// clone, and lock entirely.
    fn answer_chunk<'q>(
        &self,
        queries: &'q [Query],
        ctx: &BatchContext<'q>,
        scratch: &mut Scratch,
    ) -> Vec<AnswerResult> {
        let mut out = Vec::with_capacity(queries.len());
        for q in queries {
            let answer = if is_shared(&ctx.plan.duplicates, &q) {
                let memo = &ctx.maps().memo;
                match memo.get(&q) {
                    Some(hit) => hit,
                    None => {
                        let computed = self.answer(q, ctx, scratch);
                        memo.insert_if_absent(q, computed)
                    }
                }
            } else {
                self.answer(q, ctx, scratch)
            };
            if answer.is_err() {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
            }
            out.push(answer);
        }
        out
    }

    /// Shared worker for every query entry point: the whole-graph
    /// aggregates come from the store's memo, everything else from the
    /// engine.
    fn answer<'q>(
        &self,
        q: &'q Query,
        ctx: &BatchContext<'q>,
        scratch: &mut Scratch,
    ) -> AnswerResult {
        Ok(Arc::new(match q {
            Query::Components => QueryAnswer::Count(self.components()),
            Query::DegreeExtrema => QueryAnswer::Extrema(self.degree_extrema()),
            q => self.engine.answer(q, ctx, scratch)?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::codec_for;
    use grepair_core::{compress, GRePairConfig};
    use grepair_hypergraph::{EdgeLabel, Hypergraph};
    use grepair_queries::neighbors::Direction;
    use grepair_queries::GrammarIndex;

    fn two_label_path(reps: u32) -> Hypergraph {
        Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
        )
        .0
    }

    /// A grammar-backed store, with the grammar it decoded.
    fn store_for(reps: u32) -> (GraphStore, Grammar) {
        let out = compress(&two_label_path(reps), &GRePairConfig::default());
        let encoded = grepair_codec::encode(&out.grammar);
        let file = write_container(&encoded.bytes, encoded.bit_len);
        let grammar = backend::decode_validated_grammar(&encoded.bytes, encoded.bit_len).unwrap();
        (GraphStore::from_bytes(&file).unwrap(), grammar)
    }

    /// Fresh scoped threads per batch, one per worker.
    struct Scoped(usize);

    impl BatchExecutor for Scoped {
        fn max_workers(&self) -> usize {
            self.0
        }

        fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
            std::thread::scope(|s| {
                for job in jobs {
                    s.spawn(job);
                }
            });
        }
    }

    fn mixed_queries(n: u64, len: u64) -> Vec<Query> {
        (0..len)
            .map(|i| match i % 5 {
                0 => Query::OutNeighbors(i % n),
                1 => Query::InNeighbors((i * 7) % n),
                2 => Query::Reach { s: (i * 3) % n, t: (i * 11) % n },
                3 => Query::Rpq {
                    s: (i * 5) % n,
                    t: (i * 13) % n,
                    pattern: if i % 2 == 0 { "0 1".into() } else { "0* 1*".into() },
                },
                _ => Query::Neighbors((i * 17) % n),
            })
            .collect()
    }

    #[test]
    fn neighbors_match_uncached_index() {
        let (store, grammar) = store_for(32);
        let idx = GrammarIndex::new(&grammar);
        for k in 0..store.total_nodes() {
            assert_eq!(store.out_neighbors(k).unwrap(), idx.out_neighbors(k), "out {k}");
            assert_eq!(store.in_neighbors(k).unwrap(), idx.in_neighbors(k), "in {k}");
        }
        let s = store.stats();
        assert!(s.expansion_cache_hits > 0, "repeated labels must hit: {s}");
    }

    #[test]
    fn neighbor_and_edge_queries_share_one_expansion_cache() {
        // The labeled rows behind `out_edges`/`in_edges` are the rows the
        // neighbor queries already memoized: the edge query computes no
        // expansion of its own.
        let (store, _) = store_for(16);
        for v in 0..store.total_nodes() {
            store.out_neighbors(v).unwrap();
            store.in_neighbors(v).unwrap();
            let misses = store.stats().expansion_cache_misses;
            store.out_edges(v).unwrap();
            store.in_edges(v).unwrap();
            assert_eq!(store.stats().expansion_cache_misses, misses, "node {v}");
        }
        assert!(store.stats().expansion_cache_misses > 0, "the grammar must have rules");
    }

    #[test]
    fn cached_expansion_matches_reference() {
        let (_, grammar) = store_for(24);
        let idx = GrammarIndex::new(&grammar);
        let ge = GrammarEngine::new(Arc::new(grammar.clone()));
        for nt in 0..grammar.num_nonterminals() as u32 {
            for pos in 0..grammar.nt_rank(nt) as u32 {
                for dir in [Direction::Out, Direction::In] {
                    let nodes: Vec<_> = ge
                        .expansion(nt, pos, dir)
                        .iter()
                        .map(|(path, _, node)| (path.clone(), *node))
                        .collect();
                    assert_eq!(
                        nodes,
                        idx.rule_expansion(nt, pos as usize, dir),
                        "nt {nt} pos {pos} {dir:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_ids_error_cleanly() {
        let (store, _) = store_for(8);
        let n = store.total_nodes();
        for q in [
            Query::OutNeighbors(n),
            Query::InNeighbors(n + 100),
            Query::Neighbors(u64::MAX),
            Query::Reach { s: 0, t: n },
            Query::Reach { s: n, t: 0 },
            Query::Rpq { s: n, t: 0, pattern: "0".into() },
        ] {
            let err = store.query(&q).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("out of range"), "{q:?}: {msg}");
            assert!(msg.contains(&format!("0..{n}")), "{q:?}: {msg}");
        }
        assert_eq!(store.stats().errors, 6);
    }

    #[test]
    fn batch_answers_match_individual() {
        let (store, grammar) = store_for(16);
        let n = store.total_nodes();
        let mut queries = Vec::new();
        for i in 0..n {
            queries.push(Query::OutNeighbors(i));
            queries.push(Query::Reach { s: 0, t: i });
            queries.push(Query::Reach { s: i, t: n - 1 });
        }
        queries.push(Query::Components);
        queries.push(Query::DegreeExtrema);
        queries.push(Query::Rpq { s: 0, t: 2, pattern: "0 1".into() });
        let batch = store.query_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (q, a) in queries.iter().zip(&batch) {
            // Individual path must agree (fresh per-query source closures).
            assert_eq!(a, &store.query(q), "{q:?}");
        }
        // Cross-check a few against the derived graph.
        let derived = grammar.derive();
        assert_eq!(derived.num_nodes() as u64, n);
        assert_eq!(store.components(), 1);
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let (store, _) = store_for(24);
        let n = store.total_nodes();
        let mut queries = mixed_queries(n, 600);
        // Sprinkle in errors: order and Err values must survive the fan-out.
        for i in (0..queries.len()).step_by(37) {
            queries[i] = Query::OutNeighbors(n + i as u64);
        }
        let sequential = store.query_batch(&queries);
        for threads in [2, 3, 8] {
            let parallel = store.query_batch_on(&queries, &Scoped(threads));
            assert_eq!(parallel.len(), sequential.len());
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                assert_eq!(p, s, "answer {i} with {threads} threads: {:?}", queries[i]);
            }
        }
        let stats = store.stats();
        assert_eq!(stats.parallel_batches, 3, "{stats}");
        assert_eq!(stats.batches, 4, "{stats}");
    }

    #[test]
    fn parallel_batch_degenerate_inputs() {
        let (store, _) = store_for(4);
        assert!(store.query_batch_on(&[], &Scoped(8)).is_empty());
        let one = store.query_batch_on(&[Query::Components], &Scoped(8));
        assert_eq!(one.len(), 1);
        // threads = 0 falls back to the sequential path.
        let zero = store.query_batch_on(&[Query::Components], &Scoped(0));
        assert_eq!(zero, one);
        assert_eq!(store.stats().parallel_batches, 0);
    }

    #[test]
    fn custom_executor_gets_input_ordered_answers() {
        // A deliberately perverse executor: runs jobs one at a time, in
        // reverse submission order. Answers must still come back in input
        // order — the slots, not the execution order, define it.
        struct Reversed(usize);
        impl BatchExecutor for Reversed {
            fn max_workers(&self) -> usize {
                self.0
            }
            fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
                for job in jobs.into_iter().rev() {
                    job();
                }
            }
        }
        let (store, _) = store_for(16);
        let n = store.total_nodes();
        let mut queries = mixed_queries(n, 200);
        queries[7] = Query::OutNeighbors(n + 7); // an error must survive too
        let expected = store.query_batch(&queries);
        for workers in [2, 3, 7] {
            assert_eq!(store.query_batch_on(&queries, &Reversed(workers)), expected);
        }
        // workers ≤ 1 falls back to the sequential path (not counted as a
        // parallel batch).
        assert_eq!(store.query_batch_on(&queries, &Reversed(1)), expected);
        let stats = store.stats();
        assert_eq!(stats.parallel_batches, 3, "{stats}");
    }

    #[test]
    fn fresh_stores_are_generation_one() {
        let (store, _) = store_for(4);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.stats().generation, 1);
        let rendered = store.stats().to_string();
        assert!(rendered.starts_with("generation=1 "), "{rendered}");
        assert!(rendered.ends_with("backend=grepair"), "{rendered}");
    }

    #[test]
    fn memoized_hits_share_the_answer_allocation() {
        // The clone-free hit path: duplicate queries in one batch return the
        // same Arc, not a deep copy of the neighbor list.
        let (store, _) = store_for(16);
        let batch = [
            Query::OutNeighbors(3),
            Query::Neighbors(5),
            Query::OutNeighbors(3),
            Query::Neighbors(5),
        ];
        let answers = store.query_batch(&batch);
        let a = answers[0].as_ref().unwrap();
        let b = answers[2].as_ref().unwrap();
        assert!(Arc::ptr_eq(a, b), "duplicate answers must share one allocation");
        let c = answers[1].as_ref().unwrap();
        let d = answers[3].as_ref().unwrap();
        assert!(Arc::ptr_eq(c, d));
        // Exactly the two batch slots hold the allocation (the per-batch
        // memo is dropped when `query_batch` returns): the duplicate cost
        // one Arc clone, zero Vec clones.
        assert_eq!(Arc::strong_count(a), 2);
    }

    #[test]
    fn expansion_hits_are_arc_clones() {
        let (_, grammar) = store_for(16);
        let ge = GrammarEngine::new(Arc::new(grammar));
        // Warm the cache, then check a hit shares the allocation.
        let first = ge.expansion(0, 0, Direction::Out);
        let count_before = Arc::strong_count(&first);
        let second = ge.expansion(0, 0, Direction::Out);
        assert!(Arc::ptr_eq(&first, &second), "hit must be the cached allocation");
        assert_eq!(Arc::strong_count(&first), count_before + 1);
        let s = ge.cache_stats();
        assert!(s.expansion_hits >= 1, "{s:?}");
    }

    #[test]
    fn batch_reuses_sources_and_plans() {
        let (store, _) = store_for(16);
        let n = store.total_nodes();
        let queries: Vec<Query> = (0..n)
            .flat_map(|t| {
                [
                    Query::Reach { s: 0, t },
                    Query::Rpq { s: 0, t, pattern: "0* 1*".into() },
                ]
            })
            .collect();
        let answers = store.query_batch(&queries);
        assert!(answers.iter().all(|a| a.is_ok()));
        let s = store.stats();
        // One plan compiled, reused for every rpq in the batch.
        assert_eq!(s.rpq_plan_misses, 1, "{s}");
        assert_eq!(s.rpq_plan_hits, n - 1, "{s}");
        assert_eq!(s.batches, 1);
        assert_eq!(s.queries_served, 2 * n);
    }

    #[test]
    fn concurrent_individual_queries_keep_counters_exact() {
        let (store, _) = store_for(16);
        let n = store.total_nodes();
        let per_thread = 500u64;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..per_thread {
                        let q = match (t + i) % 3 {
                            0 => Query::OutNeighbors(i % n),
                            1 => Query::Reach { s: i % n, t: (i * 3) % n },
                            // Every thread's last id is out of range.
                            _ => Query::InNeighbors(n + i),
                        };
                        let _ = store.query(&q);
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.queries_served, 4 * per_thread);
        // Each thread hits the out-of-range arm ⌈500/3⌉ or ⌊500/3⌋ times
        // depending on its phase; the exact total is deterministic.
        let expected_errors: u64 = (0..4u64)
            .map(|t| (0..per_thread).filter(|i| (t + i) % 3 == 2).count() as u64)
            .sum();
        assert_eq!(stats.errors, expected_errors, "{stats}");
    }

    #[test]
    fn from_grammar_revalidates() {
        // A grammar with a dangling nonterminal reference must be rejected,
        // not served.
        let mut start = Hypergraph::with_nodes(2);
        start.add_edge(EdgeLabel::Nonterminal(0), &[0, 1]);
        let grammar = grepair_grammar::Grammar::new(start, 1);
        assert!(GraphStore::from_grammar(grammar).is_err());
    }

    // ------------------------------------------------------------------
    // Multi-backend dispatch
    // ------------------------------------------------------------------

    /// Build a store for `backend` holding the same unlabeled path graph.
    fn backend_store(backend: &str, n: u32) -> GraphStore {
        let g = Hypergraph::from_simple_edges(
            n as usize,
            (0..n - 1).map(|i| (i, 0u32, i + 1)),
        )
        .0;
        let file = codec_for(backend).unwrap().encode(&g).unwrap();
        GraphStore::from_bytes(&file).unwrap()
    }

    #[test]
    fn from_bytes_dispatches_on_the_container_tag() {
        for backend in ["grepair", "k2", "lm", "hn"] {
            let store = backend_store(backend, 20);
            assert_eq!(store.backend(), backend);
            assert_eq!(store.total_nodes(), 20, "{backend}");
            let stats = store.stats();
            assert_eq!(stats.backend, backend);
            assert!(stats.to_string().ends_with(&format!("backend={backend}")));
        }
    }

    #[test]
    fn unknown_container_tags_name_the_registry() {
        let file = crate::backend::write_tagged_container("zstd9", b"", 0);
        let err = GraphStore::from_bytes(&file).unwrap_err().to_string();
        assert!(err.contains("zstd9"), "{err}");
        assert!(err.contains("grepair, k2, lm, hn"), "{err}");
    }

    #[test]
    fn external_backends_serve_batches_with_the_duplicate_memo() {
        let store = backend_store("k2", 24);
        let n = store.total_nodes();
        let batch = [
            Query::OutNeighbors(3),
            Query::Reach { s: 0, t: n - 1 },
            Query::OutNeighbors(3),
            Query::Components,
            Query::OutNeighbors(n + 5), // error mid-batch keeps serving
            Query::DegreeExtrema,
        ];
        let answers = store.query_batch(&batch);
        assert_eq!(answers[0].as_deref(), Ok(&QueryAnswer::Nodes(vec![4])));
        assert_eq!(answers[1].as_deref(), Ok(&QueryAnswer::Bool(true)));
        // Duplicate collapses to one shared allocation, same as grammar.
        assert!(Arc::ptr_eq(answers[0].as_ref().unwrap(), answers[2].as_ref().unwrap()));
        assert_eq!(answers[3].as_deref(), Ok(&QueryAnswer::Count(1)));
        assert!(answers[4].is_err());
        assert_eq!(answers[5].as_deref(), Ok(&QueryAnswer::Extrema(Some((1, 2)))));
        let stats = store.stats();
        assert_eq!(stats.errors, 1, "{stats}");
        // Grammar-only cache counters stay zero on external backends.
        assert_eq!(stats.expansion_cache_hits + stats.expansion_cache_misses, 0);
    }

    #[test]
    fn labeled_edges_agree_with_neighbors_across_backends() {
        for backend in ["grepair", "k2", "lm", "hn"] {
            let store = backend_store(backend, 20);
            for v in 0..store.total_nodes() {
                let outs: Vec<u64> =
                    store.out_edges(v).unwrap().into_iter().map(|(_, w)| w).collect();
                assert_eq!(outs, store.out_neighbors(v).unwrap(), "{backend} out {v}");
                let ins: Vec<u64> =
                    store.in_edges(v).unwrap().into_iter().map(|(_, w)| w).collect();
                assert_eq!(ins, store.in_neighbors(v).unwrap(), "{backend} in {v}");
            }
            assert!(store.out_edges(20).is_err(), "{backend}");
        }
    }

    #[test]
    fn grammar_labeled_edges_keep_labels() {
        // two_label_path(8): 8 label-0 edges and 8 label-1 edges. The
        // grammar renumbers nodes, so check the label multiset over all
        // nodes rather than per-id structure.
        let (store, _) = store_for(8);
        let mut out_labels = Vec::new();
        let mut in_labels = Vec::new();
        for v in 0..store.total_nodes() {
            out_labels.extend(store.out_edges(v).unwrap().into_iter().map(|(l, _)| l));
            in_labels.extend(store.in_edges(v).unwrap().into_iter().map(|(l, _)| l));
        }
        for labels in [&out_labels, &in_labels] {
            assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 8);
            assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 8);
            assert_eq!(labels.len(), 16);
        }
    }

    #[test]
    fn external_backends_fan_out_in_parallel() {
        for backend in ["k2", "lm", "hn"] {
            let store = backend_store(backend, 40);
            let n = store.total_nodes();
            let mut queries = mixed_queries(n, 300);
            // Unlabeled graph: rewrite the two-label patterns onto label 0.
            for q in &mut queries {
                if let Query::Rpq { pattern, .. } = q {
                    *pattern = "0 0*".into();
                }
            }
            queries[11] = Query::InNeighbors(n + 11);
            let sequential = store.query_batch(&queries);
            let parallel = store.query_batch_on(&queries, &Scoped(4));
            assert_eq!(parallel, sequential, "{backend}");
        }
    }
}
