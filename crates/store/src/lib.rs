//! Serving-grade graph store: load a compressed graph **once**, answer
//! queries **forever**.
//!
//! The paper's payoff (§V) is querying `val(G)` directly on the grammar;
//! this crate turns that from a one-shot CLI run into a long-lived,
//! crash-proof server building block:
//!
//! * **Fallible load** — [`GraphStore::open`] / [`GraphStore::from_bytes`]
//!   take any byte sequence to either a serving store or a [`GrepairError`];
//!   no hostile container, truncation, or bit flip can panic the process.
//! * **Pluggable backends** — containers are self-describing
//!   (DESIGN.md §7): the [`backend`] module defines [`GraphCodec`] /
//!   [`QueryEngine`], and `from_bytes` dispatches to whichever registered
//!   backend (`grepair`, `k2`, `lm`, `hn`) wrote the file, legacy `.g2g`
//!   images included. Every backend serves the same query plane; the
//!   paper's space/query comparison runs live through one API.
//! * **Eager indexing** — the G-representation navigation index and the
//!   reachability skeletons are built at load time, so per-query latency
//!   never pays the O(|G|) setup.
//! * **Batched serving** — [`GraphStore::query_batch`] amortizes work
//!   across requests: duplicate queries collapse, `reach` queries sharing a
//!   source reuse one forward closure, `rpq` queries sharing a
//!   (pattern, source) pair reuse one product closure, and neighbor
//!   expansion of repeated rule labels is memoized store-wide (with
//!   hit/miss counters in [`StoreStats`]).
//! * **One query path** — every backend is a [`QueryEngine`] behind the
//!   same dispatch. Batch-sharing levers sit behind the engine's
//!   [`QueryEngine::answer`], so the store never needs to know which
//!   backend it serves.
//! * **Concurrent serving** — the caches are sharded (`RwLock` per shard,
//!   see `DESIGN.md §5`), answers are `Arc<QueryAnswer>` so every cache or
//!   memo hit is a pointer clone instead of a deep copy, and
//!   [`GraphStore::query_batch_on`] partitions one batch across the
//!   workers of a [`BatchExecutor`] (a long-lived server's reusable
//!   thread pool) that share the per-batch closures.
//! * **Multi-tenant hosting** — a [`StoreRegistry`] maps namespace names
//!   to hot-reloadable store slots with per-namespace monotonic
//!   generations: a freshly loaded container swaps in while in-flight
//!   queries finish on the old `Arc` (the wire protocol's `RELOAD`
//!   command, DESIGN.md §6/§8). Tenants can be attached cold (opened
//!   lazily on first query) and, under a configured byte budget, the
//!   least-recently-hit resident stores are evicted and reopen
//!   transparently on their next hit. The end-to-end embedded pattern —
//!   registry + batches, no sockets — is `examples/serving.rs` at the
//!   repository root; the socket front end is the `grepair-server` crate.
//! * **Versioned serving** — any namespace accepts edge patches
//!   ([`StoreRegistry::patch`], the wire protocol's `PATCH`): the base
//!   container stays immutable while each applied [`EdgePatch`] becomes a
//!   new monotonic version served through a cheap delta overlay, and
//!   `@vN` addressing ([`StoreRegistry::store_at`]) pins queries to any
//!   retained version while bare queries track the head (DESIGN.md §12).
//!
//! ```
//! use grepair_store::{BatchExecutor, GraphStore, Query, QueryAnswer, write_container};
//!
//! // Compress any graph, wrap it in the .g2g container, serve it.
//! let (g, _) = grepair_hypergraph::Hypergraph::from_simple_edges(
//!     9,
//!     (0..8u32).map(|i| (i, 0u32, i + 1)),
//! );
//! let out = grepair_core::compress(&g, &grepair_core::GRePairConfig::default());
//! let enc = grepair_codec::encode(&out.grammar);
//! let store = GraphStore::from_bytes(&write_container(&enc.bytes, enc.bit_len)).unwrap();
//!
//! let queries = [
//!     Query::OutNeighbors(0),
//!     Query::Reach { s: 0, t: 8 },
//!     Query::Components,
//! ];
//! let answers = store.query_batch(&queries);
//! assert!(answers.iter().all(|a| a.is_ok()));
//! assert_eq!(answers[1].as_deref(), Ok(&QueryAnswer::Bool(true)));
//!
//! // The same batch fanned out over two worker threads: identical answers.
//! struct TwoThreads;
//! impl BatchExecutor for TwoThreads {
//!     fn max_workers(&self) -> usize {
//!         2
//!     }
//!     fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
//!         std::thread::scope(|s| {
//!             for job in jobs {
//!                 s.spawn(job);
//!             }
//!         });
//!     }
//! }
//! assert_eq!(store.query_batch_on(&queries, &TwoThreads), answers);
//!
//! // Hostile input errors instead of crashing the server.
//! assert!(GraphStore::from_bytes(b"G2G1junk").is_err());
//! assert!(store.query(&Query::OutNeighbors(1 << 40)).is_err());
//! ```

#![forbid(unsafe_code)]

pub mod backend;
mod cache;
mod engine;
mod error;
pub mod query;
mod registry;
mod store;
mod version;

pub use backend::{
    backend_names, codec_for, codecs, split_any_container, write_tagged_container, CacheStats,
    GraphCodec, QueryEngine, TAGGED_MAGIC,
};
pub use engine::{GrammarEngine, Scratch};
pub use error::GrepairError;
pub use query::{compile_pattern, error_reply, parse_pattern, parse_query, Query, QueryAnswer};
pub use registry::{
    retry_backoff, valid_namespace, NamespaceHealth, RegistryStats, StoreRegistry,
    BREAKER_COOLDOWN, BREAKER_THRESHOLD, COLD_OPEN_ATTEMPTS, DEFAULT_NAMESPACE,
    MAX_NAMESPACE_LEN,
};
pub use store::{
    parse_container, write_container, BatchContext, BatchExecutor, GraphStore, StoreStats,
    HEADER_LEN, MAGIC,
};
pub use version::{
    materialize, EdgePatch, PatchOp, VersionSummary, VersionedStore, MAX_VERSIONED_NODES,
};
