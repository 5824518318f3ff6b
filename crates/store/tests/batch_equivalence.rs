//! Property test: the three ways to ask a `GraphStore` something — one-shot
//! [`GraphStore::query`], sequential [`GraphStore::query_batch`], and the
//! fanned-out [`GraphStore::query_batch_on`] — must agree on every
//! workload, answer for answer, in input order, error cases included.
//!
//! This is the contract that makes the concurrent engine safe to ship: none
//! of the amortization levers (duplicate memo, shared reach sources, shared
//! RPQ product closures, the locate cache, the sharded expansion cache) may
//! change a single answer.

use proptest::prelude::*;
use std::sync::Arc;

use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::Hypergraph;
use grepair_store::{write_container, BatchExecutor, GraphStore, Query};

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

/// One store reused across all cases (the store is immutable under queries;
/// building it per case would dominate the test's runtime).
fn shared_store() -> &'static GraphStore {
    static STORE: std::sync::OnceLock<GraphStore> = std::sync::OnceLock::new();
    STORE.get_or_init(|| {
        // A graph with repetition (compresses into nested rules), a hub, a
        // cycle, and a disconnected tail — enough structure that neighbor,
        // reach, and RPQ queries all exercise nontrivial paths.
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for i in 0..40u32 {
            edges.push((2 * i, 0, 2 * i + 1));
            edges.push((2 * i + 1, 1, 2 * i + 2));
        }
        for spoke in 1..8u32 {
            edges.push((0, 2, spoke * 9));
        }
        edges.push((80, 0, 0)); // close a long cycle
        edges.push((85, 2, 86)); // small disconnected piece
        edges.push((86, 2, 87));
        let (g, _) = Hypergraph::from_simple_edges(88, edges);
        let out = compress(&g, &GRePairConfig::default());
        let enc = grepair_codec::encode(&out.grammar);
        GraphStore::from_bytes(&write_container(&enc.bytes, enc.bit_len)).unwrap()
    })
}

/// Ids straddling the valid range: mostly in `0..n`, some hostile.
fn node_id(n: u64) -> BoxedStrategy<u64> {
    prop_oneof![
        (0..n).boxed(),
        Just(n),
        (n..n + 50).boxed(),
        Just(u64::MAX),
    ]
    .boxed()
}

fn query_strategy(n: u64) -> BoxedStrategy<Query> {
    let patterns = prop_oneof![
        Just("0".to_string()),
        Just("0 1".to_string()),
        Just("0* 1*".to_string()),
        Just("2? 0+".to_string()),
    ];
    prop_oneof![
        node_id(n).prop_map(Query::OutNeighbors).boxed(),
        node_id(n).prop_map(Query::InNeighbors).boxed(),
        node_id(n).prop_map(Query::Neighbors).boxed(),
        (node_id(n), node_id(n))
            .prop_map(|(s, t)| Query::Reach { s, t })
            .boxed(),
        (node_id(n), node_id(n), patterns)
            .prop_map(|(s, t, pattern)| Query::Rpq { s, t, pattern })
            .boxed(),
        Just(Query::Components).boxed(),
        Just(Query::DegreeExtrema).boxed(),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_and_parallel_match_one_shot(
        workload in (1u64..2).prop_flat_map(|_| {
            let n = shared_store().total_nodes();
            proptest::collection::vec(query_strategy(n), 0..120)
        }),
        threads in 2usize..9,
    ) {
        let store = shared_store();
        let sequential = store.query_batch(&workload);
        prop_assert_eq!(sequential.len(), workload.len());
        let parallel = store.query_batch_on(&workload, &Scoped(threads));
        prop_assert_eq!(parallel.len(), workload.len());
        for (i, q) in workload.iter().enumerate() {
            let one_shot = store.query(q);
            // Answers agree by value (including Err payloads)…
            prop_assert_eq!(&sequential[i], &one_shot, "batch vs one-shot at {} ({:?})", i, q);
            prop_assert_eq!(&parallel[i], &one_shot, "parallel vs one-shot at {} ({:?})", i, q);
        }
        // …and duplicates inside the sequential batch share one allocation
        // (the clone-free memo path), not just equal contents.
        for (i, q) in workload.iter().enumerate() {
            if let Some(j) = workload[..i].iter().position(|p| p == q) {
                if let (Ok(a), Ok(b)) = (&sequential[j], &sequential[i]) {
                    prop_assert!(
                        Arc::ptr_eq(a, b),
                        "duplicate {:?} at {} and {} must share the answer Arc", q, j, i
                    );
                }
            }
        }
    }
}
