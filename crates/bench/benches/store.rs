//! Criterion benches for the serving path: one loaded `GraphStore`
//! answering sustained query traffic — the acceptance scenario for the
//! store is a ≥ 10k mixed-query batch from a single loaded store, measured
//! here end to end, plus the amortization levers in isolation (shared
//! reach sources, the memoized expansion cache, the RPQ plan cache).

use criterion::{criterion_group, criterion_main, Criterion};
// The acceptance workload (10k+ mixed queries against one loaded store) is
// shared with `repro --queries`, which records it in BENCH_store.json.
use grepair_bench::serving::mixed_batch;
use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::Hypergraph;
use grepair_server::WorkerPool;
use grepair_store::{write_container, GraphStore, Query};

/// Long repetitive path: |G| = O(log |g|), the best case for grammar-side
/// queries (and the worst case for naive per-query index traversal).
fn long_path(reps: u32) -> Hypergraph {
    Hypergraph::from_simple_edges(
        (2 * reps + 1) as usize,
        (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
    )
    .0
}

/// Build a store the way a server would: through the .g2g byte path.
fn loaded_store(reps: u32) -> GraphStore {
    let g = long_path(reps);
    let out = compress(&g, &GRePairConfig::default());
    let enc = grepair_codec::encode(&out.grammar);
    GraphStore::from_bytes(&write_container(&enc.bytes, enc.bit_len)).expect("valid container")
}


fn bench_query_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_batch");
    group.sample_size(10);
    let store = loaded_store(2_048);
    let n = store.total_nodes();
    let batch = mixed_batch(n, 10_000);
    group.bench_function("10k_mixed_one_store", |b| {
        b.iter(|| {
            let answers = store.query_batch(&batch);
            assert!(answers.iter().all(|a| a.is_ok()));
            answers.len()
        })
    });
    // The same 10k requests one by one — what batching amortizes away.
    let singles = mixed_batch(n, 10_000);
    group.bench_function("10k_mixed_individually", |b| {
        b.iter(|| {
            singles
                .iter()
                .map(|q| store.query(q).is_ok() as usize)
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_amortization(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_amortization");
    group.sample_size(10);
    let store = loaded_store(2_048);
    let n = store.total_nodes();

    // Shared-source reach: 1k targets from one source.
    let shared: Vec<Query> = (0..1_000u64).map(|t| Query::Reach { s: 0, t: t % n }).collect();
    group.bench_function("reach_1k_shared_source", |b| {
        b.iter(|| store.query_batch(&shared).len())
    });
    // The same pairs through the unshared path.
    group.bench_function("reach_1k_individual", |b| {
        b.iter(|| {
            (0..1_000u64)
                .filter(|&t| store.reachable(0, t % n).unwrap())
                .count()
        })
    });
    // Hot neighbor traffic over few nodes: expansion cache all-hit.
    let hot: Vec<Query> = (0..1_000u64).map(|i| Query::Neighbors(i % 16)).collect();
    group.bench_function("neighbors_1k_hot_nodes", |b| {
        b.iter(|| store.query_batch(&hot).len())
    });
    group.finish();
}

/// The contention scenario: the same 10k mixed batch fanned out across
/// 1/2/4/8 worker threads sharing one store and one batch context. On a
/// multi-core box the 8-thread row should beat `threads_1` (the sequential
/// path) by ≥ 3×; on fewer cores the rows document how gracefully the
/// sharded caches degrade (no lock convoy — times stay near sequential).
fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_contention");
    group.sample_size(10);
    let store = loaded_store(2_048);
    let n = store.total_nodes();
    let batch = mixed_batch(n, 10_000);
    // Warm the store-wide caches so every thread count measures the same
    // steady serving state, not first-touch compilation.
    assert!(store.query_batch(&batch).iter().all(|a| a.is_ok()));
    for threads in [1usize, 2, 4, 8] {
        let pool = WorkerPool::new(threads);
        group.bench_function(format!("10k_mixed_threads_{threads}"), |b| {
            b.iter(|| {
                let answers = store.query_batch_on(&batch, &pool);
                assert!(answers.iter().all(|a| a.is_ok()));
                answers.len()
            })
        });
    }
    group.finish();
}

fn bench_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_load");
    group.sample_size(10);
    let g = long_path(2_048);
    let out = compress(&g, &GRePairConfig::default());
    let enc = grepair_codec::encode(&out.grammar);
    let file = write_container(&enc.bytes, enc.bit_len);
    // Decode + validate + eager index build: the cost a server pays once.
    group.bench_function("open_and_index", |b| {
        b.iter(|| GraphStore::from_bytes(&file).expect("valid container").total_nodes())
    });
    group.finish();
}

criterion_group!(benches, bench_query_batch, bench_amortization, bench_contention, bench_load);
criterion_main!(benches);
