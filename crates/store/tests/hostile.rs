//! The zero-panic guarantee, exercised end to end: every byte sequence
//! handed to the load path and every id handed to the query path must
//! produce `Ok` or a clean `Err` — never a panic.
//!
//! CI runs this suite by name (`cargo test -p grepair-store --test hostile`)
//! so the guarantee is enforced on every PR.

use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::Hypergraph;
use grepair_store::{codecs, write_container, BatchExecutor, GraphStore, Query};

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

/// A real compressed container to corrupt.
fn good_container() -> Vec<u8> {
    let (g, _) = Hypergraph::from_simple_edges(
        41,
        (0..20u32).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
    );
    let out = compress(&g, &GRePairConfig::default());
    let enc = grepair_codec::encode(&out.grammar);
    write_container(&enc.bytes, enc.bit_len)
}

#[test]
fn the_good_container_loads() {
    let store = GraphStore::from_bytes(&good_container()).unwrap();
    assert_eq!(store.total_nodes(), 41);
}

#[test]
fn truncation_at_every_offset_errors() {
    let file = good_container();
    // Every prefix, including the empty file and cuts inside the header —
    // the original bit_len header survives in prefixes ≥ 12 bytes, so this
    // also covers "header claims more bits than the payload holds".
    for keep in 0..file.len() {
        let result = GraphStore::from_bytes(&file[..keep]);
        assert!(result.is_err(), "prefix of {keep} bytes must error");
    }
}

#[test]
fn single_byte_flips_never_panic() {
    let file = good_container();
    for byte in 0..file.len() {
        for bit in 0..8 {
            let mut copy = file.clone();
            copy[byte] ^= 1 << bit;
            // Ok or Err are both acceptable (some flips decode to a
            // different valid grammar); panicking is not.
            let _ = GraphStore::from_bytes(&copy);
        }
    }
}

#[test]
fn garbage_and_wrong_magic_error() {
    for junk in [
        &b""[..],
        b"G2G",
        b"G2G2",
        b"G2G1",
        b"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00",
        b"not a g2g file at all, just some text",
    ] {
        assert!(GraphStore::from_bytes(junk).is_err(), "{junk:?}");
    }
    // Valid header, absurd bit length, no payload.
    let mut lie = Vec::new();
    lie.extend_from_slice(b"G2G1");
    lie.extend_from_slice(&u64::MAX.to_le_bytes());
    assert!(GraphStore::from_bytes(&lie).is_err());
}

/// A real container per registered backend, all encoding the same
/// unlabeled path graph (every backend's model accepts it).
fn backend_containers() -> Vec<(&'static str, Vec<u8>)> {
    let (g, _) = Hypergraph::from_simple_edges(41, (0..40u32).map(|i| (i, 0u32, i + 1)));
    codecs()
        .iter()
        .map(|codec| (codec.name(), codec.encode(&g).expect("path graph encodes")))
        .collect()
}

#[test]
fn every_backend_container_loads_and_serves() {
    for (name, file) in backend_containers() {
        let store = GraphStore::from_bytes(&file).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(store.backend(), name);
        assert_eq!(store.total_nodes(), 41, "{name}");
    }
}

#[test]
fn truncation_at_every_offset_errors_for_every_backend() {
    for (name, file) in backend_containers() {
        for keep in 0..file.len() {
            let result = GraphStore::from_bytes(&file[..keep]);
            assert!(result.is_err(), "{name}: prefix of {keep} bytes must error");
        }
    }
}

#[test]
fn single_byte_flips_never_panic_in_any_backend() {
    for (name, file) in backend_containers() {
        for byte in 0..file.len() {
            for bit in 0..8 {
                let mut copy = file.clone();
                copy[byte] ^= 1 << bit;
                // Ok or Err are both acceptable (some flips decode to a
                // different valid container); panicking is not. A store
                // that does load must then survive hostile queries.
                if let Ok(store) = GraphStore::from_bytes(&copy) {
                    let n = store.total_nodes();
                    let _ = store.query(&Query::OutNeighbors(n));
                    let _ = store.query(&Query::Reach { s: 0, t: n.saturating_sub(1) });
                }
                let _ = name;
            }
        }
    }
}

#[test]
fn hostile_query_inputs_error_for_every_backend() {
    for (name, file) in backend_containers() {
        let store = GraphStore::from_bytes(&file).unwrap();
        let n = store.total_nodes();
        for id in [n, n + 1, u64::MAX, 1 << 40] {
            assert!(store.out_neighbors(id).is_err(), "{name} out {id}");
            assert!(store.in_neighbors(id).is_err(), "{name} in {id}");
            assert!(store.neighbors(id).is_err(), "{name} both {id}");
            assert!(store.reachable(id, 0).is_err(), "{name} reach s={id}");
            assert!(store.reachable(0, id).is_err(), "{name} reach t={id}");
            assert!(store.rpq("0", id, 0).is_err(), "{name} rpq {id}");
        }
        // Malformed patterns are BadRequest, not panics.
        assert!(store.rpq("", 0, 1).is_err(), "{name}");
        assert!(store.rpq("x", 0, 1).is_err(), "{name}");
        // In-range queries still work after all that, through the batch
        // machinery (the acceptance shape), sequential and parallel.
        let queries: Vec<Query> = (0..2_000u64)
            .map(|i| match i % 4 {
                0 => Query::OutNeighbors(i % n),
                1 => Query::Neighbors((i * 7) % n),
                2 => Query::Reach { s: (i * 3) % n, t: (i * 11) % n },
                _ => Query::Rpq { s: (i * 5) % n, t: (i * 13) % n, pattern: "0*".into() },
            })
            .collect();
        let answers = store.query_batch(&queries);
        assert!(answers.iter().all(|a| a.is_ok()), "{name}");
        assert_eq!(store.query_batch_on(&queries, &Scoped(4)), answers, "{name}");
    }
}

#[test]
fn hostile_query_inputs_error() {
    let store = GraphStore::from_bytes(&good_container()).unwrap();
    let n = store.total_nodes();
    for id in [n, n + 1, u64::MAX, 1 << 40] {
        assert!(store.out_neighbors(id).is_err(), "out {id}");
        assert!(store.in_neighbors(id).is_err(), "in {id}");
        assert!(store.neighbors(id).is_err(), "both {id}");
        assert!(store.reachable(id, 0).is_err(), "reach s={id}");
        assert!(store.reachable(0, id).is_err(), "reach t={id}");
        assert!(store.rpq("0 1", id, 0).is_err(), "rpq {id}");
    }
    // Malformed patterns are BadRequest, not panics.
    assert!(store.rpq("", 0, 1).is_err());
    assert!(store.rpq("x", 0, 1).is_err());
    assert!(store.rpq("99999999999999999999", 0, 1).is_err());
    // In-range queries still work after all that.
    assert!(store.reachable(0, n - 1).unwrap());
}

#[test]
fn ten_thousand_mixed_queries_from_one_store() {
    // The acceptance scenario: one loaded store answers ≥ 10k mixed
    // queries in a single process, through the batched API.
    let store = GraphStore::from_bytes(&good_container()).unwrap();
    let n = store.total_nodes();
    let mut queries = Vec::with_capacity(10_500);
    for i in 0..10_500u64 {
        queries.push(match i % 5 {
            0 => Query::OutNeighbors(i % n),
            1 => Query::InNeighbors((i * 7) % n),
            2 => Query::Reach { s: (i * 3) % n, t: (i * 11) % n },
            3 => Query::Rpq {
                s: (i * 5) % n,
                t: (i * 13) % n,
                pattern: if i % 2 == 0 { "0 1".into() } else { "0* 1*".into() },
            },
            _ => Query::Neighbors((i * 17) % n),
        });
    }
    let answers = store.query_batch(&queries);
    assert_eq!(answers.len(), queries.len());
    assert!(answers.iter().all(|a| a.is_ok()));
    let stats = store.stats();
    assert_eq!(stats.queries_served, 10_500);
    assert_eq!(stats.errors, 0);
    assert!(stats.expansion_cache_hits > 0);
    assert_eq!(stats.rpq_plan_misses, 2, "{stats}");
    // The same 10k through the concurrent engine: identical answers, and
    // the worker fan-out keeps the counters exact.
    let parallel = store.query_batch_on(&queries, &Scoped(8));
    assert_eq!(parallel, answers);
    let stats = store.stats();
    assert_eq!(stats.queries_served, 21_000, "{stats}");
    assert_eq!(stats.errors, 0, "{stats}");
    assert_eq!(stats.parallel_batches, 1, "{stats}");
    assert_eq!(stats.rpq_plan_misses, 2, "plans persist across batches: {stats}");
}
