//! Multi-tenant hosting over one socket: a grammar-backed namespace and a
//! k²-backed namespace served concurrently, each answering byte-identically
//! to the socket-free `serve-file` path over the same container, with
//! per-namespace reload isolation and LRU eviction that never changes an
//! answer.

mod common;

use common::{g2g, send_and_drain, LineClient, TestServer};
use grepair_hypergraph::Hypergraph;
use grepair_store::{error_reply, parse_query, GraphStore};
use grepair_util::tmp::TempPath;

/// An unlabeled `n`-node path, k²-encoded (ids preserved — no grammar
/// renumbering).
fn k2_file(n: usize) -> Vec<u8> {
    let g = Hypergraph::from_simple_edges(n, (0..n as u32 - 1).map(|i| (i, 0u32, i + 1))).0;
    grepair_store::codec_for("k2").unwrap().encode(&g).unwrap()
}

/// What `grepair store serve-file` replies for `line` against this
/// container — the same parse → query → render path both front ends share,
/// computed on a twin store so the expectation survives grammar
/// renumbering.
fn serve_file_reply(twin: &GraphStore, line: &str) -> String {
    match parse_query(line).and_then(|q| twin.query(&q)) {
        Ok(answer) => answer.to_string(),
        Err(e) => error_reply(&e),
    }
}

/// A workload that crosses the whole query plane, including a per-line
/// error that must not desynchronize the reply stream.
const WORKLOAD: &[&str] = &[
    "out 0",
    "in 3",
    "neighbors 2",
    "reach 0 5",
    "reach 5 0",
    "rpq 0 2 0 0",
    "components",
    "degrees",
    "out 100000",
    "nodes",
];

#[test]
fn grepair_and_k2_tenants_share_one_socket_and_match_serve_file() {
    let gram_bytes = g2g(6); // 13-node grammar-backed path
    let k2_bytes = k2_file(9);
    let gram_path = TempPath::new("grepair_mt_gram", ".g2g");
    let k2_path = TempPath::new("grepair_mt_k2", ".g2g");
    std::fs::write(&gram_path, &gram_bytes).unwrap();
    std::fs::write(&k2_path, &k2_bytes).unwrap();

    let server = TestServer::start(8, None);
    let mut client = LineClient::new(server.connect());
    let reply = client.roundtrip(&format!("ATTACH gram {}", gram_path.display()));
    assert_eq!(reply, "attached gram generation=1 nodes=13 backend=grepair");
    let reply = client.roundtrip(&format!("ATTACH k {}", k2_path.display()));
    assert_eq!(reply, "attached k generation=1 nodes=9 backend=k2");
    assert_eq!(
        client.roundtrip("LIST"),
        "namespaces=3 default=resident:1 gram=resident:1 k=resident:1"
    );

    // Twin stores loaded from the very same bytes are the serve-file
    // ground truth for each namespace.
    let gram_twin = GraphStore::from_bytes(&gram_bytes).unwrap();
    let k2_twin = GraphStore::from_bytes(&k2_bytes).unwrap();

    // Interleave the two tenants line-by-line on one connection: every
    // reply must match its namespace's serve-file answer, in input order.
    for line in WORKLOAD {
        let got = client.roundtrip(&format!("gram:{line}"));
        assert_eq!(got, serve_file_reply(&gram_twin, line), "gram:{line}");
        let got = client.roundtrip(&format!("k:{line}"));
        assert_eq!(got, serve_file_reply(&k2_twin, line), "k:{line}");
    }

    // The same interleaving as one pipelined batch exercises the
    // per-namespace grouping in `flush_pending`: one snapshot per
    // namespace, replies scattered back into input order.
    let mut input = String::new();
    let mut expected = Vec::new();
    for line in WORKLOAD {
        input.push_str(&format!("k:{line}\ngram:{line}\n"));
        expected.push(serve_file_reply(&k2_twin, line));
        expected.push(serve_file_reply(&gram_twin, line));
    }
    let out = send_and_drain(server.addr, input.as_bytes());
    assert_eq!(out.lines().collect::<Vec<_>>(), expected);

    // Two sessions hammering different tenants concurrently stay isolated.
    let gram_addr = server.addr;
    let gram_expected: Vec<String> =
        WORKLOAD.iter().map(|l| serve_file_reply(&gram_twin, l)).collect();
    let hammer = std::thread::spawn(move || {
        for _ in 0..20 {
            let mut c = LineClient::new(std::net::TcpStream::connect(gram_addr).unwrap());
            assert_eq!(c.roundtrip("USE gram"), "using gram");
            for (line, want) in WORKLOAD.iter().zip(&gram_expected) {
                assert_eq!(&c.roundtrip(line), want, "gram under concurrency: {line}");
            }
        }
    });
    for _ in 0..20 {
        let mut c = LineClient::new(server.connect());
        assert_eq!(c.roundtrip("USE k"), "using k");
        for line in WORKLOAD {
            assert_eq!(c.roundtrip(line), serve_file_reply(&k2_twin, line), "k:{line}");
        }
    }
    hammer.join().unwrap();
}

#[test]
fn reload_of_one_namespace_never_bumps_the_other() {
    let a_path = TempPath::new("grepair_mt_iso_a", ".g2g");
    let b_path = TempPath::new("grepair_mt_iso_b", ".g2g");
    std::fs::write(&a_path, g2g(4)).unwrap();
    std::fs::write(&b_path, k2_file(7)).unwrap();

    let server = TestServer::start(8, None);
    let mut client = LineClient::new(server.connect());
    client.roundtrip(&format!("ATTACH a {}", a_path.display()));
    client.roundtrip(&format!("ATTACH b {}", b_path.display()));
    let b_twin = GraphStore::from_bytes(&k2_file(7)).unwrap();

    // Reload `a` three times (bare RELOAD from the recorded ATTACH path):
    // its generation climbs, b's must not move.
    assert_eq!(client.roundtrip("USE a"), "using a");
    for round in 2..=4u64 {
        assert_eq!(client.roundtrip("RELOAD"), format!("reloaded generation={round} nodes=9"));
        assert_eq!(server.registry.generation_of("b").unwrap(), 1, "round {round}");
        assert!(client.roundtrip("STATS b").starts_with("generation=1 "));
        // Admin verbs take no namespace prefix: the remainder falls
        // through to query parsing and errors per-line.
        let reply = client.roundtrip("b:INFO");
        assert!(reply.starts_with("error: "), "{reply}");
        // b still answers, byte-identical to its twin, mid-reload-storm.
        for line in WORKLOAD {
            assert_eq!(client.roundtrip(&format!("b:{line}")), serve_file_reply(&b_twin, line));
        }
    }
    // And the default namespace never moved either.
    assert_eq!(server.registry.generation_of("default").unwrap(), 1);
}

#[test]
fn eviction_under_budget_is_invisible_to_clients() {
    let mut paths = Vec::new();
    let mut twins = Vec::new();
    for reps in [4u32, 6, 8] {
        let bytes = g2g(reps);
        let path = TempPath::new("grepair_mt_evict", ".g2g");
        std::fs::write(&path, &bytes).unwrap();
        twins.push(GraphStore::from_bytes(&bytes).unwrap());
        paths.push(path);
    }
    let total: u64 = paths.iter().map(|p| std::fs::metadata(p).unwrap().len()).sum();

    let server = TestServer::start(8, None);
    // Budget below the combined container size: the three tenants cannot
    // all stay resident, so round-robin queries force evict/reopen cycles.
    server.registry.set_budget(Some(total / 2));
    let mut client = LineClient::new(server.connect());
    for (i, path) in paths.iter().enumerate() {
        let reply = client.roundtrip(&format!("ATTACH t{i} {}", path.display()));
        assert!(reply.starts_with("attached "), "{reply}");
    }

    for _round in 0..5 {
        for (i, twin) in twins.iter().enumerate() {
            for line in WORKLOAD {
                let got = client.roundtrip(&format!("t{i}:{line}"));
                assert_eq!(got, serve_file_reply(twin, line), "t{i}:{line}");
            }
            // Evicted-and-reopened stores keep their generation: eviction
            // is a cache decision, not a data change.
            assert_eq!(server.registry.generation_of(&format!("t{i}")).unwrap(), 1);
        }
    }
    // The budget actually bit: evictions happened and the resident set
    // stayed within bounds (plus at most the one just-touched store).
    let stats = server.registry.aggregate_stats();
    assert!(stats.evictions > 0, "budget never forced an eviction: {stats}");
    assert!(stats.cold_opens > 0, "evicted stores must have reopened: {stats}");
}
