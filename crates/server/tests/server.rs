//! Loopback integration: a real `grepair-server` on an ephemeral port must
//! answer byte-identically to `store serve-file` on the same query file,
//! and a `RELOAD` mid-stream must bump the generation without dropping the
//! connection or any in-flight answer.

mod common;

use common::{g2g, send_and_drain, store, LineClient, TestServer};
use grepair_store::{error_reply, parse_query, GraphStore, Query, DEFAULT_NAMESPACE};
use grepair_util::tmp::TempPath;

/// A query file exercising every query class, every error shape, comments,
/// and blank lines — the serve-file acceptance input.
fn mixed_query_file(n: u64) -> String {
    let mut text = String::from("# every query class, plus per-line errors\n\n");
    for i in 0..n {
        text.push_str(&format!("out {i}\nin {i}\nneighbors {i}\n"));
        text.push_str(&format!("reach 0 {i}\nreach {i} {}\n", n - 1));
        text.push_str(&format!("rpq 0 {i} 0 1\nrpq {i} 0 0* 1*\n"));
    }
    text.push_str("components\ndegrees\n");
    // The error lines: out-of-range ids (the hostile corpus shapes),
    // unparsable verbs, malformed patterns, trailing junk.
    text.push_str(&format!("out {n}\nin {}\nneighbors {}\n", n + 100, u64::MAX));
    text.push_str(&format!("reach {n} 0\nreach 0 1099511627776\n"));
    text.push_str("rpq 0 1 banana\nrpq 2 3\nfrobnicate 7\nout\nout x\ncomponents now\n");
    text.push_str("\n# trailing comment\n");
    text
}

/// What `store serve-file` prints for `file`: the reference rendering,
/// produced through the same parse / query / `Display` / [`error_reply`]
/// code the CLI uses (the CI smoke step additionally diffs the two real
/// binaries end to end).
fn serve_file_reference(store: &GraphStore, file: &str) -> String {
    let mut out = String::new();
    for raw in file.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_query(line) {
            Err(e) => out.push_str(&format!("{}\n", error_reply(e.to_string()))),
            Ok(q) => match store.query(&q) {
                Ok(a) => out.push_str(&format!("{a}\n")),
                Err(e) => out.push_str(&format!("{}\n", error_reply(e))),
            },
        }
    }
    out
}

#[test]
fn socket_answers_are_byte_identical_to_serve_file() {
    let server = TestServer::start(16, None);
    let n = server.registry.store(DEFAULT_NAMESPACE).unwrap().total_nodes();
    let file = mixed_query_file(n);
    let expected = serve_file_reference(&store(16), &file);
    let got = send_and_drain(server.addr, file.as_bytes());
    assert!(!expected.is_empty());
    assert_eq!(got, expected, "socket and serve-file outputs must be byte-identical");
    // Sanity: the file really exercised the error paths.
    assert!(got.lines().any(|l| l.starts_with("error: ")));
}

#[test]
fn reload_mid_stream_bumps_generation_without_dropping_anything() {
    let path = TempPath::new("grepair_server_it", ".g2g");
    std::fs::write(&path, g2g(32)).unwrap(); // 65-node replacement store
    let server = TestServer::start(16, None); // 33-node initial store
    let mut client = LineClient::new(server.connect());

    // Generation 1 serving normally.
    assert_eq!(
        client.roundtrip("INFO"),
        "grepair proto=3 namespace=default generation=1 nodes=33 backend=grepair reload_failures=0"
    );
    assert_eq!(client.roundtrip("reach 0 32"), "true");
    let err = client.roundtrip("out 64"); // not a node yet
    assert!(err.starts_with("error:"), "{err}");

    // Pipeline queries *around* a RELOAD in one write: the pre-RELOAD
    // query must be answered by the old store, the post-RELOAD one by the
    // new — all on the same connection, in order.
    client.send("out 64"); // old store: error
    client.send(&format!("RELOAD {}", path.display()));
    client.send("out 64"); // new store: a real answer
    let before = client.recv();
    assert!(before.starts_with("error:"), "in-flight answer served by generation 1: {before}");
    assert_eq!(client.recv(), "reloaded generation=2 nodes=65");
    let after = client.recv();
    let expected_after = store(32).query(&Query::OutNeighbors(64)).unwrap().to_string();
    assert_eq!(after, expected_after, "post-reload query runs on generation 2");

    // The same connection is still alive, and STATS echoes the bump.
    let stats = client.roundtrip("STATS default");
    assert!(stats.starts_with("generation=2 "), "{stats}");
    assert_eq!(server.registry.generation_of(DEFAULT_NAMESPACE).unwrap(), 2);
    assert_eq!(client.roundtrip("PING"), "pong");
    assert_eq!(client.roundtrip("QUIT"), "bye");
}

#[test]
fn old_generation_arc_survives_a_swap_under_load() {
    // A client holding a long pipelined stream while another session
    // reloads: every answer of the in-flight stream must still be correct
    // (they were computed on whichever generation each batch snapshotted —
    // both generations here serve identical graphs, so answers are
    // identical; what's being tested is that nothing tears or drops).
    let path = TempPath::new("grepair_server_swap", ".g2g");
    std::fs::write(&path, g2g(16)).unwrap(); // same graph, new generation
    let server = TestServer::start(16, None);
    let n = server.registry.store(DEFAULT_NAMESPACE).unwrap().total_nodes();

    let mut input = String::new();
    let mut expected = String::new();
    for i in 0..2000u64 {
        input.push_str(&format!("reach 0 {}\n", i % n));
        expected.push_str("true\n");
    }
    let addr = server.addr;
    let streamer = std::thread::spawn(move || send_and_drain(addr, input.as_bytes()));
    // Concurrently, another connection swaps generations a few times.
    let mut admin = LineClient::new(server.connect());
    for round in 0..5 {
        let reply = admin.roundtrip(&format!("RELOAD {}", path.display()));
        assert_eq!(reply, format!("reloaded generation={} nodes={n}", round + 2));
    }
    assert_eq!(streamer.join().unwrap(), expected);
    assert_eq!(server.registry.generation_of(DEFAULT_NAMESPACE).unwrap(), 6);
}

#[test]
fn many_concurrent_connections_share_one_pool() {
    let server = TestServer::start(16, None);
    let n = server.registry.store(DEFAULT_NAMESPACE).unwrap().total_nodes();
    let file = mixed_query_file(n);
    let expected = serve_file_reference(&store(16), &file);
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let expected = &expected;
            let file = &file;
            let addr = server.addr;
            scope.spawn(move || {
                assert_eq!(&send_and_drain(addr, file.as_bytes()), expected);
            });
        }
    });
}

#[test]
fn idle_sessions_are_cut_by_the_read_timeout() {
    use grepair_server::ServerConfig;
    use std::io::Read;
    use std::time::{Duration, Instant};

    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let server = TestServer::start_with(8, None, config);
    // A connection that never sends anything — the slow-loris shape. The
    // server must close it instead of parking its session thread forever.
    // (No request/reply roundtrips happen on this short-timeout server:
    // a >100ms scheduling stall between writes would otherwise make the
    // test flaky under CI load; normal serving is covered elsewhere.)
    let mut stream = server.connect();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    let mut buf = Vec::new();
    let n = stream.read_to_end(&mut buf).expect("server closes, not the test timeout");
    let elapsed = start.elapsed();
    assert_eq!(n, 0, "an idle session gets no bytes, just EOF: {buf:?}");
    assert!(
        elapsed < Duration::from_secs(5),
        "cutoff must come from the 100ms read timeout, took {elapsed:?}"
    );
    assert!(
        elapsed >= Duration::from_millis(80),
        "cutoff must wait out the read timeout, not fire instantly: {elapsed:?}"
    );
}

#[test]
fn connections_over_the_cap_are_refused_with_an_error_line() {
    use grepair_server::ServerConfig;
    use std::io::Read;
    use std::time::Duration;

    let config = ServerConfig { max_connections: 1, ..ServerConfig::default() };
    let server = TestServer::start_with(8, None, config);
    let mut first = LineClient::new(server.connect());
    assert_eq!(first.roundtrip("PING"), "pong");

    // The second concurrent connection is answered and closed.
    let mut second = server.connect();
    second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reply = String::new();
    second.read_to_string(&mut reply).expect("refusal then EOF");
    assert_eq!(reply, "error: connection limit reached (1 active)\n");

    // The refused connection did not consume the slot: the first session
    // still serves, and once it ends a new connection is admitted.
    assert_eq!(first.roundtrip("out 0"), "1");
    assert_eq!(first.roundtrip("QUIT"), "bye");
    drop(first);
    for attempt in 0.. {
        let mut retry = LineClient::new(server.connect());
        let reply = retry.roundtrip("PING");
        if reply == "pong" {
            break;
        }
        assert!(reply.starts_with("error:"), "{reply}");
        assert!(attempt < 50, "slot never freed: {reply:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn reload_swaps_in_a_different_backend_mid_session() {
    use grepair_hypergraph::Hypergraph;

    // A 9-node unlabeled path, k²-encoded: ids are preserved (no grammar
    // renumbering), so the answers are predictable.
    let g = Hypergraph::from_simple_edges(9, (0..8u32).map(|i| (i, 0u32, i + 1))).0;
    let file = grepair_store::codec_for("k2").unwrap().encode(&g).unwrap();
    let path = TempPath::new("grepair_server_k2", ".g2g");
    std::fs::write(&path, file).unwrap();

    let server = TestServer::start(16, None); // grammar-backed, 33 nodes
    let mut client = LineClient::new(server.connect());
    assert_eq!(
        client.roundtrip("INFO"),
        "grepair proto=3 namespace=default generation=1 nodes=33 backend=grepair reload_failures=0"
    );
    assert_eq!(
        client.roundtrip(&format!("RELOAD {}", path.display())),
        "reloaded generation=2 nodes=9"
    );
    // Same connection, new backend: the whole query plane answers.
    assert_eq!(
        client.roundtrip("INFO"),
        "grepair proto=3 namespace=default generation=2 nodes=9 backend=k2 reload_failures=0"
    );
    assert_eq!(client.roundtrip("out 0"), "1");
    assert_eq!(client.roundtrip("in 8"), "7");
    assert_eq!(client.roundtrip("reach 0 8"), "true");
    assert_eq!(client.roundtrip("reach 8 0"), "false");
    assert_eq!(client.roundtrip("rpq 0 2 0 0"), "true");
    assert_eq!(client.roundtrip("components"), "1");
    assert_eq!(client.roundtrip("degrees"), "min=1 max=2");
    let err = client.roundtrip("out 33"); // old id space is gone
    assert!(err.starts_with("error:") && err.contains("0..9"), "{err}");
    let stats = client.roundtrip("STATS default");
    assert!(stats.contains("backend=k2"), "{stats}");
    assert!(stats.ends_with("open_failures=0 reload_failures=0 breaker_trips=0 breaker_open=false"), "{stats}");
    assert_eq!(client.roundtrip("QUIT"), "bye");
}

#[test]
fn bare_reload_uses_the_configured_path_and_errors_without_one() {
    let path = TempPath::new("grepair_server_bare", ".g2g");
    std::fs::write(&path, g2g(8)).unwrap();

    // No default path configured: bare RELOAD is a clean error.
    let server = TestServer::start(8, None);
    let mut client = LineClient::new(server.connect());
    let reply = client.roundtrip("RELOAD");
    assert!(reply.contains("no container path"), "{reply}");
    drop(client);
    drop(server);

    // With one configured (the normal binary path), bare RELOAD works.
    let server = TestServer::start(8, Some(path.display().to_string()));
    let mut client = LineClient::new(server.connect());
    assert_eq!(client.roundtrip("RELOAD"), "reloaded generation=2 nodes=17");
}

#[test]
fn shutdown_verb_drains_the_server_and_closes_the_listener() {
    use grepair_server::{Server, ServerConfig};
    use grepair_store::StoreRegistry;
    use std::sync::Arc;
    use std::time::Duration;

    let config = ServerConfig {
        drain_deadline: Duration::from_secs(3),
        ..Default::default()
    };
    let registry = Arc::new(StoreRegistry::new(store(8)));
    let server = Server::bind(&config, registry, None).unwrap();
    let addr = server.local_addr().unwrap();
    let run = std::thread::spawn(move || {
        let result = server.run();
        // After a drain, no session is left active: every in-flight
        // connection finished before run() returned.
        assert_eq!(server.connections_active(), 0, "drain left sessions behind");
        result
    });

    let mut client = LineClient::new(std::net::TcpStream::connect(addr).unwrap());
    assert_eq!(client.roundtrip("out 0"), "1");
    // SHUTDOWN answers `draining`, ends this session, and stops the
    // accept loop; run() returns once the drain completes.
    assert_eq!(client.roundtrip("SHUTDOWN"), "draining");
    run.join().expect("run thread").expect("clean drain exit");
    // The listener is gone with the server: fresh connections are refused
    // (or connect and die unanswered, depending on backlog timing).
    match std::net::TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            use std::io::{Read, Write};
            let _ = stream.write_all(b"PING\n");
            let mut reply = String::new();
            let _ = stream.read_to_string(&mut reply);
            assert_eq!(reply, "", "a drained server must not serve new sessions");
        }
    }
}
