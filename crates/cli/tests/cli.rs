//! End-to-end tests of the `grepair` binary: the CLI must answer hostile
//! input (bad files, out-of-range ids) with clean errors — exit code ≠ 0
//! and a message, never a panic — and the compress/decompress map pipeline
//! must round-trip original node labels.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

use grepair_util::tmp::TempPath;

thread_local! {
    /// This test's scratch directory. The test harness runs every test on
    /// its own thread, so tests never share (or rewrite) each other's
    /// fixtures, and the directory goes when the test's thread exits.
    static SCRATCH: TempPath = TempPath::new("grepair_cli", "");
}

/// A path inside this test's scratch directory.
fn scratch(name: &str) -> PathBuf {
    SCRATCH.with(|dir| {
        std::fs::create_dir_all(dir).unwrap();
        dir.join(name)
    })
}

fn grepair(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grepair"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn assert_clean_failure(out: &Output, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what}: expected failure, got success");
    assert!(
        !stderr.contains("panicked"),
        "{what}: must not panic:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{what}: stderr must mention {needle:?}:\n{stderr}"
    );
}

/// Compress a small two-label path graph, returning the .g2g path.
fn compressed_fixture() -> String {
    let input = scratch("fixture.txt");
    let g2g = scratch("fixture.g2g");
    let mut text = String::new();
    for i in 0..20u32 {
        text.push_str(&format!("{} 0 {}\n{} 1 {}\n", 2 * i, 2 * i + 1, 2 * i + 1, 2 * i + 2));
    }
    std::fs::write(&input, text).unwrap();
    let out = grepair(&["compress", input.to_str().unwrap(), "-o", g2g.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    g2g.to_str().unwrap().to_string()
}

#[test]
fn out_of_range_neighbors_is_a_clean_error() {
    let g2g = compressed_fixture();
    // 41 nodes: ids 0..41 are valid, 1000000 is not.
    let out = grepair(&["query", "neighbors", &g2g, "1000000"]);
    assert_clean_failure(&out, "out of range", "out-of-range neighbors");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0..41"), "must name the valid range:\n{stderr}");
    // Same for reach, on both endpoints.
    assert_clean_failure(
        &grepair(&["query", "reach", &g2g, "1000000", "0"]),
        "out of range",
        "out-of-range reach source",
    );
    assert_clean_failure(
        &grepair(&["query", "reach", &g2g, "0", "1000000"]),
        "out of range",
        "out-of-range reach target",
    );
    // In-range queries succeed.
    let ok = grepair(&["query", "neighbors", &g2g, "0"]);
    assert!(ok.status.success());
}

#[test]
fn corrupt_g2g_files_are_clean_errors() {
    let g2g = compressed_fixture();
    let bytes = std::fs::read(&g2g).unwrap();
    // Truncations at several offsets, including inside the header.
    for (i, keep) in [0usize, 4, 11, 12, bytes.len() / 2, bytes.len() - 1]
        .into_iter()
        .enumerate()
    {
        let path = scratch(&format!("trunc_{i}.g2g"));
        std::fs::write(&path, &bytes[..keep.min(bytes.len())]).unwrap();
        for subcmd in [
            vec!["query", "components", path.to_str().unwrap()],
            vec!["decompress", path.to_str().unwrap(), "-o", "/dev/null"],
        ] {
            let out = grepair(&subcmd);
            assert_clean_failure(&out, path.to_str().unwrap(), &format!("truncate at {keep}"));
        }
    }
    // Flipped magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    let path = scratch("badmagic.g2g");
    std::fs::write(&path, &bad).unwrap();
    assert_clean_failure(
        &grepair(&["query", "components", path.to_str().unwrap()]),
        "not a g2g",
        "bad magic",
    );
    // Missing file.
    assert_clean_failure(
        &grepair(&["query", "components", "/nonexistent/x.g2g"]),
        "/nonexistent/x.g2g",
        "missing file",
    );
}

#[test]
fn map_round_trips_non_dense_labels() {
    // Node labels are sparse and out of order on purpose.
    let input = scratch("sparse.txt");
    std::fs::write(&input, "700 13\n13 9000\n9000 42\n42 700\n700 9000\n").unwrap();
    let g2g = scratch("sparse.g2g");
    let map = scratch("sparse.map");
    let restored = scratch("sparse_restored.txt");

    let out = grepair(&[
        "compress",
        input.to_str().unwrap(),
        "-o",
        g2g.to_str().unwrap(),
        "--map",
        map.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = grepair(&[
        "decompress",
        g2g.to_str().unwrap(),
        "-o",
        restored.to_str().unwrap(),
        "--map",
        map.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let edges = |text: &str| -> BTreeSet<(u64, u64)> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let mut it = l.split_whitespace();
                (it.next().unwrap().parse().unwrap(), it.next().unwrap().parse().unwrap())
            })
            .collect()
    };
    let original = edges(&std::fs::read_to_string(&input).unwrap());
    let round_tripped = edges(&std::fs::read_to_string(&restored).unwrap());
    assert_eq!(original, round_tripped, "labels must survive the round trip");
}

#[test]
fn serve_file_answers_a_mixed_stream() {
    let g2g = compressed_fixture();
    let queries = scratch("queries.txt");
    std::fs::write(
        &queries,
        "# a comment and a blank line are skipped\n\n\
         out 0\n\
         in 2\n\
         neighbors 1\n\
         reach 0 40\n\
         reach 40 0\n\
         rpq 5 5 0*\n\
         components\n\
         degrees\n\
         out 99999\n\
         frobnicate 1\n\
         reach 0 40\n",
    )
    .unwrap();
    let out = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "serve-file should keep serving:\n{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 11, "one answer per query line:\n{stdout}");
    assert_eq!(lines[3], "true", "reach 0 40");
    assert_eq!(lines[4], "false", "reach 40 0");
    assert_eq!(lines[5], "true", "rpq 5 5 matches the empty word of 0*");
    assert_eq!(lines[6], "1", "one component");
    assert!(lines[8].starts_with("error:"), "out-of-range mid-stream: {}", lines[8]);
    assert!(lines[8].contains("out of range"), "{}", lines[8]);
    assert!(lines[9].starts_with("error:"), "unknown verb mid-stream: {}", lines[9]);
    assert_eq!(lines[10], "true", "serving continues after errors");
    assert!(stderr.contains("served 11 queries (2 errors)"), "{stderr}");
}

#[test]
fn serve_file_streams_identically_across_batch_and_thread_settings() {
    // The same mixed stream (interleaved parse errors, out-of-range ids,
    // duplicates) must produce byte-identical stdout whether it is answered
    // in one big batch, streamed in tiny chunks, or fanned out over worker
    // threads.
    let g2g = compressed_fixture();
    let queries = scratch("stream_queries.txt");
    let mut text = String::new();
    for i in 0..200u64 {
        match i % 7 {
            0 => text.push_str(&format!("out {}\n", i % 41)),
            1 => text.push_str(&format!("in {}\n", (i * 3) % 41)),
            2 => text.push_str(&format!("reach {} {}\n", i % 41, (i * 5) % 41)),
            3 => text.push_str(&format!("rpq {} {} 0* 1*\n", i % 41, (i * 11) % 41)),
            4 => text.push_str("# interleaved comment\n\n"),
            5 => text.push_str(&format!("out {}\n", 1000 + i)), // out of range
            _ => text.push_str("bogus verb\n"),                 // parse error
        }
    }
    std::fs::write(&queries, text).unwrap();
    let baseline = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(baseline.status.success());
    let expected = String::from_utf8_lossy(&baseline.stdout).to_string();
    assert!(!expected.is_empty());
    for extra in [
        &["--batch", "7"][..],
        &["--batch", "1"][..],
        &["--threads", "4"][..],
        &["--batch", "16", "--threads", "3"][..],
        &["--threads", "0"][..], // auto: one worker per core
    ] {
        let mut args = vec!["store", "serve-file", &g2g, queries.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = grepair(&args);
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "answers must not depend on {extra:?}"
        );
    }
}

#[test]
fn store_serve_speaks_the_same_bytes_as_serve_file() {
    // The real binary end to end: `store serve` on an ephemeral loopback
    // port must answer a mixed query file byte-identically to
    // `store serve-file`, and the admin plane must hot-reload without
    // dropping the connection (DESIGN.md §6).
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let g2g = compressed_fixture();
    let queries = scratch("serve_socket_queries.txt");
    let mut text = String::from("# all classes, with per-line errors\n\n");
    for i in 0..120u64 {
        match i % 6 {
            0 => text.push_str(&format!("out {}\n", i % 41)),
            1 => text.push_str(&format!("neighbors {}\n", (i * 3) % 41)),
            2 => text.push_str(&format!("reach {} {}\n", i % 41, (i * 5) % 41)),
            3 => text.push_str(&format!("rpq {} {} 0* 1*\n", i % 41, (i * 11) % 41)),
            4 => text.push_str(&format!("in {}\n", 1000 + i)), // out of range
            _ => text.push_str("bogus verb\n"),                // parse error
        }
    }
    text.push_str("components\ndegrees\n");
    std::fs::write(&queries, &text).unwrap();

    let offline = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(offline.status.success());
    let expected = String::from_utf8_lossy(&offline.stdout).to_string();

    let mut server = Command::new(env!("CARGO_BIN_EXE_grepair"))
        .args(["store", "serve", &g2g, "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("server starts");
    // First stdout line announces the bound ephemeral port.
    let mut banner = String::new();
    BufReader::new(server.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    assert!(banner.starts_with("listening "), "{banner:?}");
    assert!(banner.contains("proto=3") && banner.contains("namespaces=1"), "{banner:?}");
    assert!(banner.contains("generation=1"), "{banner:?}");
    let addr = banner.split_whitespace().nth(1).expect("addr in banner").to_string();

    let result = std::panic::catch_unwind(|| {
        // Byte-identity: stream the file, half-close, drain.
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(text.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut got = String::new();
        stream.read_to_string(&mut got).unwrap();
        assert_eq!(got, expected, "socket vs serve-file");

        // Admin plane on a second, interactive connection.
        let stream = TcpStream::connect(&addr).expect("connect admin");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut roundtrip = |line: &str| -> String {
            writer.write_all(line.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply.trim_end().to_string()
        };
        assert_eq!(roundtrip("PING"), "pong");
        assert!(roundtrip("INFO").contains("generation=1"));
        assert_eq!(roundtrip("out 0"), "1");
        // Bare RELOAD re-reads the serving .g2g (the configured path).
        assert!(roundtrip("RELOAD").starts_with("reloaded generation=2"));
        assert!(roundtrip("STATS default").starts_with("generation=2 "));
        assert!(roundtrip("STATS").starts_with("namespaces=1 resident=1 "), "aggregate form");
        assert_eq!(roundtrip("out 0"), "1", "same connection, new generation");
        assert_eq!(roundtrip("QUIT"), "bye");
    });
    let _ = server.kill();
    let _ = server.wait();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn serve_file_survives_hostile_bytes_and_missing_final_newline() {
    // serve-file runs the same session engine as the socket server: a
    // non-UTF-8 line and an oversized line become error replies (they used
    // to abort the old read_line loop), and an unterminated final line
    // still counts (file input is line-oriented — DESIGN.md §6.1).
    let g2g = compressed_fixture();
    let queries = scratch("hostile_serve_queries.txt");
    let mut bytes: Vec<u8> = Vec::new();
    bytes.extend_from_slice(b"out 0\n");
    bytes.extend_from_slice(b"\xff\xfe not text\n");
    bytes.extend_from_slice(&vec![b'a'; 100_000]);
    bytes.extend_from_slice(b"\nreach 0 40"); // no trailing newline
    std::fs::write(&queries, bytes).unwrap();
    let out = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert_eq!(lines[0], "1");
    assert!(lines[1].contains("not valid UTF-8"), "{stdout}");
    assert!(lines[2].contains("exceeds"), "{stdout}");
    assert_eq!(lines[3], "true", "unterminated final line still answered");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("served 4 queries (2 errors)"), "{stderr}");
}

#[test]
fn serve_file_speaks_the_admin_plane_and_flags_a_mid_file_quit() {
    let g2g = compressed_fixture();
    let queries = scratch("admin_serve_queries.txt");
    std::fs::write(&queries, "out 0\nSTATS\nQUIT\nout 1\nout 2\n# not a request\n").unwrap();
    let out = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "QUIT ends the session:\n{stdout}");
    assert_eq!(lines[0], "1");
    assert!(lines[1].starts_with("namespaces=1 resident=1 "), "{stdout}");
    assert_eq!(lines[2], "bye");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("warning: QUIT left 2 request lines unanswered"),
        "truncation must be visible:\n{stderr}"
    );
}

#[test]
fn multi_tenant_serve_file_and_socket_serve_stay_byte_identical() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let default_g2g = compressed_fixture();
    // A second tenant: a shorter single-label path, separately compressed.
    let input = scratch("tenant.txt");
    let tenant_g2g = scratch("tenant.g2g");
    let text: String = (0..10u32).map(|i| format!("{i} 0 {}\n", i + 1)).collect();
    std::fs::write(&input, text).unwrap();
    let out = grepair(&["compress", input.to_str().unwrap(), "-o", tenant_g2g.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let attach = format!("t={}", tenant_g2g.display());

    // A workload that crosses namespaces per line (`t:` prefixes), switches
    // the session namespace (`USE t`), and reads both STATS forms.
    let queries = scratch("mt_queries.txt");
    let workload = "out 0\nt:out 0\nLIST\nt:components\ncomponents\n\
                    t:out 99999\nUSE t\ndegrees\nSTATS t\nSTATS\n";
    std::fs::write(&queries, workload).unwrap();

    let offline = grepair(&[
        "store", "serve-file", &default_g2g, queries.to_str().unwrap(), "--attach", &attach,
    ]);
    assert!(offline.status.success(), "{}", String::from_utf8_lossy(&offline.stderr));
    let expected = String::from_utf8_lossy(&offline.stdout).to_string();
    assert_eq!(expected.lines().count(), 10, "one reply per request line:\n{expected}");

    let mut server = Command::new(env!("CARGO_BIN_EXE_grepair"))
        .args(["store", "serve", &default_g2g, "--addr", "127.0.0.1:0", "--attach", &attach])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("server starts");
    let mut banner = String::new();
    BufReader::new(server.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    assert!(banner.contains("namespaces=2"), "{banner:?}");
    let addr = banner.split_whitespace().nth(1).expect("addr in banner").to_string();

    let result = std::panic::catch_unwind(|| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(workload.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut got = String::new();
        stream.read_to_string(&mut got).unwrap();
        assert_eq!(got, expected, "multi-tenant socket vs serve-file");
    });
    let _ = server.kill();
    let _ = server.wait();
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn store_serve_rejects_broken_setup() {
    assert_clean_failure(
        &grepair(&["store", "serve", "/nonexistent/x.g2g"]),
        "/nonexistent/x.g2g",
        "missing store",
    );
    let g2g = compressed_fixture();
    assert_clean_failure(
        &grepair(&["store", "serve", &g2g, "--prot", "80"]),
        "--prot",
        "typoed flag",
    );
    assert_clean_failure(
        &grepair(&["store", "serve", &g2g, "--batch", "0"]),
        "--batch",
        "zero batch",
    );
    assert_clean_failure(
        &grepair(&["store", "serve", &g2g, "--addr", "999.999.999.999:1"]),
        "bind",
        "unbindable address",
    );
}

#[test]
fn serve_file_rejects_broken_setup() {
    let g2g = compressed_fixture();
    let queries = scratch("setup_queries.txt");
    std::fs::write(&queries, "out 0\n").unwrap();
    // Bad store command.
    assert_clean_failure(&grepair(&["store", "frobnicate"]), "unknown store command", "verb");
    // Missing queries file.
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, "/nonexistent/q.txt"]),
        "/nonexistent/q.txt",
        "missing queries",
    );
    // Corrupt store file.
    let path = scratch("setup_corrupt.g2g");
    std::fs::write(&path, b"G2G1 nope").unwrap();
    assert_clean_failure(
        &grepair(&["store", "serve-file", path.to_str().unwrap(), queries.to_str().unwrap()]),
        path.to_str().unwrap(),
        "corrupt store",
    );
    // Bad batch size.
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap(), "--batch", "0"]),
        "--batch",
        "zero batch",
    );
    // Typoed or value-less flags are usage errors, not silent no-ops.
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap(), "--bacth", "64"]),
        "--bacth",
        "typoed flag",
    );
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap(), "--batch"]),
        "needs a value",
        "value-less flag",
    );
    // Malformed --threads.
    assert_clean_failure(
        &grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap(), "--threads", "lots"]),
        "--threads",
        "non-numeric threads",
    );
}

#[test]
fn unknown_backend_is_a_usage_error_naming_the_registry() {
    let input = scratch("backend_usage.txt");
    std::fs::write(&input, "0 1\n1 2\n").unwrap();
    let out = grepair(&[
        "compress",
        input.to_str().unwrap(),
        "-o",
        scratch("backend_usage.g2g").to_str().unwrap(),
        "--backend",
        "zpaq",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Exit 2 (usage), not 1 (run failure) — mirroring repro's unknown-flag
    // contract — and the error must teach the registered names.
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("zpaq"), "{stderr}");
    assert!(stderr.contains("grepair, k2, lm, hn"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    // Grammar-only flags on another backend are usage errors too.
    let out = grepair(&[
        "compress",
        input.to_str().unwrap(),
        "-o",
        scratch("backend_usage2.g2g").to_str().unwrap(),
        "--backend",
        "k2",
        "--max-rank",
        "6",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--max-rank"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // An `=`-style flag must not silently select the default backend.
    let out = grepair(&[
        "compress",
        input.to_str().unwrap(),
        "-o",
        scratch("backend_usage3.g2g").to_str().unwrap(),
        "--backend=k2",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--backend=k2"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn every_backend_compresses_decompresses_and_serves() {
    // One unlabeled path graph through all four backends: compress writes
    // a loadable container, decompress restores the edge set, and
    // serve-file answers the same queries (modulo the grammar backend's
    // node renumbering, which is why the workload below is id-symmetric:
    // path endpoints are detected structurally on the decompressed side).
    let input = scratch("multi_backend.txt");
    let mut text = String::new();
    for i in 0..30u32 {
        text.push_str(&format!("{} {}\n", i, i + 1));
    }
    std::fs::write(&input, &text).unwrap();

    for backend in ["grepair", "k2", "lm", "hn"] {
        let g2g = scratch(&format!("multi_{backend}.c"));
        let out = grepair(&[
            "compress",
            input.to_str().unwrap(),
            "-o",
            g2g.to_str().unwrap(),
            "--backend",
            backend,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{backend} compress: {stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(&format!("backend {backend}")),
            "{backend}"
        );

        // Decompress restores the 30-edge path (ids may differ for grepair).
        let restored = scratch(&format!("multi_{backend}_restored.txt"));
        let out = grepair(&[
            "decompress",
            g2g.to_str().unwrap(),
            "-o",
            restored.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{backend} decompress");
        let lines = std::fs::read_to_string(&restored).unwrap().lines().count();
        assert_eq!(lines, 30, "{backend} edge count");

        // serve-file: neighbors end to end, plus a mid-stream error.
        let queries = scratch(&format!("multi_{backend}_queries.txt"));
        std::fs::write(&queries, "components\ndegrees\nout 99999\nreach 0 0\n").unwrap();
        let out = grepair(&["store", "serve-file", g2g.to_str().unwrap(), queries.to_str().unwrap()]);
        assert!(out.status.success(), "{backend} serve-file");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines[0], "1", "{backend}: one component");
        assert_eq!(lines[1], "min=1 max=2", "{backend}: path degrees");
        assert!(lines[2].contains("out of range"), "{backend}: {stdout}");
        assert_eq!(lines[3], "true", "{backend}: reflexive reach");
    }
}

/// A four-node k2 path `0 -> 1 -> 2 -> 3` (the k2 codec keeps input node
/// ids, so versioning tests can name concrete nodes), compressed to `name`.
fn k2_path_fixture(name: &str) -> String {
    let input = scratch(&format!("{name}.txt"));
    std::fs::write(&input, "0 0 1\n1 0 2\n2 0 3\n").unwrap();
    let g2g = scratch(&format!("{name}.k2"));
    let out = grepair(&[
        "compress", input.to_str().unwrap(), "-o", g2g.to_str().unwrap(), "--backend", "k2",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    g2g.to_str().unwrap().to_string()
}

#[test]
fn store_patch_and_versions_replay_a_patch_file_offline() {
    let g2g = k2_path_fixture("offline_patch");
    let patches = scratch("offline_patch_list.txt");
    std::fs::write(&patches, "# close the cycle, drop the first hop\nADD 3 0 0\n\nDEL 0 0 1\n")
        .unwrap();

    // Dry run: one line, exactly the wire protocol's VERSIONS reply.
    let out = grepair(&["store", "versions", &g2g, patches.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim_end(),
        "versions=3 head=v2 v0=+0-0 v1=+1-0 v2=+1-1"
    );

    // Real run: materialize the head and recompress with the input's own
    // backend, then query the written container.
    let patched = scratch("offline_patched.k2");
    let out = grepair(&[
        "store", "patch", &g2g, patches.to_str().unwrap(), "-o", patched.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("backend k2"), "{stdout}");
    assert!(stdout.contains("v2 materialized"), "{stdout}");
    assert!(stdout.contains("+1-1"), "{stdout}");
    // Edges are now 1->2, 2->3, 3->0: reachability flips accordingly.
    let out = grepair(&["query", "reach", patched.to_str().unwrap(), "2", "0"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), "reachable");
    let out = grepair(&["query", "reach", patched.to_str().unwrap(), "0", "2"]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), "not reachable");

    // A rejected patch aborts the replay with the file position, and
    // nothing is written.
    let bad = scratch("offline_bad_patches.txt");
    std::fs::write(&bad, "ADD 3 0 0\nDEL 9 9 9\n").unwrap();
    let missing = scratch("offline_never_written.k2");
    let out = grepair(&[
        "store", "patch", &g2g, bad.to_str().unwrap(), "-o", missing.to_str().unwrap(),
    ]);
    assert_clean_failure(&out, ":2:", "rejected patch line");
    assert!(!missing.exists(), "a failed replay must not write output");
}

#[test]
fn serve_file_patches_and_time_travels() {
    // The full versioning surface through the offline front end: PATCH,
    // VERSIONS, and `@vN` pinned queries — plus the parity check that the
    // `store versions` dry run prints the same listing the session renders
    // after the same patches.
    let g2g = k2_path_fixture("serve_versioned");
    let queries = scratch("serve_versioned_queries.txt");
    std::fs::write(
        &queries,
        "VERSIONS\nPATCH ADD 3 0 0\nreach 3 1\nreach 3 1 @v0\nPATCH DEL 0 0 1\n\
         reach 0 2\nreach 0 2 @v1\nreach 0 2 @v0\nout 0 @v9\nVERSIONS\n",
    )
    .unwrap();
    let out = grepair(&["store", "serve-file", &g2g, queries.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 10, "{stdout}");
    assert_eq!(lines[0], "versions=1 head=v0 v0=+0-0");
    assert_eq!(lines[1], "patched version=1 generation=2 added=1 removed=0");
    assert_eq!(lines[2], "true", "head sees the new 3->0 edge");
    assert_eq!(lines[3], "false", "@v0 still serves the base");
    assert_eq!(lines[4], "patched version=2 generation=3 added=1 removed=1");
    assert_eq!(lines[5], "false", "head lost the 0->1 hop");
    assert_eq!(lines[6], "true", "@v1 still has it");
    assert_eq!(lines[7], "true", "@v0 too");
    assert!(lines[8].contains("unknown version v9"), "{stdout}");
    assert_eq!(lines[9], "versions=3 head=v2 v0=+0-0 v1=+1-0 v2=+1-1");

    // Dry-run parity: `store versions` over the equivalent patch file
    // prints byte-for-byte the session's final VERSIONS reply.
    let patches = scratch("serve_versioned_patches.txt");
    std::fs::write(&patches, "ADD 3 0 0\nDEL 0 0 1\n").unwrap();
    let out = grepair(&["store", "versions", &g2g, patches.to_str().unwrap()]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim_end(), lines[9]);
}

#[test]
fn decompress_rejects_bad_flags_and_map_files() {
    let g2g = compressed_fixture();
    let out_path = scratch("rejects_out.txt");
    let out_str = out_path.to_str().unwrap();
    // Unknown flag.
    assert_clean_failure(
        &grepair(&["decompress", &g2g, "-o", out_str, "--mpa", "x"]),
        "--mpa",
        "typoed --map",
    );
    // Map file with extra columns.
    let bad_map = scratch("bad_columns.map");
    std::fs::write(&bad_map, "0 5 7\n").unwrap();
    assert_clean_failure(
        &grepair(&["decompress", &g2g, "-o", out_str, "--map", bad_map.to_str().unwrap()]),
        "trailing token",
        "three-column map",
    );
    // Map file with a duplicate derived id.
    let dup_map = scratch("dup.map");
    std::fs::write(&dup_map, "0 5\n0 6\n").unwrap();
    assert_clean_failure(
        &grepair(&["decompress", &g2g, "-o", out_str, "--map", dup_map.to_str().unwrap()]),
        "duplicate mapping",
        "duplicate map line",
    );
    // Map file missing ids.
    let sparse_map = scratch("missing.map");
    std::fs::write(&sparse_map, "0 5\n").unwrap();
    assert_clean_failure(
        &grepair(&["decompress", &g2g, "-o", out_str, "--map", sparse_map.to_str().unwrap()]),
        "no mapping",
        "incomplete map",
    );
}
