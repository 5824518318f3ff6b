//! Partial-frame torture: the epoll front end must answer byte-identically
//! to thread mode no matter how hostile or multi-tenant request streams are
//! sliced across writes — 1-byte dribble, mid-UTF-8 splits, mid-oversized
//! splits, mid-line close — and no slicing may wedge a connection
//! (DESIGN.md §11).
//!
//! Ground truth for every stream is the thread-per-connection server fed
//! the whole stream at once (itself pinned byte-identical to serve-file by
//! the existing suites); the epoll server then gets the same bytes under
//! every split schedule, with inter-chunk gaps long enough to force
//! separate `read(2)`s through the reactor.
//!
//! Linux-only, like the reactor itself.
#![cfg(target_os = "linux")]

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use common::{g2g, send_and_drain, TestServer};
use grepair_server::{IoMode, ServerConfig};
use grepair_util::tmp::TempPath;
use proptest::prelude::*;

/// Pause between chunks: long enough that the reactor's level-triggered
/// loop consumes each chunk in its own wakeup, short enough that a full
/// all-boundaries sweep stays fast.
const GAP: Duration = Duration::from_millis(2);

/// Send `input` to `addr` sliced into `chunks`-sized writes (cycled until
/// the stream is exhausted), half-close, and drain every reply byte. A
/// read timeout turns a wedged connection into a loud failure instead of
/// a hung test.
fn replies_chunked(addr: SocketAddr, input: &[u8], chunks: &[usize]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut sent = 0;
    let mut schedule = chunks.iter().copied().cycle();
    while sent < input.len() {
        let len = schedule.next().expect("non-empty schedule").max(1);
        let end = (sent + len).min(input.len());
        stream.write_all(&input[sent..end]).expect("send chunk");
        sent = end;
        if sent < input.len() {
            std::thread::sleep(GAP);
        }
    }
    // The server may already have closed (QUIT as the final line), which
    // makes the half-close racy — not an error worth failing over.
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = String::new();
    match stream.read_to_string(&mut out) {
        Ok(_) => out,
        Err(e) => panic!("connection wedged under schedule {chunks:?}: {e}"),
    }
}

/// One twin pair: a thread-mode and an epoll-mode server over identical
/// stores, each with a cold `t1` tenant so multi-tenant streams exercise
/// namespace routing on both.
struct Twins {
    threads: TestServer,
    epoll: TestServer,
    /// The tenant container; removed when the twins drop.
    _tenant: TempPath,
}

impl Twins {
    fn start() -> Self {
        let tenant = TempPath::new("grepair_frames_t1", ".g2g");
        std::fs::write(&tenant, g2g(4)).expect("write tenant container");
        let threads = TestServer::start_with(8, None, ServerConfig::default());
        let epoll = TestServer::start_with(
            8,
            None,
            ServerConfig { io: IoMode::Epoll, ..ServerConfig::default() },
        );
        for server in [&threads, &epoll] {
            server
                .registry
                .attach_cold("t1", tenant.as_str())
                .expect("attach tenant");
        }
        Self { threads, epoll, _tenant: tenant }
    }

    /// Assert the epoll server answers `input` under `chunks` exactly as
    /// the thread server answers it whole.
    fn assert_identical(&self, input: &[u8], chunks: &[usize]) {
        let expected = send_and_drain(self.threads.addr, input);
        let got = replies_chunked(self.epoll.addr, input, chunks);
        assert_eq!(
            got,
            expected,
            "epoll diverged from thread mode under schedule {chunks:?} for {:?}",
            String::from_utf8_lossy(&input[..input.len().min(120)]),
        );
    }
}

/// Every reply class the protocol has, in streams small enough to split at
/// every byte boundary. (Stateful admin verbs — ATTACH, RELOAD, SHUTDOWN —
/// are excluded: they mutate the *server*, so replay under many schedules
/// against one server would diverge for reasons unrelated to framing.
/// Their split behavior is covered by the session engine being shared.)
fn corpus() -> Vec<Vec<u8>> {
    let mut streams: Vec<Vec<u8>> = vec![
        // Answers, errors, unparsable ids, garbage, unicode.
        b"out 0\nreach 0 16\nbogus 7\nout 99999999999999999999999999\nreach 0\n!!!!\n".to_vec(),
        // Non-UTF-8 bytes mid-stream; serving continues after.
        [&b"\xff\xfe\xfd\n"[..], &[0u8, 1, 2, 255, b'\n'], b"out 0\n"].concat(),
        // CRLF clients, comments, blank lines (skipped, no reply).
        b"out 0\r\n\r\n# comment\r\nPING\r\ndegrees\n".to_vec(),
        // Multi-tenant: one-shot prefix, USE, INFO reflecting namespace,
        // unknown-namespace error, prefix with leading space after colon.
        b"t1:out 0\nUSE t1\nout 0\nINFO\nUSE default\nnope:out 0\nt1: reach 0 8\n".to_vec(),
        // QUIT as the stream's last line (a tail *after* QUIT would race
        // the server's close with the client's remaining writes — an RST,
        // not a framing question; post-QUIT suppression is pinned by the
        // conn unit tests instead).
        b"out 0\nPING\nQUIT\n".to_vec(),
        // Mid-line close: the partial tail is discarded silently.
        b"out 0\nreach 0 16\nout 1".to_vec(),
        // Hostile ids at the u64 edges.
        b"out 18446744073709551615\nreach 0 1099511627776\nrpq 0 1 0 1\n".to_vec(),
        // A torn multi-byte UTF-8 char is only decodable once reassembled.
        "caf\u{e9} nope\n\u{1F980} crab\nout 0\n".as_bytes().to_vec(),
    ];
    // Oversized line (just past the 64 KiB cap), then resync on a newline.
    let mut oversized = vec![b'a'; 70_000];
    oversized.push(b'\n');
    oversized.extend_from_slice(b"reach 0 1\n");
    streams.push(oversized);
    streams
}

#[test]
fn every_boundary_split_is_byte_identical_to_thread_mode() {
    let twins = Twins::start();
    for input in corpus() {
        // Whole-stream sanity first.
        twins.assert_identical(&input, &[input.len()]);
        if input.len() <= 96 {
            // All two-chunk boundary splits, including mid-UTF-8 and
            // mid-line ones.
            for split in 1..input.len() {
                twins.assert_identical(&input, &[split, input.len() - split]);
            }
            // Full 1-byte dribble: every line arrives one read at a time.
            twins.assert_identical(&input, &[1]);
        } else {
            // Long streams (the oversized line): splits landing before,
            // inside, and after the discard window, plus a coarse dribble.
            let n = input.len();
            for schedule in [
                vec![1, n - 1],
                vec![n / 2, n - n / 2],
                vec![65_536, n - 65_536],
                vec![69_999, 1, n - 70_000],
                vec![1_000],
                vec![13],
            ] {
                twins.assert_identical(&input, &schedule);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random multi-chunk schedules over random corpus streams: whatever
    /// the slicing, epoll answers byte-for-byte what thread mode answers,
    /// and nothing wedges.
    #[test]
    fn random_chunk_schedules_are_byte_identical_to_thread_mode(
        stream_index in 0usize..9,
        chunks in proptest::collection::vec(1usize..48, 1..10),
    ) {
        let twins = Twins::start();
        let corpus = corpus();
        let input = &corpus[stream_index % corpus.len()];
        // Scale tiny schedules up for the oversized stream so a case
        // cannot take thousands of 2 ms gaps.
        let chunks: Vec<usize> = if input.len() > 1_000 {
            chunks.iter().map(|c| c * 4_096).collect()
        } else {
            chunks
        };
        let expected = send_and_drain(twins.threads.addr, input);
        let got = replies_chunked(twins.epoll.addr, input, &chunks);
        prop_assert_eq!(got, expected);
    }
}
