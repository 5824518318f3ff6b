//! Serving-path measurement for the machine-readable bench trajectory.
//!
//! `repro --queries` calls [`measure_store_serving`] and writes the result
//! as `BENCH_store.json` (via [`render_store_bench_json`]) at the
//! repository root, where CI checks it and successive PRs can diff it. The
//! workload mirrors `benches/store.rs`: one loaded [`GraphStore`] answering
//! a 10k mixed batch, measured per query class, batched vs individual, and
//! fanned out over 1/2/4/8 worker threads.

use std::time::Instant;

use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::Hypergraph;
use grepair_server::WorkerPool;
use grepair_store::{write_container, GraphStore, Query};

use crate::Scale;

/// Thread counts the scaling sweep measures.
pub const SCALING_THREADS: [usize; 4] = [1, 2, 4, 8];

/// One compression backend's size and serving-latency measurement — the
/// paper's Table-style comparison (space *and* query cost per
/// representation), live against the real serving stack.
#[derive(Debug, Clone)]
pub struct BackendBenchRow {
    /// Registered backend name (`grepair`, `k2`, `lm`, `hn`).
    pub name: &'static str,
    /// Whole container file size in bytes (header included — what a
    /// deployment ships).
    pub container_bytes: usize,
    /// Container bits per edge of the measured graph.
    pub bits_per_edge: f64,
    /// Mean ns per one-shot `neighbors` query through the loaded store.
    pub neighbors_ns: f64,
    /// Mean ns per one-shot `reach` query.
    pub reach_ns: f64,
}

/// One hosted tenant's measured row: container size on disk, and the
/// cold-open latency the first query after an eviction pays (load + index
/// from the container file, the transparently-amortized cache-miss cost of
/// `--memory-budget`).
#[derive(Debug, Clone)]
pub struct TenantBenchRow {
    /// Namespace name inside the measuring registry.
    pub name: String,
    /// Container file size in bytes — the currency `--memory-budget`
    /// accounts in.
    pub container_bytes: u64,
    /// Best-of-laps ns for a cold `StoreRegistry::store` resolve (open +
    /// index) after the namespace was evicted.
    pub cold_open_ns: f64,
}

/// The multi-tenant hosting measurement (DESIGN.md §8): several containers
/// behind one registry whose memory budget is below their combined size,
/// so the LRU policy must evict and transparently reopen.
#[derive(Debug, Clone)]
pub struct TenancyReport {
    /// The resident-byte cap the registry ran under.
    pub budget_bytes: u64,
    /// Sum of every tenant's container bytes — deliberately over budget.
    pub combined_bytes: u64,
    /// Evictions the budget forced over the whole measurement.
    pub evictions: u64,
    /// Cold opens (first-touch and evicted-then-reopened) over the run.
    pub cold_opens: u64,
    /// Resident container bytes when the measurement finished.
    pub resident_bytes: u64,
    /// Per-tenant size and cold-open rows.
    pub tenants: Vec<TenantBenchRow>,
}

/// Everything `BENCH_store.json` records, in measurement units of
/// nanoseconds (floats: per-query numbers are means).
#[derive(Debug, Clone)]
pub struct StoreBenchReport {
    /// `"quick"` or `"full"`.
    pub scale: &'static str,
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// readers must interpret the scaling factor relative to this.
    pub threads_available: usize,
    /// Mean ns per one-shot query, per query class.
    pub class_ns: Vec<(&'static str, f64)>,
    /// Whole 10k mixed batch through `query_batch`, ns.
    pub batch_sequential_ns: f64,
    /// The same 10k queries one `query` call at a time, ns.
    pub batch_individual_ns: f64,
    /// `(threads, whole-batch ns)` through `query_batch_on` over a
    /// resident `WorkerPool` of that many threads.
    pub thread_scaling: Vec<(usize, f64)>,
    /// Per-backend size + query latency over one shared unlabeled graph.
    pub backends: Vec<BackendBenchRow>,
    /// Multi-tenant hosting under a memory budget (schema 3).
    pub tenancy: TenancyReport,
    /// Degradation-under-fault measurement (schema 4, DESIGN.md §10).
    pub resilience: ResilienceReport,
    /// Connection-scale measurement of the epoll front end (schema 5,
    /// DESIGN.md §11).
    pub connections: ConnectionsReport,
    /// Delta-layer versioning measurement (schema 6, DESIGN.md §12).
    pub versioning: VersioningReport,
}

/// The `versioning` block (schema 6): patch-apply latency, the overlay's
/// head-vs-base query cost, and the overlay-size crossover — what it costs
/// to keep serving through the delta layer versus recompressing the
/// materialized head from scratch (DESIGN.md §12). The workload is the
/// paper's version-graph story made incremental: a co-authorship history's
/// year-over-year new edges applied as `PATCH ADD` records to the year-0
/// snapshot.
#[derive(Debug, Clone)]
pub struct VersioningReport {
    /// Retained versions after the replay (head version + 1).
    pub versions: u64,
    /// Added-edge records in the head overlay.
    pub overlay_added: u64,
    /// Removed-edge records in the head overlay.
    pub overlay_removed: u64,
    /// Mean ns per applied patch (validate + overlay clone + swap).
    pub patch_apply_ns: f64,
    /// Mean ns per `out`-neighbors query on the patched head (base answer
    /// ⊕ overlay correction).
    pub head_neighbors_ns: f64,
    /// Mean ns per the same query pinned `@v0` (the raw base container).
    pub v0_neighbors_ns: f64,
    /// Mean ns per the same query on a from-scratch recompression of the
    /// materialized head — the overlay-free floor.
    pub recompressed_neighbors_ns: f64,
    /// One-off ns to materialize the head and recompress it — what the
    /// overlay defers (`RELOAD`-rebase or `store patch` pays it once).
    pub recompress_ns: f64,
}

impl VersioningReport {
    /// Head query cost over the overlay-free floor: how much the delta
    /// layer taxes serving. When this drifts far above 1, the overlay has
    /// crossed over and a rebase (recompress + `RELOAD`) pays for itself.
    pub fn overlay_tax(&self) -> f64 {
        if self.recompressed_neighbors_ns <= 0.0 {
            return 0.0;
        }
        self.head_neighbors_ns / self.recompressed_neighbors_ns
    }
}

/// The `connections` block (schema 5): how many idle connections one
/// server holds on a flat thread count, and what serving costs while they
/// are parked — the epoll front end's scaling contract (DESIGN.md §11).
/// `threads_*` come from `/proc/self/status` (the measuring server runs
/// in-process), so they are zero on platforms without procfs, where the
/// flatness claim is vacuous.
#[derive(Debug, Clone)]
pub struct ConnectionsReport {
    /// Front end measured: `"epoll"` on Linux, `"threads"` elsewhere.
    pub io: &'static str,
    /// Idle connections actually parked (the scale target clamped to the
    /// process fd limit — each loopback connection costs two fds here).
    pub connections: u64,
    /// Process thread count before the herd connected.
    pub threads_base: u64,
    /// Process thread count with the whole herd parked.
    pub threads_during: u64,
    /// Process thread count after the throughput burst, herd still parked.
    pub threads_after: u64,
    /// Parked connections proven live (`PING` → `pong`) by sampling.
    pub live_sampled: u64,
    /// Queries in the saturated burst driven over a fresh connection
    /// while the herd stayed parked.
    pub burst_queries: u64,
    /// Client-observed throughput of that burst, queries/second.
    pub burst_qps: f64,
}

impl ConnectionsReport {
    /// Did the thread count stay flat across the soak? Headroom of two
    /// absorbs incidental runtime threads — nothing proportional to the
    /// herd. Vacuously true where procfs is unavailable (all zeros).
    pub fn flat(&self) -> bool {
        self.threads_during <= self.threads_base + 2
            && self.threads_after <= self.threads_base + 2
    }
}

/// The `resilience` block (schema 4): circuit-breaker trip, fast-fail and
/// recovery, watermark load-shedding, and drain latency. Measured against
/// the real registry and a real socket server using *honest* faults — a
/// deleted container file, a one-deep watermark over a one-thread pool, a
/// live `SHUTDOWN` — so the numbers exist in a default build where the
/// `fail` feature's injected faults are compiled out (DESIGN.md §10).
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Breaker trips recorded while the flaky tenant's container was gone.
    pub breaker_trips: u64,
    /// Mean ns per refused resolve while the breaker was open — the fast
    /// per-line refusal that replaces hammering a dead disk.
    pub breaker_fast_fail_ns: f64,
    /// Whether the half-open probe re-admitted the tenant once its
    /// container came back.
    pub breaker_recovered: bool,
    /// Query lines pushed at the deliberately overloaded server.
    pub shed_sent: u64,
    /// How many of those were answered `busy` (shed at the watermark).
    pub shed_busy: u64,
    /// Wall ns from writing `SHUTDOWN` to the accept loop fully drained.
    pub drain_latency_ns: f64,
}

impl ResilienceReport {
    /// Fraction of the overload workload shed with `busy` lines.
    pub fn shed_rate(&self) -> f64 {
        if self.shed_sent == 0 {
            return 0.0;
        }
        self.shed_busy as f64 / self.shed_sent as f64
    }
}

impl StoreBenchReport {
    /// How much batching beats one-at-a-time serving.
    pub fn batch_speedup(&self) -> f64 {
        self.batch_individual_ns / self.batch_sequential_ns
    }

    /// Sequential-batch time over the best parallel time: the headline
    /// thread-scaling factor (≤ ~1 on a single-core machine).
    pub fn scaling_factor(&self) -> f64 {
        let best = self
            .thread_scaling
            .iter()
            .map(|&(_, ns)| ns)
            .fold(f64::INFINITY, f64::min);
        self.batch_sequential_ns / best
    }
}

/// The acceptance workload: 10k mixed queries against one loaded store
/// (shared with `benches/store.rs`). Request popularity is skewed the way
/// real serving traffic is: three quarters of the ids come from a ~61-key
/// hot set (what the batch amortization levers — shared reach sources,
/// shared RPQ product closures, the locate cache, the duplicate memo —
/// exist for), one quarter from a uniform tail that keeps the caches
/// honest.
pub fn mixed_batch(n: u64, len: u64) -> Vec<Query> {
    let hot = |i: u64| ((i % 61) * 2_654_435_761) % n;
    let cold = |i: u64| (i.wrapping_mul(7919) + 13) % n;
    let pick = |i: u64| if i.is_multiple_of(4) { cold(i) } else { hot(i) };
    (0..len)
        .map(|i| match i % 5 {
            0 => Query::OutNeighbors(pick(i)),
            1 => Query::InNeighbors(pick(i + 1)),
            2 => Query::Reach { s: pick(i + 2), t: cold(i) },
            3 => Query::Rpq {
                s: pick(i + 3),
                t: cold(i + 1),
                pattern: if i % 2 == 0 { "0 1".into() } else { "0* 1*".into() },
            },
            _ => Query::Neighbors(pick(i + 4)),
        })
        .collect()
}

/// Render one query as a wire-protocol request line (DESIGN.md §6) — the
/// inverse of `grepair_store::parse_query`, used to drive a live
/// `grepair-server` with the same workloads the in-process benches use.
pub fn query_line(q: &Query) -> String {
    match q {
        Query::OutNeighbors(v) => format!("out {v}"),
        Query::InNeighbors(v) => format!("in {v}"),
        Query::Neighbors(v) => format!("neighbors {v}"),
        Query::Reach { s, t } => format!("reach {s} {t}"),
        Query::Rpq { s, t, pattern } => format!("rpq {s} {t} {pattern}"),
        Query::Components => "components".into(),
        Query::DegreeExtrema => "degrees".into(),
    }
}

fn time_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Best of `n` timed runs — the standard microbenchmark defense against
/// one-off scheduler noise, which matters doubly here because CI asserts a
/// hard threshold on the derived scaling factor.
fn best_of(n: usize, mut f: impl FnMut()) -> f64 {
    (0..n.max(1))
        .map(|_| time_ns(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Measure every registered backend on one shared unlabeled graph: encode
/// size, then neighbors/reach latency through a loaded [`GraphStore`] —
/// the same serving stack the TCP server runs, so the rows are what a
/// deployment choosing a backend would actually see.
pub fn measure_backends(scale: Scale) -> Vec<BackendBenchRow> {
    // An unlabeled path (the lm/hn backends encode unlabeled graphs only):
    // the paper's log-compressibility showcase for the grammar, linear for
    // the baselines — the Fig. 13 story as serving containers.
    let reps = match scale {
        Scale::Full => 16_384u32,
        Scale::Quick => 2_048,
    };
    let (g, _) = Hypergraph::from_simple_edges(
        (reps + 1) as usize,
        (0..reps).map(|i| (i, 0u32, i + 1)),
    );
    let edges = g.num_edges() as u64;
    grepair_store::codecs()
        .iter()
        .map(|codec| {
            let file = codec.encode(&g).expect("path graph encodes in every backend");
            let store = GraphStore::from_bytes(&file).expect("own container loads");
            let n = store.total_nodes();
            let per_class = 1_000u64;
            let neighbor_queries: Vec<u64> = (0..per_class).map(|i| (i * 17) % n).collect();
            for &v in neighbor_queries.iter().take(50) {
                let _ = store.neighbors(v); // warm caches
            }
            let neighbors_ns = time_ns(|| {
                for &v in &neighbor_queries {
                    assert!(store.neighbors(v).is_ok());
                }
            }) / per_class as f64;
            // Reach is BFS-shaped on the baseline backends (O(n) worst
            // case), so the sample is smaller; the grammar answers from
            // its skeleton index.
            let reach_pairs: Vec<(u64, u64)> =
                (0..100u64).map(|i| ((i * 7919) % n, (i * 104_729 + 13) % n)).collect();
            let reach_ns = time_ns(|| {
                for &(s, t) in &reach_pairs {
                    assert!(store.reachable(s, t).is_ok());
                }
            }) / reach_pairs.len() as f64;
            BackendBenchRow {
                name: codec.name(),
                container_bytes: file.len(),
                bits_per_edge: grepair_util::fmt::bits_per_edge(file.len() as u64 * 8, edges),
                neighbors_ns,
                reach_ns,
            }
        })
        .collect()
}

/// Measure multi-tenant hosting: three grammar containers of different
/// sizes behind one [`grepair_store::StoreRegistry`] whose budget is half
/// their combined size. Phase one forces a cold open per resolve (budget
/// of one byte: touching any tenant evicts the rest) to time the
/// evicted-then-reopened path; phase two round-robins real queries under
/// the honest budget so the eviction and cold-open counters reflect
/// steady-state churn.
pub fn measure_multi_tenant(scale: Scale) -> TenancyReport {
    use grepair_store::StoreRegistry;

    let base = match scale {
        Scale::Full => 2_048u32,
        Scale::Quick => 256,
    };
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let names = ["alpha", "beta", "gamma"];
    let mut paths = Vec::new();
    for (i, mult) in [1u32, 2, 4].into_iter().enumerate() {
        let reps = base * mult;
        let (g, _) = Hypergraph::from_simple_edges(
            (2 * reps + 1) as usize,
            (0..reps).flat_map(|r| [(2 * r, 0u32, 2 * r + 1), (2 * r + 1, 1u32, 2 * r + 2)]),
        );
        let out = compress(&g, &GRePairConfig::default());
        let enc = grepair_codec::encode(&out.grammar);
        let path = dir.join(format!("grepair_bench_tenant_{pid}_{i}.g2g"));
        std::fs::write(&path, write_container(&enc.bytes, enc.bit_len))
            .expect("bench scratch file writes");
        paths.push(path);
    }
    let sizes: Vec<u64> =
        paths.iter().map(|p| std::fs::metadata(p).expect("scratch file stats").len()).collect();
    let combined: u64 = sizes.iter().sum();
    let budget = combined / 2;

    let registry = StoreRegistry::open(paths[0].to_str().unwrap()).expect("tenant container opens");
    // The registry's own `default` namespace doubles as tenant "alpha";
    // the other two attach cold, exactly like `--attach` at startup.
    let resolve_names = ["default", names[1], names[2]];
    for (name, path) in names.iter().zip(&paths).skip(1) {
        registry.attach_cold(name, path.to_str().unwrap()).expect("cold attach");
    }

    // Phase one: cold-open latency. With a one-byte budget every resolve
    // evicts the other tenants, so each lap's resolve is a true cache
    // miss (open + index from the container file).
    registry.set_budget(Some(1));
    for name in resolve_names {
        registry.store(name).expect("warm-up resolve"); // establish the evicted steady state
    }
    let mut cold_open_ns = vec![f64::INFINITY; names.len()];
    for _lap in 0..3 {
        for (i, name) in resolve_names.iter().enumerate() {
            let ns = time_ns(|| {
                registry.store(name).expect("cold resolve");
            });
            cold_open_ns[i] = cold_open_ns[i].min(ns);
        }
    }

    // Phase two: steady-state churn under the honest budget — round-robin
    // queries force the LRU policy to evict and transparently reopen.
    registry.set_budget(Some(budget));
    for round in 0..20u64 {
        for name in resolve_names {
            let store = registry.store(name).expect("tenant resolves under budget");
            let n = store.total_nodes();
            store.query(&Query::OutNeighbors((round * 7) % n)).expect("in-range query");
        }
    }

    let stats = registry.aggregate_stats();
    assert!(
        stats.resident_bytes <= budget.max(*sizes.iter().max().expect("nonempty")),
        "eviction failed to hold the budget: {stats}"
    );
    let report = TenancyReport {
        budget_bytes: budget,
        combined_bytes: combined,
        evictions: stats.evictions,
        cold_opens: stats.cold_opens,
        resident_bytes: stats.resident_bytes,
        tenants: names
            .iter()
            .zip(&sizes)
            .zip(&cold_open_ns)
            .map(|((name, bytes), ns)| TenantBenchRow {
                name: name.to_string(),
                container_bytes: *bytes,
                cold_open_ns: *ns,
            })
            .collect(),
    };
    for path in &paths {
        let _ = std::fs::remove_file(path);
    }
    report
}

/// Measure the degradation machinery of DESIGN.md §10 with honest faults
/// (no `fail` feature required):
///
/// 1. **Breaker** — attach a tenant cold, delete its container, resolve
///    until the consecutive-failure threshold trips the breaker, time the
///    open-breaker fast refusals, then restore the file and wait for the
///    half-open probe to re-admit it.
/// 2. **Shedding** — a real socket server with a one-thread pool and a
///    shed watermark of one, hammered by four pipelined clients pushing
///    whole-graph queries: most batches land while another is in flight
///    and are answered with `busy` lines instead of queueing deeper.
/// 3. **Drain** — `SHUTDOWN` over the wire, timed from the request write
///    until the accept loop finishes its graceful exit.
pub fn measure_resilience(scale: Scale) -> ResilienceReport {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    use grepair_server::{Server, ServerConfig};
    use grepair_store::{StoreRegistry, BREAKER_COOLDOWN, BREAKER_THRESHOLD};

    let reps = match scale {
        Scale::Full => 1_024u32,
        Scale::Quick => 256,
    };
    let (g, _) = Hypergraph::from_simple_edges(
        (2 * reps + 1) as usize,
        (0..reps).flat_map(|r| [(2 * r, 0u32, 2 * r + 1), (2 * r + 1, 1u32, 2 * r + 2)]),
    );
    let out = compress(&g, &GRePairConfig::default());
    let enc = grepair_codec::encode(&out.grammar);
    let container = write_container(&enc.bytes, enc.bit_len);

    // 1. Breaker: the flaky tenant's container vanishes between the cold
    // attach and the first resolve — the honest version of a dead disk.
    let flaky_path = std::env::temp_dir()
        .join(format!("grepair_bench_flaky_{}.g2g", std::process::id()));
    std::fs::write(&flaky_path, &container).expect("bench scratch file writes");
    let registry = StoreRegistry::new(
        GraphStore::from_bytes(&container).expect("freshly compressed grammar loads"),
    );
    registry
        .attach_cold("flaky", flaky_path.to_str().expect("temp paths are unicode"))
        .expect("cold attach");
    std::fs::remove_file(&flaky_path).expect("bench scratch file removes");
    for _ in 0..BREAKER_THRESHOLD {
        assert!(registry.store("flaky").is_err(), "the container is gone");
    }
    let open_probes = 100u64;
    let breaker_fast_fail_ns = time_ns(|| {
        for _ in 0..open_probes {
            assert!(registry.store("flaky").is_err(), "an open breaker refuses fast");
        }
    }) / open_probes as f64;
    let breaker_trips =
        registry.health_of("flaky").expect("flaky is attached").breaker_trips;
    std::fs::write(&flaky_path, &container).expect("bench scratch file writes");
    std::thread::sleep(BREAKER_COOLDOWN);
    let mut breaker_recovered = false;
    for _ in 0..10 {
        if registry.store("flaky").is_ok() {
            breaker_recovered = true;
            break;
        }
        std::thread::sleep(BREAKER_COOLDOWN / 5);
    }
    let _ = std::fs::remove_file(&flaky_path);

    // 2. Shedding: two worker threads (one would make `query_batch_on`
    // fall back to inline execution and never touch the pool), watermark
    // one, small batches, four pipelined clients pushing whole-graph
    // traversals — while one batch occupies the pool, every other
    // session's flush is over the watermark and sheds.
    let config = ServerConfig {
        threads: 2,
        batch: 32,
        shed_watermark: 1,
        ..ServerConfig::default()
    };
    let server_registry = Arc::new(StoreRegistry::new(
        GraphStore::from_bytes(&container).expect("freshly compressed grammar loads"),
    ));
    let server =
        Server::bind(&config, server_registry, None).expect("bind ephemeral loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let run = std::thread::spawn(move || server.run());
    let per_client = match scale {
        Scale::Full => 600u64,
        Scale::Quick => 200,
    };
    let (mut shed_sent, mut shed_busy) = (0u64, 0u64);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = addr.as_str();
                s.spawn(move || {
                    let lines: Vec<String> =
                        (0..per_client).map(|_| query_line(&Query::Components)).collect();
                    let report =
                        probe_server(addr, &lines).expect("probe the shedding server");
                    let busy = report.answers.iter().filter(|a| *a == "busy").count();
                    (report.sent as u64, busy as u64)
                })
            })
            .collect();
        for h in handles {
            let (sent, busy) = h.join().expect("shed client thread");
            shed_sent += sent;
            shed_busy += busy;
        }
    });

    // 3. Drain: `SHUTDOWN` stops the accept loop and waits for in-flight
    // sessions; the latency is request-write to `run()` returning.
    let mut stream = TcpStream::connect(&addr).expect("connect for SHUTDOWN");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let t = Instant::now();
    stream.write_all(b"SHUTDOWN\n").expect("send SHUTDOWN");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read the draining reply");
    assert_eq!(reply, "draining\n", "SHUTDOWN acknowledges before draining");
    run.join()
        .expect("server thread")
        .expect("drained accept loop exits cleanly");
    let drain_latency_ns = t.elapsed().as_nanos() as f64;

    ResilienceReport {
        breaker_trips,
        breaker_fast_fail_ns,
        breaker_recovered,
        shed_sent,
        shed_busy,
        drain_latency_ns,
    }
}

/// `Threads:` from this process's `/proc/self/status`, or zero where
/// procfs does not exist.
fn self_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The soft fd limit from `/proc/self/limits`, or a conservative default.
/// Each parked loopback connection costs this process two fds (client end
/// plus server end), so the herd is clamped to fit with headroom.
fn fd_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            limits
                .lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3))
                .and_then(|soft| soft.parse().ok())
        })
        .unwrap_or(1024)
}

/// Measure connection scale (DESIGN.md §11): an in-process server on the
/// epoll front end (Linux; the thread front end elsewhere), a herd of idle
/// connections parked against it, the process thread count sampled around
/// the soak, a `PING` liveness check across the herd, and a saturated
/// mixed-workload burst on a fresh connection while the herd stays parked.
/// At full scale the herd target is 10 000 connections — raise the fd
/// limit to at least ~20 128 to measure it unclamped.
pub fn measure_connections(scale: Scale) -> ConnectionsReport {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    use grepair_server::{IoMode, Server, ServerConfig};
    use grepair_store::StoreRegistry;

    let (target, burst) = match scale {
        Scale::Full => (10_000usize, 10_000u64),
        Scale::Quick => (256, 2_000),
    };
    let n = target.min(fd_limit().saturating_sub(128) / 2).max(8);
    let io = if cfg!(target_os = "linux") { IoMode::Epoll } else { IoMode::Threads };

    let reps = match scale {
        Scale::Full => 1_024u32,
        Scale::Quick => 256,
    };
    let (g, _) = Hypergraph::from_simple_edges(
        (2 * reps + 1) as usize,
        (0..reps).flat_map(|r| [(2 * r, 0u32, 2 * r + 1), (2 * r + 1, 1u32, 2 * r + 2)]),
    );
    let out = compress(&g, &GRePairConfig::default());
    let enc = grepair_codec::encode(&out.grammar);
    let container = write_container(&enc.bytes, enc.bit_len);
    let registry = Arc::new(StoreRegistry::new(
        GraphStore::from_bytes(&container).expect("freshly compressed grammar loads"),
    ));
    let nodes = registry.store("default").expect("default resolves").total_nodes();
    let config = ServerConfig { io, threads: 2, max_connections: n + 64, ..ServerConfig::default() };
    let server = Server::bind(&config, registry, None).expect("bind ephemeral loopback port");
    let addr = server.local_addr().expect("bound address").to_string();
    let handle = server.handle().expect("server handle");
    let run = std::thread::spawn(move || server.run());

    // Warm every lazily-spawned thread (pool workers, drain watcher)
    // before taking the baseline.
    let _ = probe_server(&addr, &["PING".to_string()]).expect("warmup probe");
    let threads_base = self_threads();

    let mut idle: Vec<TcpStream> = Vec::with_capacity(n);
    for i in 0..n {
        match TcpStream::connect(&addr) {
            Ok(stream) => idle.push(stream),
            Err(e) => panic!("connect {i}/{n} failed: {e} (raise ulimit -n for full scale)"),
        }
    }
    // Let the reactor accept the tail of the burst before sampling.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let threads_during = self_threads();

    // Liveness sample spread across the herd: parked connections must be
    // real sessions, not just accepted fds.
    let sample = 32usize.min(n);
    let mut live = 0u64;
    for s in 0..sample {
        let i = s * n / sample;
        let stream = &mut idle[i];
        stream.write_all(b"PING\n").expect("ping a parked connection");
        let mut reader = BufReader::new(stream.try_clone().expect("clone parked stream"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("parked connection answers");
        assert_eq!(line, "pong\n", "parked connection {i} is not a live session");
        live += 1;
    }

    // Saturated burst on a fresh connection while the herd stays parked:
    // the front end must serve at full speed with `n` registered sockets
    // it is not reading from.
    let lines: Vec<String> = mixed_batch(nodes, burst).iter().map(query_line).collect();
    let report = probe_server(&addr, &lines).expect("burst probe");
    assert_eq!(report.answers.len(), report.sent, "burst cut short");
    let threads_after = self_threads();

    drop(idle);
    handle.stop();
    run.join().expect("server thread").expect("server exits cleanly");

    ConnectionsReport {
        io: match io {
            IoMode::Epoll => "epoll",
            IoMode::Threads => "threads",
        },
        connections: n as u64,
        threads_base,
        threads_during,
        threads_after,
        live_sampled: live,
        burst_queries: report.sent as u64,
        burst_qps: report.throughput_qps(),
    }
}

/// Measure the delta-layer versioning path (DESIGN.md §12): compress a
/// co-authorship history's year-0 snapshot, apply every later year's new
/// edges as patches, and compare head (overlay) serving against the pinned
/// base and against a from-scratch recompression of the materialized head.
pub fn measure_versioning(scale: Scale) -> VersioningReport {
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use grepair_datasets::version::CoauthorshipHistory;
    use grepair_store::{codec_for, materialize, EdgePatch, PatchOp, VersionedStore};

    let (years, papers, initial, fresh) = match scale {
        Scale::Full => (8usize, 120usize, 400usize, 60usize),
        Scale::Quick => (4, 24, 80, 12),
    };
    let history = CoauthorshipHistory::generate(years, papers, initial, fresh, 11);
    // The k2 codec preserves node ids, so history edges patch in verbatim
    // (the grammar codec renumbers — its oracle needs a node map).
    let codec = codec_for("k2").expect("k2 backend registered");
    let base_graph = history.snapshot(0);
    let file = codec.encode(&base_graph).expect("base snapshot encodes");
    let base = GraphStore::from_bytes(&file).expect("fresh container loads");
    let versioned = VersionedStore::new(Arc::new(base)).expect("base within version bound");

    // Year-over-year diff: the ADD stream an incremental feed would carry.
    let edge_set = |g: &Hypergraph| -> BTreeSet<(u32, u32, u32)> {
        g.edges().map(|e| (e.att[0], e.label.index(), e.att[1])).collect()
    };
    let mut prev = edge_set(&base_graph);
    let mut patches = Vec::new();
    for y in 1..years {
        let snap = edge_set(&history.snapshot(y));
        for &(s, label, t) in snap.difference(&prev) {
            patches.push(EdgePatch { op: PatchOp::Add, s: s as u64, label, t: t as u64 });
        }
        prev = snap;
    }
    assert!(!patches.is_empty(), "the history must grow year over year");

    let patch_total_ns = time_ns(|| {
        for patch in &patches {
            versioned.apply(*patch).expect("diffed patches apply cleanly");
        }
    });
    let head = versioned.head();
    let v0 = versioned.at(0).expect("v0 is always retained");
    let summary = *versioned.summaries().last().expect("v0 is always retained");

    // The overlay-free floor: materialize the head and recompress it.
    let mut recompressed = None;
    let recompress_ns = time_ns(|| {
        let g = materialize(&head).expect("head materializes");
        let bytes = codec.encode(&g).expect("materialized head encodes");
        recompressed = Some(GraphStore::from_bytes(&bytes).expect("recompressed head loads"));
    });
    let recompressed = recompressed.expect("filled by the timed closure");

    let probes = 2_000u64;
    let mean_neighbors_ns = |store: &GraphStore| -> f64 {
        let n = store.total_nodes();
        for i in 0..50 {
            let _ = store.query(&Query::OutNeighbors(i % n));
        }
        best_of(3, || {
            for i in 0..probes {
                let _ = store.query(&Query::OutNeighbors((i * 31) % n));
            }
        }) / probes as f64
    };

    VersioningReport {
        versions: summary.version + 1,
        overlay_added: summary.added,
        overlay_removed: summary.removed,
        patch_apply_ns: patch_total_ns / patches.len() as f64,
        head_neighbors_ns: mean_neighbors_ns(&head),
        v0_neighbors_ns: mean_neighbors_ns(&v0),
        recompressed_neighbors_ns: mean_neighbors_ns(&recompressed),
        recompress_ns,
    }
}

/// Run the serving workload and collect every number the JSON records.
pub fn measure_store_serving(scale: Scale) -> StoreBenchReport {
    let reps = match scale {
        Scale::Full => 16_384u32,
        Scale::Quick => 2_048,
    };
    let (g, _) = Hypergraph::from_simple_edges(
        (2 * reps + 1) as usize,
        (0..reps).flat_map(|i| [(2 * i, 0u32, 2 * i + 1), (2 * i + 1, 1u32, 2 * i + 2)]),
    );
    let out = compress(&g, &GRePairConfig::default());
    let enc = grepair_codec::encode(&out.grammar);
    let store = GraphStore::from_bytes(&write_container(&enc.bytes, enc.bit_len))
        .expect("freshly compressed grammar loads");
    let n = store.total_nodes();

    // Per-class one-shot cost (warm caches: run each class once first).
    let per_class = 2_000u64;
    let classes: Vec<(&'static str, Vec<Query>)> = vec![
        ("out_neighbors", (0..per_class).map(|i| Query::OutNeighbors((i * 3) % n)).collect()),
        ("in_neighbors", (0..per_class).map(|i| Query::InNeighbors((i * 7) % n)).collect()),
        ("neighbors", (0..per_class).map(|i| Query::Neighbors((i * 17) % n)).collect()),
        (
            "reach",
            (0..per_class)
                .map(|i| Query::Reach { s: (i * 3) % n, t: (i * 11) % n })
                .collect(),
        ),
        (
            "rpq",
            (0..per_class)
                .map(|i| Query::Rpq { s: (i * 5) % n, t: (i * 13) % n, pattern: "0* 1*".into() })
                .collect(),
        ),
    ];
    let class_ns = classes
        .iter()
        .map(|(name, queries)| {
            for q in queries.iter().take(50) {
                let _ = store.query(q); // warm expansion/plan caches
            }
            let total = time_ns(|| {
                for q in queries {
                    let _ = store.query(q);
                }
            });
            (*name, total / queries.len() as f64)
        })
        .collect();

    let batch = mixed_batch(n, 10_000);
    let batch_sequential_ns = best_of(3, || {
        assert!(store.query_batch(&batch).iter().all(|a| a.is_ok()));
    });
    let batch_individual_ns = best_of(3, || {
        for q in &batch {
            assert!(store.query(q).is_ok());
        }
    });
    let thread_scaling = SCALING_THREADS
        .iter()
        .map(|&threads| {
            // Built outside the timed region, as a server holds its pool.
            let pool = WorkerPool::new(threads);
            let ns = best_of(3, || {
                assert!(store.query_batch_on(&batch, &pool).iter().all(|a| a.is_ok()));
            });
            (threads, ns)
        })
        .collect();

    StoreBenchReport {
        scale: match scale {
            Scale::Full => "full",
            Scale::Quick => "quick",
        },
        threads_available: std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        class_ns,
        batch_sequential_ns,
        batch_individual_ns,
        thread_scaling,
        backends: measure_backends(scale),
        tenancy: measure_multi_tenant(scale),
        resilience: measure_resilience(scale),
        connections: measure_connections(scale),
        versioning: measure_versioning(scale),
    }
}

/// What one socket probe against a live server measured.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Request lines sent (blank/comment lines are not requests).
    pub sent: usize,
    /// Every reply line, in order — for file mode these bytes are asserted
    /// identical to `store serve-file` on the same input.
    pub answers: Vec<String>,
    /// How many of the replies were `error:` lines.
    pub errors: usize,
    /// Wall time from first byte written to last reply read.
    pub elapsed_ns: f64,
}

impl ProbeReport {
    /// Requests per second over the whole probe.
    pub fn throughput_qps(&self) -> f64 {
        if self.elapsed_ns <= 0.0 {
            return 0.0;
        }
        self.sent as f64 / (self.elapsed_ns / 1e9)
    }
}

/// Stream `lines` to a live server at `addr` and collect one reply line
/// per request line — the client half of the wire protocol, pipelined: a
/// writer thread pushes the whole workload while this thread drains
/// replies, so neither side deadlocks on a full socket buffer.
pub fn probe_server(addr: &str, lines: &[String]) -> std::io::Result<ProbeReport> {
    use std::io::{BufRead, BufReader, BufWriter, Write};
    use std::net::{Shutdown, TcpStream};

    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(stream.try_clone()?);
    let start = Instant::now();
    let sent = lines
        .iter()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with('#')
        })
        .count();
    let mut answers = Vec::with_capacity(sent);
    let mut errors = 0usize;
    // Scoped writer: borrows the workload (no copy of what may be millions
    // of request lines) while this thread drains replies concurrently —
    // the pipelined-client shape §6.1 requires to avoid self-deadlock on a
    // full socket buffer.
    std::thread::scope(|scope| -> std::io::Result<()> {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            let mut out = BufWriter::new(&stream);
            for line in lines {
                out.write_all(line.as_bytes())?;
                out.write_all(b"\n")?;
            }
            out.flush()?;
            // Half-close: the server answers everything, then closes,
            // which ends the reader's drain below.
            stream.shutdown(Shutdown::Write)
        });
        for line in reader.lines() {
            let line = line?;
            if line.starts_with("error: ") {
                errors += 1;
            }
            answers.push(line);
        }
        writer.join().expect("probe writer thread")
    })?;
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    Ok(ProbeReport { sent, answers, errors, elapsed_ns })
}

/// A JSON number: finite, fixed precision (JSON has no NaN/Infinity).
fn num(x: f64) -> String {
    assert!(x.is_finite(), "bench numbers must be finite, got {x}");
    format!("{x:.1}")
}

/// Render the report as the `BENCH_store.json` document. Hand-rolled — the
/// offline crate set has no serde — with stable key order so diffs between
/// PRs stay readable.
pub fn render_store_bench_json(r: &StoreBenchReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    // Schema 2 added the per-backend comparison rows (PR 5); schema 3
    // added the multi-tenant budget/eviction block (PR 6); schema 4 added
    // the resilience block (breaker / shed / drain, DESIGN.md §10);
    // schema 5 added the connections block (epoll connection scale,
    // DESIGN.md §11); schema 6 added the versioning block (patch latency
    // and the overlay-vs-recompression crossover, DESIGN.md §12).
    s.push_str("  \"schema\": 6,\n");
    s.push_str("  \"bench\": \"store\",\n");
    s.push_str(&format!("  \"scale\": \"{}\",\n", r.scale));
    s.push_str(&format!("  \"threads_available\": {},\n", r.threads_available));
    s.push_str("  \"query_classes_ns\": {\n");
    for (i, (name, ns)) in r.class_ns.iter().enumerate() {
        let comma = if i + 1 < r.class_ns.len() { "," } else { "" };
        s.push_str(&format!("    \"{name}\": {}{comma}\n", num(*ns)));
    }
    s.push_str("  },\n");
    s.push_str("  \"batch\": {\n");
    s.push_str(&format!("    \"sequential_ns\": {},\n", num(r.batch_sequential_ns)));
    s.push_str(&format!("    \"individual_ns\": {},\n", num(r.batch_individual_ns)));
    s.push_str(&format!("    \"speedup\": {}\n", num(r.batch_speedup())));
    s.push_str("  },\n");
    s.push_str("  \"thread_scaling\": [\n");
    for (i, (threads, ns)) in r.thread_scaling.iter().enumerate() {
        let comma = if i + 1 < r.thread_scaling.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{ \"threads\": {threads}, \"batch_ns\": {}, \"factor\": {} }}{comma}\n",
            num(*ns),
            num(r.batch_sequential_ns / *ns)
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!("  \"scaling_factor\": {},\n", num(r.scaling_factor())));
    s.push_str("  \"backends\": [\n");
    for (i, b) in r.backends.iter().enumerate() {
        let comma = if i + 1 < r.backends.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"container_bytes\": {}, \"bits_per_edge\": {}, \
             \"neighbors_ns\": {}, \"reach_ns\": {} }}{comma}\n",
            b.name,
            b.container_bytes,
            num(b.bits_per_edge),
            num(b.neighbors_ns),
            num(b.reach_ns)
        ));
    }
    s.push_str("  ],\n");
    let t = &r.tenancy;
    s.push_str("  \"multi_tenant\": {\n");
    s.push_str(&format!("    \"budget_bytes\": {},\n", t.budget_bytes));
    s.push_str(&format!("    \"combined_bytes\": {},\n", t.combined_bytes));
    s.push_str(&format!("    \"evictions\": {},\n", t.evictions));
    s.push_str(&format!("    \"cold_opens\": {},\n", t.cold_opens));
    s.push_str(&format!("    \"resident_bytes\": {},\n", t.resident_bytes));
    s.push_str("    \"tenants\": [\n");
    for (i, row) in t.tenants.iter().enumerate() {
        let comma = if i + 1 < t.tenants.len() { "," } else { "" };
        s.push_str(&format!(
            "      {{ \"name\": \"{}\", \"container_bytes\": {}, \"cold_open_ns\": {} }}{comma}\n",
            row.name,
            row.container_bytes,
            num(row.cold_open_ns)
        ));
    }
    s.push_str("    ]\n");
    s.push_str("  },\n");
    let res = &r.resilience;
    s.push_str("  \"resilience\": {\n");
    s.push_str(&format!("    \"breaker_trips\": {},\n", res.breaker_trips));
    s.push_str(&format!("    \"breaker_fast_fail_ns\": {},\n", num(res.breaker_fast_fail_ns)));
    s.push_str(&format!("    \"breaker_recovered\": {},\n", res.breaker_recovered));
    s.push_str(&format!("    \"shed_sent\": {},\n", res.shed_sent));
    s.push_str(&format!("    \"shed_busy\": {},\n", res.shed_busy));
    s.push_str(&format!("    \"shed_rate\": {},\n", num(res.shed_rate())));
    s.push_str(&format!("    \"drain_latency_ms\": {}\n", num(res.drain_latency_ns / 1e6)));
    s.push_str("  },\n");
    let c = &r.connections;
    s.push_str("  \"connections\": {\n");
    s.push_str(&format!("    \"io\": \"{}\",\n", c.io));
    s.push_str(&format!("    \"connections\": {},\n", c.connections));
    s.push_str(&format!("    \"threads_base\": {},\n", c.threads_base));
    s.push_str(&format!("    \"threads_during\": {},\n", c.threads_during));
    s.push_str(&format!("    \"threads_after\": {},\n", c.threads_after));
    s.push_str(&format!("    \"live_sampled\": {},\n", c.live_sampled));
    s.push_str(&format!("    \"burst_queries\": {},\n", c.burst_queries));
    s.push_str(&format!("    \"burst_qps\": {},\n", num(c.burst_qps)));
    s.push_str(&format!("    \"flat\": {}\n", c.flat()));
    s.push_str("  },\n");
    let v = &r.versioning;
    s.push_str("  \"versioning\": {\n");
    s.push_str(&format!("    \"versions\": {},\n", v.versions));
    s.push_str(&format!("    \"overlay_added\": {},\n", v.overlay_added));
    s.push_str(&format!("    \"overlay_removed\": {},\n", v.overlay_removed));
    s.push_str(&format!("    \"patch_apply_ns\": {},\n", num(v.patch_apply_ns)));
    s.push_str(&format!("    \"head_neighbors_ns\": {},\n", num(v.head_neighbors_ns)));
    s.push_str(&format!("    \"v0_neighbors_ns\": {},\n", num(v.v0_neighbors_ns)));
    s.push_str(&format!(
        "    \"recompressed_neighbors_ns\": {},\n",
        num(v.recompressed_neighbors_ns)
    ));
    s.push_str(&format!("    \"recompress_ns\": {},\n", num(v.recompress_ns)));
    s.push_str(&format!("    \"overlay_tax\": {}\n", num(v.overlay_tax())));
    s.push_str("  }\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreBenchReport {
        StoreBenchReport {
            scale: "quick",
            threads_available: 8,
            class_ns: vec![("out_neighbors", 120.5), ("reach", 900.0)],
            batch_sequential_ns: 4_000_000.0,
            batch_individual_ns: 12_000_000.0,
            thread_scaling: vec![(1, 4_100_000.0), (8, 1_000_000.0)],
            backends: vec![
                BackendBenchRow {
                    name: "grepair",
                    container_bytes: 812,
                    bits_per_edge: 3.2,
                    neighbors_ns: 410.0,
                    reach_ns: 950.0,
                },
                BackendBenchRow {
                    name: "k2",
                    container_bytes: 2_048,
                    bits_per_edge: 8.0,
                    neighbors_ns: 300.0,
                    reach_ns: 40_000.0,
                },
            ],
            tenancy: TenancyReport {
                budget_bytes: 1_500,
                combined_bytes: 3_000,
                evictions: 12,
                cold_opens: 15,
                resident_bytes: 1_400,
                tenants: vec![
                    TenantBenchRow {
                        name: "alpha".into(),
                        container_bytes: 1_000,
                        cold_open_ns: 52_000.0,
                    },
                    TenantBenchRow {
                        name: "beta".into(),
                        container_bytes: 2_000,
                        cold_open_ns: 61_000.0,
                    },
                ],
            },
            resilience: ResilienceReport {
                breaker_trips: 1,
                breaker_fast_fail_ns: 250.0,
                breaker_recovered: true,
                shed_sent: 800,
                shed_busy: 600,
                drain_latency_ns: 40_000_000.0,
            },
            connections: ConnectionsReport {
                io: "epoll",
                connections: 10_000,
                threads_base: 5,
                threads_during: 5,
                threads_after: 5,
                live_sampled: 32,
                burst_queries: 10_000,
                burst_qps: 250_000.0,
            },
            versioning: VersioningReport {
                versions: 41,
                overlay_added: 40,
                overlay_removed: 0,
                patch_apply_ns: 30_000.0,
                head_neighbors_ns: 600.0,
                v0_neighbors_ns: 400.0,
                recompressed_neighbors_ns: 300.0,
                recompress_ns: 9_000_000.0,
            },
        }
    }

    #[test]
    fn derived_factors() {
        let r = sample();
        assert!((r.batch_speedup() - 3.0).abs() < 1e-9);
        assert!((r.scaling_factor() - 4.0).abs() < 1e-9);
        assert!((r.resilience.shed_rate() - 0.75).abs() < 1e-9);
        let none_sent = ResilienceReport { shed_sent: 0, shed_busy: 0, ..r.resilience };
        assert_eq!(none_sent.shed_rate(), 0.0, "no workload, no rate");
        assert!(r.connections.flat());
        let grew = ConnectionsReport { threads_during: 8, ..r.connections.clone() };
        assert!(!grew.flat(), "a thread per shard of the herd is not flat");
        let unmeasured = ConnectionsReport {
            threads_base: 0,
            threads_during: 0,
            threads_after: 0,
            ..r.connections
        };
        assert!(unmeasured.flat(), "no procfs, vacuously flat");
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let text = render_store_bench_json(&sample());
        // Balanced braces/brackets (no nesting tricks in this document).
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        for key in [
            "\"schema\": 6",
            "\"bench\": \"store\"",
            "\"scale\": \"quick\"",
            "\"threads_available\": 8",
            "\"query_classes_ns\"",
            "\"out_neighbors\": 120.5",
            "\"sequential_ns\": 4000000.0",
            "\"individual_ns\": 12000000.0",
            "\"speedup\": 3.0",
            "\"thread_scaling\"",
            "\"scaling_factor\": 4.0",
            "\"backends\"",
            "\"name\": \"grepair\"",
            "\"container_bytes\": 812",
            "\"name\": \"k2\"",
            "\"reach_ns\": 40000.0",
            "\"multi_tenant\"",
            "\"budget_bytes\": 1500",
            "\"combined_bytes\": 3000",
            "\"evictions\": 12",
            "\"cold_opens\": 15",
            "\"resident_bytes\": 1400",
            "\"name\": \"alpha\"",
            "\"cold_open_ns\": 52000.0",
            "\"resilience\"",
            "\"breaker_trips\": 1",
            "\"breaker_fast_fail_ns\": 250.0",
            "\"breaker_recovered\": true",
            "\"shed_sent\": 800",
            "\"shed_busy\": 600",
            "\"shed_rate\": 0.8",
            "\"drain_latency_ms\": 40.0",
            "\"connections\"",
            "\"io\": \"epoll\"",
            "\"connections\": 10000",
            "\"threads_base\": 5",
            "\"threads_during\": 5",
            "\"threads_after\": 5",
            "\"live_sampled\": 32",
            "\"burst_queries\": 10000",
            "\"burst_qps\": 250000.0",
            "\"flat\": true",
            "\"versioning\"",
            "\"versions\": 41",
            "\"overlay_added\": 40",
            "\"overlay_removed\": 0",
            "\"patch_apply_ns\": 30000.0",
            "\"head_neighbors_ns\": 600.0",
            "\"v0_neighbors_ns\": 400.0",
            "\"recompressed_neighbors_ns\": 300.0",
            "\"recompress_ns\": 9000000.0",
            "\"overlay_tax\": 2.0",
        ] {
            assert!(text.contains(key), "missing {key} in:\n{text}");
        }
        // No trailing commas (the classic hand-rolled-JSON bug).
        assert!(!text.contains(",\n  }"), "{text}");
        assert!(!text.contains(",\n  ]"), "{text}");
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_numbers_are_rejected() {
        let mut r = sample();
        r.batch_sequential_ns = f64::NAN;
        render_store_bench_json(&r);
    }

    #[test]
    fn query_lines_round_trip_through_the_parser() {
        for q in mixed_batch(97, 200) {
            let line = query_line(&q);
            let parsed = grepair_store::parse_query(&line)
                .unwrap_or_else(|e| panic!("{line:?} must re-parse: {e}"));
            assert_eq!(parsed, q, "{line:?}");
        }
        assert_eq!(query_line(&Query::Components), "components");
        assert_eq!(query_line(&Query::DegreeExtrema), "degrees");
    }

    #[test]
    fn quick_measurement_runs_end_to_end() {
        let r = measure_store_serving(Scale::Quick);
        assert_eq!(r.scale, "quick");
        assert_eq!(r.class_ns.len(), 5);
        assert!(r.class_ns.iter().all(|&(_, ns)| ns > 0.0));
        assert!(r.batch_sequential_ns > 0.0);
        assert_eq!(r.thread_scaling.len(), SCALING_THREADS.len());
        // One row per registered backend, each fully measured.
        let names: Vec<&str> = r.backends.iter().map(|b| b.name).collect();
        assert_eq!(names, grepair_store::backend_names());
        for b in &r.backends {
            assert!(b.container_bytes > 0, "{}", b.name);
            assert!(b.bits_per_edge > 0.0, "{}", b.name);
            assert!(b.neighbors_ns > 0.0 && b.reach_ns > 0.0, "{}", b.name);
        }
        // The multi-tenant block measured real churn: the budget is below
        // the combined size, so evictions and cold reopens must show up,
        // and every tenant has a finite cold-open number.
        let t = &r.tenancy;
        assert!(t.budget_bytes < t.combined_bytes);
        assert!(t.evictions > 0, "budget never bit: {t:?}");
        assert!(t.cold_opens > 0, "{t:?}");
        assert_eq!(t.tenants.len(), 3);
        assert!(t.tenants.iter().all(|row| row.container_bytes > 0 && row.cold_open_ns > 0.0));
        // The grammar path's Fig. 13 story holds in serving form: the
        // container is far smaller than the baselines' on this graph.
        let by_name = |n: &str| r.backends.iter().find(|b| b.name == n).unwrap();
        assert!(
            by_name("grepair").container_bytes < by_name("k2").container_bytes,
            "grammar must beat k2 on the repetitive path"
        );
        // The resilience block measured real degradation: the breaker
        // tripped and recovered, the watermark shed at least one batch,
        // and the drain finished inside the default deadline.
        let res = &r.resilience;
        assert!(res.breaker_trips >= 1, "{res:?}");
        assert!(res.breaker_fast_fail_ns > 0.0, "{res:?}");
        assert!(res.breaker_recovered, "{res:?}");
        assert!(res.shed_sent > 0 && res.shed_busy > 0, "{res:?}");
        assert!(res.shed_busy <= res.shed_sent, "{res:?}");
        assert!(
            res.drain_latency_ns > 0.0 && res.drain_latency_ns < 5e9,
            "{res:?}"
        );
        // The connections block parked a real herd on a flat thread count
        // and proved the parked sockets were live sessions.
        let c = &r.connections;
        assert!(c.connections >= 8, "{c:?}");
        assert!(c.live_sampled > 0 && c.live_sampled <= c.connections, "{c:?}");
        assert!(c.burst_queries > 0 && c.burst_qps > 0.0, "{c:?}");
        if cfg!(target_os = "linux") {
            assert_eq!(c.io, "epoll");
            assert!(c.threads_base > 0, "procfs must be readable here: {c:?}");
            assert!(c.flat(), "thread count grew with the herd: {c:?}");
        }
        // The versioning block replayed a growing history through the
        // delta layer: at least one patch per later year, all adds, and
        // every latency measured.
        let v = &r.versioning;
        assert!(v.versions >= 4, "{v:?}");
        assert_eq!(v.overlay_added, v.versions - 1, "one ADD per version: {v:?}");
        assert_eq!(v.overlay_removed, 0, "{v:?}");
        assert!(v.patch_apply_ns > 0.0, "{v:?}");
        assert!(
            v.head_neighbors_ns > 0.0
                && v.v0_neighbors_ns > 0.0
                && v.recompressed_neighbors_ns > 0.0,
            "{v:?}"
        );
        assert!(v.recompress_ns > 0.0 && v.overlay_tax() > 0.0, "{v:?}");
        // The rendered form of a real measurement is also well-formed.
        let text = render_store_bench_json(&r);
        assert!(text.contains("\"schema\": 6"));
        assert!(text.contains("\"name\": \"hn\""));
        assert!(text.contains("\"multi_tenant\""));
        assert!(text.contains("\"resilience\""));
        assert!(text.contains("\"connections\""));
        assert!(text.contains("\"versioning\""));
    }
}
