//! `perfbench` — the repository benchmark: compress and serve workloads on
//! the paper's dataset analogs.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench serve <args of grepair store serve>
//! ```
//!
//! Both workloads (`network-read`, `version-write`) run the same pipeline
//! on their own inputs: generate the seeded graphs, compress and encode
//! them (`Compressor` stages, then `grepair_codec::encode`), serve some of
//! the containers from a separate `grepair store serve` process, and drive
//! it open loop over one connection: a reference phase (reads, or patches
//! with reads), a read-rate ladder, and a patch phase. Every output is
//! checked — containers round-trip to the input edge set, every reply
//! matches an in-process replay — and the last stdout line is one JSON
//! object with the metrics. `--trace 1` adds a traced compress pass and
//! in-process replays with spans around each crate's public calls, and
//! reports the per-layer metrics instead.

mod client;
mod compress;
mod layers;
mod serve;
mod stats;
mod trace;
mod workload;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use grepair_core::CompressStats;
use grepair_hypergraph::NodeId;
use grepair_store::{EdgePatch, GraphStore, PatchOp};

use client::{own_peak_rss_mb, Connection, ServerProcess};
use serve::{Log, Op, Tenant};
use stats::{median, windowed, Rng, Summary};
use trace::Tracer;
use workload::{write_history, Workload, WRITE_YEARS};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Shares of `--seconds` for the compress phase (at least one pass), the
/// reference phase, each ladder rung, and `network-read`'s patch phase.
const COMPRESS_SHARE: f64 = 1.75;
const REF_SHARE: f64 = 0.25;
const RUNG_SHARE: f64 = 0.05;
const PATCH_SHARE: f64 = 0.1;
/// How far the compress stage spans may sum from the untraced wall time of
/// the same calls (as a share of it) before a traced run warns.
const STAGE_TOLERANCE: f64 = 0.2;
/// Warm-up reads sent before any timed phase (part of set-up).
const WARMUP_READS: usize = 300;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?).ok_or("unknown --workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: want 0 or 1")),
    };
    if map.len() != 4 || seconds <= 0.0 {
        return Err("want exactly --workload --seed --seconds --trace".into());
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where runs keep their scratch files: the build directory.
fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return match grepair_server::run_cli(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <network-read|version-write> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for (name, value, unit) in &report.metrics {
                println!("{name:<36} {value:>16.4} {unit}");
            }
            let metrics: Vec<String> = report
                .metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                report.correct,
                report.attempted,
                report.failed,
                metrics.join(", ")
            );
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What one setup leaves behind: the served part of the corpus
/// compressed, written out, served and warmed up.
struct Setup {
    tenants: Vec<Tenant>,
    server: ServerProcess,
    conn: Connection,
    log: Log,
    /// `node_map` of the server's `default` container.
    base_map: Vec<NodeId>,
}

/// Generate the corpus, build the served containers, start the server and
/// warm it up.
fn setup(opts: &Opts, dir: &Path) -> Result<Setup, String> {
    let w = opts.workload;
    let corpus = w.corpus(opts.seed);
    let served = &corpus[..w.served()];
    let mut rng = Rng::new(opts.seed ^ 0x7e4a_4751);
    let mut tenants = Vec::new();
    let mut paths = Vec::new();
    let mut base_map = Vec::new();
    for (i, (ns, inp)) in served.iter().enumerate() {
        let out = compress::compress(&inp.graph, None, i as u64);
        let path = dir.join(format!("{ns}.g2g"));
        std::fs::write(&path, &out.container).map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path.to_string_lossy().into_owned());
        if i == 0 {
            base_map = out.node_map;
        }
        tenants.push(Tenant::new(ns, out.container, &mut rng)?);
    }
    let attach: Vec<(String, String)> = tenants
        .iter()
        .zip(&paths)
        .skip(1)
        .map(|(t, p)| (t.ns.clone(), p.clone()))
        .collect();
    let server = ServerProcess::spawn(&paths[0], &attach)?;
    let mut conn = Connection::open(&server.addr)?;
    let mut log = Log::default();
    let warm = serve::reads(&tenants, WARMUP_READS, w.rates().traversal, &mut rng);
    log.run(&mut conn, &tenants, &warm, 2_000.0);
    Ok(Setup {
        tenants,
        server,
        conn,
        log,
        base_map,
    })
}

/// `version-write`'s patch feed: every later year's new co-author edges, in
/// publication order, translated into the base container's node ids
/// through the compressor's node map (authors the base lacks get fresh
/// ids past its node count).
fn history_patches(seed: u64, node_map: &[NodeId], base_nodes: u64) -> Vec<Op> {
    let history = write_history(seed);
    let to_val: HashMap<NodeId, u64> = node_map
        .iter()
        .enumerate()
        .map(|(v, &id)| (id, v as u64))
        .collect();
    let mut fresh = HashMap::new();
    let mut id = |input: u32| -> u64 {
        if let Some(&v) = to_val.get(&input) {
            return v;
        }
        let next = base_nodes + fresh.len() as u64;
        *fresh.entry(input).or_insert(next)
    };
    let base = history.snapshot(0);
    let mut present: HashSet<(u32, u32, u32)> = base
        .edges()
        .map(|e| (e.att[0], e.label.index(), e.att[1]))
        .collect();
    let mut out = Vec::new();
    for year in 1..WRITE_YEARS {
        for &(s, label, t) in history.year_triples(year) {
            if s != t && present.insert((s, label, t)) {
                out.push(Op::Patch(EdgePatch {
                    op: PatchOp::Add,
                    s: id(s),
                    label,
                    t: id(t),
                }));
            }
        }
    }
    out
}

fn run(opts: &Opts) -> Result<Report, String> {
    let w = opts.workload;
    let rates = w.rates();
    let dir = out_dir().join("perfbench-work").join(format!(
        "{}-{}-{}",
        w.name(),
        opts.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_in(opts, &dir, &rates);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(opts: &Opts, dir: &Path, rates: &workload::Rates) -> Result<Report, String> {
    let w = opts.workload;
    let secs = opts.seconds;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut mismatches: Vec<String> = Vec::new();
    let tracer = Tracer::new();

    // Compression of the whole corpus first, in a fresh process. Untraced:
    // pass after pass for a share of the run (at least one pass), each
    // graph's time the best of its passes, which drops the passes a noisy
    // neighbour slowed. Each pass runs pinned to the next CPU the process
    // may use: on a shared host a neighbour can slow one core for minutes
    // while another runs at full speed. Traced: each graph untraced, then
    // traced, back to back so both see the same machine.
    let corpus = w.corpus(opts.seed);
    let cpus = compress::allowed_cpus();
    let slots = cpus.len().max(1);
    let start = Instant::now();
    // (pass's CPU slot, wall ms) per graph.
    let mut per_graph: Vec<Vec<(usize, f64)>> = vec![Vec::new(); corpus.len()];
    let mut outputs = Vec::new();
    let mut traced_ms = 0.0;
    let mut passes = 0;
    while outputs.is_empty()
        || (!opts.trace && start.elapsed().as_secs_f64() < COMPRESS_SHARE * secs)
    {
        let slot = passes % slots;
        if let Some(&cpu) = cpus.get(slot) {
            compress::pin(&[cpu]);
        }
        passes += 1;
        outputs.clear();
        for (i, (_, inp)) in corpus.iter().enumerate() {
            let group = i as u64;
            let mut out = compress::compress(&inp.graph, None, group);
            per_graph[i].push((slot, out.wall_ms));
            if opts.trace {
                out = tracer.span("compress", group, || {
                    compress::compress(&inp.graph, Some(&tracer), group)
                });
                traced_ms += out.wall_ms;
            }
            outputs.push(out);
        }
    }
    if !cpus.is_empty() {
        compress::pin(&cpus);
    }
    let compress_rss_mb = own_peak_rss_mb();
    // Sum over the graphs of each graph's best time, over the passes of
    // CPU slot `slot` (all passes for `None`).
    let best_sum = |slot: Option<usize>| -> f64 {
        per_graph
            .iter()
            .map(|w| {
                w.iter()
                    .filter(|(s, _)| slot.is_none_or(|slot| *s == slot))
                    .map(|&(_, ms)| ms)
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    };
    let walls: Vec<f64> = per_graph
        .iter()
        .map(|w| w.iter().map(|&(_, ms)| ms).fold(f64::INFINITY, f64::min))
        .collect();
    for (i, ((_, inp), out)) in corpus.iter().zip(&outputs).enumerate() {
        attempted += 1;
        if let Err(e) =
            compress::round_trips(&inp.graph, out, opts.trace.then_some(&tracer), i as u64)
        {
            failed += 1;
            mismatches.push(format!("{}: {e}", inp.name));
        }
    }
    let total_edges: f64 = corpus
        .iter()
        .map(|(_, inp)| inp.graph.num_edges() as f64)
        .sum();
    let compress_edges_per_s = total_edges / (walls.iter().sum::<f64>() / 1e3);
    let bits_per_edge = outputs.iter().map(|o| o.bits as f64).sum::<f64>() / total_edges;

    // Set-up, several times; the last one is kept.
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup(opts, dir)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Setup {
        tenants,
        server,
        mut conn,
        mut log,
        base_map,
    } = last.expect("at least one setup");

    // The reference phase, open loop over one connection: reads on
    // `network-read`, the patch stream with its reads on `version-write`.
    let mut rng = Rng::new(opts.seed ^ 0x5eed_f00d);
    let rss_before = server.rss_mb();
    let cpu_before = server.cpu_ns();
    let (ref_ops, ref_outcome) = if w == Workload::VersionWrite {
        let patches = history_patches(opts.seed, &base_map, tenants[0].nodes);
        let count = (REF_SHARE * secs * rates.rate) as usize;
        let ops = serve::write_stream(
            &tenants,
            &patches,
            count,
            rates.patch_share,
            rates.head_reach,
            &mut rng,
        );
        let outcome = log.run(&mut conn, &tenants, &ops, rates.rate);
        (ops, outcome)
    } else {
        let ops = serve::reads(
            &tenants,
            (REF_SHARE * secs * rates.rate) as usize,
            rates.traversal,
            &mut rng,
        );
        let outcome = log.run(&mut conn, &tenants, &ops, rates.rate);
        (ops, outcome)
    };
    let serve_cpu_us = (server.cpu_ns() - cpu_before) as f64 / 1e3 / ref_ops.len() as f64;
    // The server's growth over the write stream: the patch log's memory.
    let mut patch_rss_mb = server.rss_mb() - rss_before;
    let read_lat = serve::latencies(&ref_ops, &ref_outcome, Op::is_read);

    // The read-rate ladder (traced runs only: its figure is unbounded).
    let ladder = opts.trace.then(|| {
        serve::ladder(
            &mut conn,
            &mut log,
            &tenants,
            |n, rng| serve::reads(&tenants, n, rates.traversal, rng),
            rates.ladder_start,
            RUNG_SHARE * secs,
            &mut rng,
        )
    });

    // Batch shape as the server saw it, before any patch replaces a store.
    let (mut queries, mut batches) = (0, 0);
    for t in &tenants {
        let line = format!("STATS {}", t.ns);
        let reply = conn.call(&line).unwrap_or_default();
        log.entries
            .push((Op::Admin(line), Some((reply.clone(), 0.0))));
        let (q, b) = serve::stats_counts(&reply);
        queries += q;
        batches += b;
    }
    let lines_per_batch = queries as f64 / batches.max(1) as f64;

    // Patches: `version-write` sent them in its reference phase; on
    // `network-read` a short flat-log write stream follows all reads, so no
    // read above went through an overlay.
    let is_patch = |op: &&Op| matches!(op, Op::Patch(_));
    let (patch_lat, patch_ops): (Vec<f64>, Vec<Op>) = if w == Workload::VersionWrite {
        let lat = serve::latencies(&ref_ops, &ref_outcome, |op| is_patch(&op));
        (lat, ref_ops.iter().filter(is_patch).cloned().collect())
    } else {
        let base = GraphStore::from_bytes(&tenants[0].container).map_err(|e| e.to_string())?;
        let count = (PATCH_SHARE * secs * rates.rate) as usize;
        let pairs = serve::add_del_pairs(&base, count, &mut rng)?;
        let ops = serve::write_stream(
            &tenants,
            &pairs,
            count,
            rates.patch_share,
            rates.head_reach,
            &mut rng,
        );
        let rss_before = server.rss_mb();
        let outcome = log.run(&mut conn, &tenants, &ops, rates.rate);
        patch_rss_mb = server.rss_mb() - rss_before;
        let lat = serve::latencies(&ops, &outcome, |op| is_patch(&op));
        (lat, ops.iter().filter(is_patch).cloned().collect())
    };
    let peak_rss_mb = compress_rss_mb.max(server.peak_rss_mb());
    drop(conn);
    drop(server);

    let (n, bad, first) = serve::verify(&log, &tenants)?;
    attempted += n;
    failed += bad;
    mismatches.extend(first);

    let read = Summary::of(&read_lat);
    eprintln!(
        "{} seed={} compress={:?}ms passes={passes} best_sum_by_cpu={:?}ms setups={:?}s read {} patch {} gen_late {} ladder {:?}",
        w.name(),
        opts.seed,
        walls.iter().map(|w| w.round()).collect::<Vec<_>>(),
        (0..slots.min(passes))
            .map(|slot| best_sum(Some(slot)).round())
            .collect::<Vec<_>>(),
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        read.describe("ms"),
        Summary::of(&patch_lat).describe("ms"),
        Summary::of(&ref_outcome.late_ms).describe("ms"),
        ladder
            .iter()
            .flat_map(|l| &l.probes)
            .map(|(r, p99, g, ok)| format!("{r:.0}q/s p99={p99:.2} grow={g} {ok}"))
            .collect::<Vec<_>>()
    );
    for m in &mismatches {
        eprintln!("MISMATCH {m}");
    }

    let mut metrics: Vec<layers::Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| metrics.push((name.to_string(), value, unit));
    match ladder {
        None => {
            put("setup_s", median(&setup_s), "s");
            put("peak_rss_mb", peak_rss_mb, "MB");
            put("compress_edges_per_s", compress_edges_per_s, "edges/s");
            put("bits_per_edge", bits_per_edge, "bits/edge");
            put("serve_cpu_us_per_req", serve_cpu_us, "us");
        }
        Some(ladder) => {
            let untraced_ms: f64 = walls.iter().sum();
            let stage_ms = |name: &str| tracer.ms_of(name).iter().sum::<f64>();
            let mut order_ms = 0.0;
            for (i, (_, inp)) in corpus.iter().enumerate() {
                order_ms += compress::order_ms(&inp.graph, &tracer, i as u64);
            }
            let sum = |f: fn(&CompressStats) -> usize| {
                outputs.iter().map(|o| f(&o.stats)).sum::<usize>() as f64
            };
            put("hypergraph.order_ms", order_ms, "ms");
            put("core.new_ms", stage_ms("core.new"), "ms");
            put("core.count_ms", stage_ms("core.count"), "ms");
            put("core.replace_ms", stage_ms("core.replace"), "ms");
            put("core.virtual_ms", stage_ms("core.virtual"), "ms");
            put("core.finish_ms", stage_ms("core.finish"), "ms");
            put("core.rounds", sum(|s| s.rounds), "count");
            put("core.replacements", sum(|s| s.replacements), "count");
            put("core.rules_created", sum(|s| s.rules_created), "count");
            put("core.rules_pruned", sum(|s| s.rules_pruned), "count");
            put("core.virtual_edges", sum(|s| s.virtual_edges), "count");
            put("core.grammar_size", sum(|s| s.grammar_size), "count");
            let created = sum(|s| s.rules_created);
            put(
                "core.rule_survival",
                (created - sum(|s| s.rules_pruned)) / created.max(1.0),
                "ratio",
            );
            put("codec.encode_ms", stage_ms("codec.encode"), "ms");
            put("codec.decode_ms", stage_ms("codec.decode"), "ms");
            put(
                "codec.container_bytes",
                outputs.iter().map(|o| o.container.len()).sum::<usize>() as f64,
                "bytes",
            );
            let stage_sum: f64 = compress::STAGES.iter().map(|s| stage_ms(s)).sum();
            let coverage = stage_sum / untraced_ms;
            eprintln!(
                "compress stages sum to {coverage:.3} of the untraced wall time, {:.4} of the traced",
                stage_sum / traced_ms
            );
            if (coverage - 1.0).abs() > STAGE_TOLERANCE {
                eprintln!("warning: stage coverage outside 1 +- {STAGE_TOLERANCE}");
            }
            put("bench.stage_coverage", coverage, "ratio");
            put(
                "bench.trace_overhead",
                traced_ms / untraced_ms - 1.0,
                "ratio",
            );
            put(
                "bench.gen_late_ms",
                windowed(&ref_outcome.late_ms, 99.0),
                "ms",
            );
            // Client-observed latencies and capacity, reported unbounded: on
            // a shared two-core host their run-to-run spread is wider than
            // any usable bound.
            put("client.read_p50_ms", windowed(&read_lat, 50.0), "ms");
            put("client.read_p99_ms", windowed(&read_lat, 99.0), "ms");
            put("client.read_max_qps", ladder.max_qps, "q/s");
            put("client.patch_p50_ms", windowed(&patch_lat, 50.0), "ms");
            put("client.patch_p99_ms", windowed(&patch_lat, 99.0), "ms");
            let inputs = layers::Inputs {
                tenants: &tenants,
                reads: &ref_ops,
                patches: &patch_ops,
                lines_per_batch,
                client_p50_ms: read.p50,
                server_patch_rss_mb: patch_rss_mb,
            };
            metrics.extend(layers::probe(&inputs, &tracer, opts.seed)?);
            let traces = out_dir().join("perfbench-traces");
            let _ = std::fs::create_dir_all(&traces);
            let path = traces.join(format!("{}-{}.jsonl", w.name(), opts.seed));
            tracer
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("{} spans written to {}", tracer.len(), path.display());
        }
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        mismatches.push(format!("metric {name} is not finite"));
    }
    Ok(Report {
        correct: failed == 0 && mismatches.is_empty(),
        attempted,
        failed,
        metrics,
    })
}
