//! In-process per-layer timings for the traced run: spans around the
//! public calls of the store and server crates, replayed over the same
//! requests and containers the socket run used.

use std::sync::Arc;
use std::time::Instant;

use grepair_server::{serve_session, SessionOpts, WorkerPool};
use grepair_store::{parse_query, GraphStore, Query, StoreRegistry, VersionedStore};

use crate::serve::{Class, Op, Tenant};
use crate::stats::{median, Rng};
use crate::trace::Tracer;

pub type Metric = (String, f64, &'static str);

/// `reach`/`rpq` queries added to the replayed reads.
const TRAVERSAL_PROBES: usize = 40;

pub struct Inputs<'a> {
    pub tenants: &'a [Tenant],
    /// The reference phase's requests, in send order; their reads are
    /// replayed against the unpatched containers (the patched versions are
    /// timed by the `store.version.*` metrics).
    pub reads: &'a [Op],
    /// Every patch sent to tenant 0, in order.
    pub patches: &'a [Op],
    /// Lines per evaluated batch, from the server's `STATS`.
    pub lines_per_batch: f64,
    /// Client-observed read p50 of the reference phase.
    pub client_p50_ms: f64,
    /// How much the server's resident set grew over the write stream.
    pub server_patch_rss_mb: f64,
}

fn open_all(tenants: &[Tenant], tracer: &Tracer) -> Result<Vec<GraphStore>, String> {
    tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            tracer
                .span("store.open", i as u64, || {
                    GraphStore::from_bytes(&t.container)
                })
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn us(ms: &[f64]) -> f64 {
    if ms.is_empty() {
        0.0
    } else {
        median(ms) * 1e3
    }
}

pub fn probe(input: &Inputs, tracer: &Tracer, seed: u64) -> Result<Vec<Metric>, String> {
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));

    // Decode + index, three times.
    let mut open_ms = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        open_all(input.tenants, tracer)?;
        open_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    put("store.open_ms", median(&open_ms), "ms");

    // Parse, route, and answer every read one at a time, plus a fixed set
    // of traversals so every query class is timed on every workload.
    let mut rng = Rng::new(seed ^ 0xabcd);
    let traversals = crate::serve::reads(input.tenants, TRAVERSAL_PROBES, 1.0, &mut rng);
    let registry = registry_for(input.tenants)?;
    let mut engine_ms = 0.0;
    let mut lines = Vec::new();
    for (i, op) in input.reads.iter().chain(&traversals).enumerate() {
        let Op::Read {
            tenant,
            class,
            text,
            ..
        } = op
        else {
            continue;
        };
        let group = i as u64;
        let q = tracer
            .span("store.parse", group, || parse_query(text))
            .map_err(|e| e.to_string())?;
        let ns = &input.tenants[*tenant].ns;
        let store = tracer
            .span("store.route", group, || registry.store(ns))
            .map_err(|e| e.to_string())?;
        let name = match class {
            Class::Out => "store.query.out",
            Class::In => "store.query.in",
            Class::Neighbors => "store.query.neighbors",
            Class::Reach => "store.query.reach",
            Class::Rpq => "store.query.rpq",
        };
        let start = Instant::now();
        let _ = tracer.span(name, group, || store.query(&q));
        if !matches!(class, Class::Reach | Class::Rpq) {
            engine_ms += start.elapsed().as_secs_f64() * 1e3;
            lines.push(format!("{ns}:{text}"));
        }
    }
    put("store.parse_us", us(&tracer.ms_of("store.parse")), "us");
    put("store.route_us", us(&tracer.ms_of("store.route")), "us");
    for class in Class::ALL {
        let name = format!("store.query.{}", class.name());
        put(
            &format!("store.query_us.{}", class.name()),
            us(&tracer.ms_of(&name)),
            "us",
        );
    }

    // Batches of the size the server formed, on fresh stores so the cache
    // counters cover this replay only.
    let fresh = open_all(input.tenants, &Tracer::new())?;
    let batch = (input.lines_per_batch.round() as usize).max(1);
    let reads: Vec<(usize, Query)> = input
        .reads
        .iter()
        .filter_map(|op| match op {
            Op::Read { tenant, text, .. } => parse_query(text).ok().map(|q| (*tenant, q)),
            _ => None,
        })
        .collect();
    for (i, chunk) in reads.chunks(batch).enumerate() {
        tracer.span("store.batch", i as u64, || {
            for (t, store) in fresh.iter().enumerate() {
                let qs: Vec<Query> = chunk
                    .iter()
                    .filter(|(tn, _)| *tn == t)
                    .map(|(_, q)| q.clone())
                    .collect();
                if !qs.is_empty() {
                    std::hint::black_box(store.query_batch(&qs));
                }
            }
        });
    }
    put("store.batch_us", us(&tracer.ms_of("store.batch")), "us");
    let (mut eh, mut em, mut ph, mut pm) = (0u64, 0u64, 0u64, 0u64);
    for store in &fresh {
        let s = store.stats();
        eh += s.expansion_cache_hits;
        em += s.expansion_cache_misses;
        ph += s.rpq_plan_hits;
        pm += s.rpq_plan_misses;
    }
    let rate = |h: u64, miss: u64| {
        if h + miss == 0 {
            0.0
        } else {
            h as f64 / (h + miss) as f64
        }
    };
    put("store.expansion_cache_hit_rate", rate(eh, em), "ratio");
    put("store.rpq_plan_hit_rate", rate(ph, pm), "ratio");

    // The session engine over the recorded point lookups (the median
    // request's class), in memory: its per-line time is what the socket
    // adds to.
    let stream = lines.join("\n") + "\n";
    let session_registry = registry_for(input.tenants)?;
    let pool = WorkerPool::new(1);
    let mut sink = Vec::new();
    let start = Instant::now();
    tracer
        .span("server.session", 0, || {
            serve_session(
                &session_registry,
                &pool,
                &mut stream.as_bytes(),
                &mut sink,
                &SessionOpts::default(),
            )
        })
        .map_err(|e| e.to_string())?;
    let session_us_per_line = start.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64;
    let engine_us_per_line = engine_ms * 1e3 / lines.len().max(1) as f64;
    put(
        "server.session_us",
        session_us_per_line - engine_us_per_line,
        "us",
    );
    put(
        "server.socket_us",
        input.client_p50_ms * 1e3 - session_us_per_line,
        "us",
    );
    put("server.lines_per_batch", input.lines_per_batch, "lines");

    // The patch log on tenant 0, replayed.
    let base =
        Arc::new(GraphStore::from_bytes(&input.tenants[0].container).map_err(|e| e.to_string())?);
    let versioned = VersionedStore::new(base).map_err(|e| e.to_string())?;
    for (i, op) in input.patches.iter().enumerate() {
        if let Op::Patch(patch) = op {
            tracer
                .span("store.version.apply", i as u64, || versioned.apply(*patch))
                .map_err(|e| e.to_string())?;
        }
    }
    let apply = tracer.ms_of("store.version.apply");
    let window = (apply.len() / 2).clamp(1, 200);
    put(
        "store.version.apply_us.first",
        us(&apply[..window.min(apply.len())]),
        "us",
    );
    put(
        "store.version.apply_us.last",
        us(&apply[apply.len().saturating_sub(window)..]),
        "us",
    );
    put("store.version.rss_mb", input.server_patch_rss_mb, "MB");
    let head = versioned.head();
    let v0 = versioned.at(0).map_err(|e| e.to_string())?;
    let n = head.total_nodes();
    for i in 0..200u64 {
        let v = rng.below(n);
        let _ = tracer.span("store.version.head_out", i, || {
            head.query(&Query::OutNeighbors(v))
        });
        let _ = tracer.span("store.version.v0_out", i, || {
            v0.query(&Query::OutNeighbors(v))
        });
    }
    for i in 0..50u64 {
        let (s, t) = (rng.below(n), rng.below(n));
        let _ = tracer.span("store.version.head_reach", i, || {
            head.query(&Query::Reach { s, t })
        });
    }
    put(
        "store.version.head_out_us",
        us(&tracer.ms_of("store.version.head_out")),
        "us",
    );
    put(
        "store.version.v0_out_us",
        us(&tracer.ms_of("store.version.v0_out")),
        "us",
    );
    put(
        "store.version.head_reach_us",
        us(&tracer.ms_of("store.version.head_reach")),
        "us",
    );
    Ok(m)
}

fn registry_for(tenants: &[Tenant]) -> Result<StoreRegistry, String> {
    let registry = StoreRegistry::new(
        GraphStore::from_bytes(&tenants[0].container).map_err(|e| e.to_string())?,
    );
    for t in &tenants[1..] {
        registry
            .attach_store(
                &t.ns,
                GraphStore::from_bytes(&t.container).map_err(|e| e.to_string())?,
            )
            .map_err(|e| e.to_string())?;
    }
    Ok(registry)
}
