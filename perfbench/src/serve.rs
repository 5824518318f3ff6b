//! The serving side of a workload: request mixes, the open-loop phases
//! against a `grepair store serve` process, and the reply oracle.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use grepair_store::{error_reply, parse_query, EdgePatch, GraphStore, PatchOp, VersionedStore};

use crate::client::{Connection, Outcome, Timed};
use crate::stats::{backlog_growing, Rng, Summary};

/// One container the server holds. Tenant 0 is the server's `default`
/// namespace and the one `PATCH` lines modify.
pub struct Tenant {
    pub ns: String,
    pub container: Vec<u8>,
    pub nodes: u64,
    /// Nodes a read picks three times in four (the skewed popularity of
    /// serving traffic); the rest are uniform.
    hot: Vec<u64>,
}

impl Tenant {
    pub fn new(ns: &str, container: Vec<u8>, rng: &mut Rng) -> Result<Tenant, String> {
        let nodes = GraphStore::from_bytes(&container)
            .map_err(|e| format!("{ns}: {e}"))?
            .total_nodes();
        let hot = (0..61).map(|_| rng.below(nodes)).collect();
        Ok(Tenant {
            ns: ns.to_string(),
            container,
            nodes,
            hot,
        })
    }

    fn pick(&self, rng: &mut Rng) -> u64 {
        if rng.below(4) == 0 {
            rng.below(self.nodes)
        } else {
            self.hot[rng.below(self.hot.len() as u64) as usize]
        }
    }
}

/// Query classes, in the order the per-class metrics use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Out,
    In,
    Neighbors,
    Reach,
    Rpq,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Out,
        Class::In,
        Class::Neighbors,
        Class::Reach,
        Class::Rpq,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Out => "out",
            Class::In => "in",
            Class::Neighbors => "neighbors",
            Class::Reach => "reach",
            Class::Rpq => "rpq",
        }
    }
}

/// One request line and what the oracle needs to check its reply.
#[derive(Debug, Clone)]
pub enum Op {
    Read {
        tenant: usize,
        class: Class,
        text: String,
        pin: Option<u64>,
    },
    Patch(EdgePatch),
    /// An admin line whose reply is checked only for not being an error.
    Admin(String),
}

impl Op {
    pub fn line(&self, tenants: &[Tenant]) -> String {
        match self {
            Op::Read {
                tenant, text, pin, ..
            } => match pin {
                Some(v) => format!("{}:{text} @v{v}", tenants[*tenant].ns),
                None => format!("{}:{text}", tenants[*tenant].ns),
            },
            Op::Patch(patch) => format!("PATCH {patch}"),
            Op::Admin(line) => line.clone(),
        }
    }

    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read { .. })
    }
}

fn point_read(tenant: usize, v: u64, rng: &mut Rng, pin: Option<u64>) -> Op {
    let class = [Class::Out, Class::In, Class::Neighbors][rng.below(3) as usize];
    Op::Read {
        tenant,
        class,
        text: format!("{} {v}", class.name()),
        pin,
    }
}

/// The read mix: point lookups (`out`/`in`/`neighbors`) on hot/cold-skewed
/// nodes, with a `traversal` share of `reach` (four fifths) and two-hop
/// `rpq` (one fifth) between uniform endpoints, so no two traversals share
/// work; tenants are chosen uniformly.
pub fn reads(tenants: &[Tenant], count: usize, traversal: f64, rng: &mut Rng) -> Vec<Op> {
    (0..count)
        .map(|_| {
            let tenant = rng.below(tenants.len() as u64) as usize;
            let tn = &tenants[tenant];
            let u = rng.unit();
            if u < traversal * 0.8 {
                let text = format!("reach {} {}", rng.below(tn.nodes), rng.below(tn.nodes));
                Op::Read {
                    tenant,
                    class: Class::Reach,
                    text,
                    pin: None,
                }
            } else if u < traversal {
                let pattern = if rng.below(2) == 0 { "0 0" } else { "0 1" };
                let text = format!(
                    "rpq {} {} {pattern}",
                    rng.below(tn.nodes),
                    rng.below(tn.nodes)
                );
                Op::Read {
                    tenant,
                    class: Class::Rpq,
                    text,
                    pin: None,
                }
            } else {
                point_read(tenant, tn.pick(rng), rng, None)
            }
        })
        .collect()
}

/// `count` patches on tenant 0 in `ADD`/`DEL` pairs of label-0 edges it
/// lacks: each pair leaves the graph as it was, so the patch log grows but
/// the head's delta stays a single edge.
pub fn add_del_pairs(base: &GraphStore, count: usize, rng: &mut Rng) -> Result<Vec<Op>, String> {
    let n = base.total_nodes();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (s, t) = (rng.below(n), rng.below(n));
        if s == t
            || base
                .out_edges(s)
                .map_err(|e| e.to_string())?
                .binary_search(&(0, t))
                .is_ok()
        {
            continue;
        }
        for op in [PatchOp::Add, PatchOp::Del] {
            out.push(Op::Patch(EdgePatch { op, s, label: 0, t }));
        }
    }
    out.truncate(count);
    Ok(out)
}

/// The write stream: patches interleaved with head reads (half on the
/// endpoints of recent patches), `@v0`-pinned reads and a `reach` share
/// of head traversals, all on tenant 0.
pub fn write_stream(
    tenants: &[Tenant],
    patches: &[Op],
    count: usize,
    patch_share: f64,
    reach: f64,
    rng: &mut Rng,
) -> Vec<Op> {
    let mut next = 0;
    let mut recent: Vec<u64> = Vec::new();
    let tn = &tenants[0];
    (0..count)
        .map(|_| {
            let u = rng.unit();
            if u < patch_share && next < patches.len() {
                if let Op::Patch(p) = patches[next] {
                    recent.push(p.s);
                    recent.push(p.t);
                    if recent.len() > 64 {
                        recent.drain(..2);
                    }
                }
                next += 1;
                return patches[next - 1].clone();
            }
            let v = match recent.len() {
                0 => tn.pick(rng),
                len if rng.below(2) == 0 => recent[rng.below(len as u64) as usize],
                _ => tn.pick(rng),
            };
            if u < 0.9 - reach {
                point_read(0, v, rng, None)
            } else if u < 1.0 - reach {
                point_read(0, tn.pick(rng), rng, Some(0))
            } else {
                let text = format!("reach {v} {}", rng.below(tn.nodes));
                Op::Read {
                    tenant: 0,
                    class: Class::Reach,
                    text,
                    pin: None,
                }
            }
        })
        .collect()
}

/// Spread `ops` evenly at `rate` per second.
pub fn schedule(ops: &[Op], tenants: &[Tenant], rate: f64) -> Vec<Timed> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| Timed {
            line: op.line(tenants),
            due: Duration::from_secs_f64(i as f64 / rate),
        })
        .collect()
}

/// Every request sent on the connection, in order, with its reply.
#[derive(Default)]
pub struct Log {
    pub entries: Vec<(Op, Option<(String, f64)>)>,
}

impl Log {
    /// Run `ops` open loop at `rate` and log them; returns the outcome.
    pub fn run(
        &mut self,
        conn: &mut Connection,
        tenants: &[Tenant],
        ops: &[Op],
        rate: f64,
    ) -> Outcome {
        let outcome = conn.open_loop(&schedule(ops, tenants, rate), Duration::from_secs(10));
        for (op, reply) in ops.iter().zip(&outcome.replies) {
            self.entries.push((op.clone(), reply.clone()));
        }
        outcome
    }
}

/// Latencies (ms) of the requests of `outcome` that satisfy `keep`.
pub fn latencies(ops: &[Op], outcome: &Outcome, keep: impl Fn(&Op) -> bool) -> Vec<f64> {
    ops.iter()
        .zip(&outcome.replies)
        .filter(|(op, _)| keep(op))
        .map(|(_, r)| r.as_ref().map_or(f64::INFINITY, |(_, ms)| *ms))
        .collect()
}

/// The read-rate ladder: rung `k` offers `LADDER_BASE * LADDER_STEP^k`
/// reads per second, from 250 q/s to about 47k q/s.
const LADDER_BASE: f64 = 250.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RUNGS: usize = 56;
/// The read p99 a rung must meet (ms).
const LADDER_LIMIT_MS: f64 = 50.0;
/// Rungs one gallop step skips (1.1^3 ≈ 1.33x the rate).
const GALLOP: usize = 3;

pub struct Ladder {
    /// Measured throughput at the highest passing rung (0 if none passed).
    pub max_qps: f64,
    /// (offered rate, read p99 ms, backlog growing, passed) per probe.
    pub probes: Vec<(f64, f64, bool, bool)>,
}

/// Find the highest rung of the fixed ladder whose read p99 meets
/// [`LADDER_LIMIT_MS`] without a growing backlog: gallop up from the rung nearest
/// `start_rate` until one fails (down until one passes, if the start
/// fails), then bisect the last step. A missing or failed reply misses
/// the limit.
pub fn ladder(
    conn: &mut Connection,
    log: &mut Log,
    tenants: &[Tenant],
    mix: impl Fn(usize, &mut Rng) -> Vec<Op>,
    start_rate: f64,
    rung_s: f64,
    rng: &mut Rng,
) -> Ladder {
    let mut result = Ladder {
        max_qps: 0.0,
        probes: Vec::new(),
    };
    let mut probe = |k: usize, result: &mut Ladder| -> bool {
        let rate = LADDER_BASE * LADDER_STEP.powi(k as i32);
        let ops = mix(((rate * rung_s) as usize).max(40), rng);
        let outcome = log.run(conn, tenants, &ops, rate);
        let lat = latencies(&ops, &outcome, |_| true);
        let failed = outcome
            .replies
            .iter()
            .any(|r| r.as_ref().is_none_or(|(text, _)| is_failure(text)));
        let p99 = Summary::at(&lat, 99.0).unwrap_or_else(|| Summary::of(&lat).tail);
        let growing = backlog_growing(&lat);
        let pass = !failed && p99 <= LADDER_LIMIT_MS && !growing;
        result.probes.push((rate, p99, growing, pass));
        if pass {
            result.max_qps = outcome.throughput();
        }
        pass && !conn.broken
    };
    let start = ((start_rate / LADDER_BASE).ln() / LADDER_STEP.ln())
        .round()
        .clamp(0.0, (LADDER_RUNGS - 1) as f64) as usize;
    // The highest rung known to pass and the lowest known to fail.
    let (mut lo, mut hi): (Option<usize>, Option<usize>);
    if probe(start, &mut result) {
        (lo, hi) = (Some(start), None);
        let mut k = start;
        while k + 1 < LADDER_RUNGS {
            k = (k + GALLOP).min(LADDER_RUNGS - 1);
            if !probe(k, &mut result) {
                hi = Some(k);
                break;
            }
            lo = Some(k);
        }
    } else {
        (lo, hi) = (None, Some(start));
        let mut k = start;
        while k > 0 {
            k = k.saturating_sub(GALLOP);
            if probe(k, &mut result) {
                lo = Some(k);
                break;
            }
            hi = Some(k);
        }
    }
    while let (Some(l), Some(h)) = (lo, hi) {
        if h - l <= 1 {
            break;
        }
        let mid = (l + h) / 2;
        if probe(mid, &mut result) {
            lo = Some(mid);
        } else {
            hi = Some(mid);
        }
    }
    result
}

/// Replies that count as failed operations whatever the oracle says.
pub fn is_failure(reply: &str) -> bool {
    reply.starts_with("error:") || reply == "busy"
}

/// Replays the log in process: reads against a `GraphStore` on the same
/// container bytes (tenant 0 through a `VersionedStore` fed the same patch
/// sequence, so each read is checked at the version it saw).
pub struct Oracle {
    stores: Vec<Arc<GraphStore>>,
    versioned: VersionedStore,
    patches: u64,
    memo: HashMap<(usize, u64, String), String>,
}

impl Oracle {
    pub fn new(tenants: &[Tenant]) -> Result<Oracle, String> {
        let stores = tenants
            .iter()
            .map(|t| {
                GraphStore::from_bytes(&t.container)
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let versioned = VersionedStore::new(Arc::clone(&stores[0])).map_err(|e| e.to_string())?;
        Ok(Oracle {
            stores,
            versioned,
            patches: 0,
            memo: HashMap::new(),
        })
    }

    /// The reply the server must have given to `op`, given every earlier
    /// op of the log; `Err` describes a mismatch.
    pub fn check(&mut self, op: &Op, reply: &str) -> Result<(), String> {
        match op {
            Op::Read {
                tenant, text, pin, ..
            } => {
                let version = if *tenant == 0 {
                    pin.unwrap_or(self.patches)
                } else {
                    0
                };
                let key = (*tenant, version, text.clone());
                if !self.memo.contains_key(&key) {
                    let store = if *tenant == 0 {
                        self.versioned.at(version).map_err(|e| e.to_string())?
                    } else {
                        Arc::clone(&self.stores[*tenant])
                    };
                    let expected = match parse_query(text) {
                        Ok(q) => match store.query(&q) {
                            Ok(answer) => answer.to_string(),
                            Err(e) => error_reply(e),
                        },
                        Err(e) => error_reply(e),
                    };
                    self.memo.insert(key.clone(), expected);
                }
                let expected = &self.memo[&key];
                if expected == reply {
                    Ok(())
                } else {
                    Err(format!(
                        "{text} at v{version}: got {reply:?}, want {expected:?}"
                    ))
                }
            }
            Op::Patch(patch) => {
                let (summary, _) = self
                    .versioned
                    .apply(*patch)
                    .map_err(|e| format!("replay {patch}: {e}"))?;
                self.patches += 1;
                let head = format!("patched version={} ", summary.version);
                let tail = format!(" added={} removed={}", summary.added, summary.removed);
                if reply.starts_with(&head) && reply.ends_with(&tail) {
                    Ok(())
                } else {
                    Err(format!("{patch}: got {reply:?}, want {head}... {tail}"))
                }
            }
            Op::Admin(line) if is_failure(reply) => Err(format!("{line}: {reply}")),
            Op::Admin(_) => Ok(()),
        }
    }
}

/// Check every logged reply; returns (attempted, failed, first mismatch).
pub fn verify(log: &Log, tenants: &[Tenant]) -> Result<(u64, u64, Option<String>), String> {
    let mut oracle = Oracle::new(tenants)?;
    let mut failed = 0;
    let mut first = None;
    for (op, reply) in &log.entries {
        let outcome = match reply {
            None => Err(format!("no reply to {:?}", op.line(tenants))),
            Some((text, _)) if is_failure(text) && !matches!(op, Op::Admin(_)) => {
                Err(format!("{:?} failed: {text}", op.line(tenants)))
            }
            Some((text, _)) => oracle.check(op, text),
        };
        if let Err(e) = outcome {
            failed += 1;
            first.get_or_insert(e);
        }
    }
    Ok((log.entries.len() as u64, failed, first))
}

/// `queries=` and `batches=` from a `STATS <name>` reply.
pub fn stats_counts(reply: &str) -> (u64, u64) {
    let field = |key: &str| {
        reply
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("queries="), field("batches="))
}
