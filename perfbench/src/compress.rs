//! The compress path: `Compressor` stages, then `grepair_codec::encode`,
//! with an optional span around every stage, and the round-trip oracle.

use std::time::Instant;

use grepair_codec::{decode, encode};
use grepair_core::{CompressStats, Compressor, GRePairConfig};
use grepair_hypergraph::order::compute_order;
use grepair_hypergraph::{Hypergraph, NodeId};
use grepair_store::{parse_container, write_container};

use crate::trace::Tracer;

/// One input graph of a workload.
pub struct Input {
    pub name: &'static str,
    pub graph: Hypergraph,
}

/// What compressing one input produced.
pub struct Output {
    /// The `.g2g` container (the grammar backend's on-disk bytes).
    pub container: Vec<u8>,
    pub bits: u64,
    pub node_map: Vec<NodeId>,
    pub stats: CompressStats,
    /// Wall time of compress plus encode.
    pub wall_ms: f64,
}

/// The compress stages a traced run reports, in pipeline order. Their sum
/// is compared against the untraced wall time of the same call sequence.
pub const STAGES: [&str; 6] = [
    "core.new",
    "core.count",
    "core.replace",
    "core.virtual",
    "core.finish",
    "codec.encode",
];

/// Run `f`, inside a span named `name` when there is a tracer.
fn stage<T>(tracer: Option<&Tracer>, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, group, f),
        None => f(),
    }
}

/// Compress and encode `g` the way `grepair_core::compress` does, one public
/// stage at a time. With a tracer, each stage runs inside its own span;
/// without one, the same calls run bare.
pub fn compress(g: &Hypergraph, tracer: Option<&Tracer>, group: u64) -> Output {
    let config = GRePairConfig::default();
    let start = Instant::now();
    let mut c = stage(tracer, "core.new", group, || Compressor::new(g, &config));
    stage(tracer, "core.count", group, || c.count_all());
    stage(tracer, "core.replace", group, || c.replace_to_fixpoint());
    if config.connect_components {
        stage(tracer, "core.virtual", group, || {
            if c.add_virtual_edges() > 0 {
                c.reset_occurrences();
                c.count_all();
                c.replace_to_fixpoint();
            }
            c.strip_virtual_edges();
        });
    }
    let out = stage(tracer, "core.finish", group, || c.finish());
    let encoded = stage(tracer, "codec.encode", group, || encode(&out.grammar));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Output {
        container: write_container(&encoded.bytes, encoded.bit_len),
        bits: encoded.bit_len,
        node_map: out.node_map,
        stats: out.stats,
        wall_ms,
    }
}

/// Time the node order on its own (it also runs inside `Compressor::new`).
pub fn order_ms(g: &Hypergraph, tracer: &Tracer, group: u64) -> f64 {
    let start = Instant::now();
    tracer.span("hypergraph.order", group, || {
        std::hint::black_box(compute_order(g, GRePairConfig::default().order))
    });
    start.elapsed().as_secs_f64() * 1e3
}

/// The compress oracle: decode the container, derive the grammar, map it
/// through the node map, and compare with the input's edge multiset.
pub fn round_trips(
    input: &Hypergraph,
    out: &Output,
    tracer: Option<&Tracer>,
    group: u64,
) -> Result<(), String> {
    let (bit_len, payload) = parse_container(&out.container).map_err(|e| e.to_string())?;
    let grammar = stage(tracer, "codec.decode", group, || decode(payload, bit_len))
        .map_err(|e| format!("decode: {e}"))?;
    let derived = grammar.derive();
    let map = &out.node_map;
    if derived.node_bound() > map.len() {
        return Err(format!(
            "node map covers {} of {} derived nodes",
            map.len(),
            derived.node_bound()
        ));
    }
    if derived.edge_multiset_mapped(|v| map[v as usize]) != input.edge_multiset() {
        return Err("derived edge set differs from the input".into());
    }
    Ok(())
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Bytes of a `cpu_set_t` (1024 CPUs, one bit each).
const CPU_SET_BYTES: usize = 128;

/// The CPUs the calling thread may run on, in order; empty when the kernel
/// will not say.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is CPU_SET_BYTES long, the size passed; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..CPU_SET_BYTES * 8)
        .filter(|&c| mask[c / 8] >> (c % 8) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpus`. Best effort: on failure the
/// thread keeps the CPUs it had.
pub fn pin(cpus: &[usize]) {
    let mut mask = [0u8; CPU_SET_BYTES];
    for &c in cpus.iter().filter(|&&c| c < CPU_SET_BYTES * 8) {
        mask[c / 8] |= 1 << (c % 8);
    }
    // SAFETY: `mask` is CPU_SET_BYTES long, the size passed, and is only
    // read; pid 0 is the calling thread.
    unsafe {
        sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr());
    }
}
