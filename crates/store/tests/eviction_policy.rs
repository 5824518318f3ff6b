//! Property test for the multi-tenant registry's eviction policy
//! (DESIGN.md §8): random `ATTACH` / `DETACH` / query / `RELOAD` / budget
//! interleavings must preserve the serving invariants —
//!
//! * **budget**: after every operation the resident container bytes fit
//!   the configured budget, except when a single just-touched store alone
//!   exceeds it (evicting the store a request is about to use would force
//!   an immediate reopen, so at most one evictable store may remain
//!   over-budget),
//! * **monotonic generations**: a namespace's generation never decreases
//!   across any interleaving, and a successful reload bumps it by exactly
//!   one — transparent evict/reopen cycles bump nothing,
//! * **byte identity**: a store that was evicted and reopened answers
//!   exactly like a twin loaded from the same container that was never
//!   evicted.

use std::collections::HashMap;
use std::sync::OnceLock;

use proptest::prelude::*;

use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::Hypergraph;
use grepair_store::{write_container, GraphStore, Query, StoreRegistry};
use grepair_util::tmp::TempPath;

/// The tenant pool: four names over three distinct containers.
const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const SIZES: [u32; 3] = [8, 12, 16];

struct Fixture {
    /// Container paths, one per entry of `SIZES`.
    paths: Vec<TempPath>,
    /// Never-evicted twin stores, one per container.
    twins: Vec<GraphStore>,
    /// Container file sizes in bytes.
    bytes: Vec<u64>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut paths = Vec::new();
        let mut twins = Vec::new();
        let mut bytes = Vec::new();
        for &reps in &SIZES {
            let (g, _) = Hypergraph::from_simple_edges(
                (2 * reps + 1) as usize,
                (0..reps).flat_map(|k| [(2 * k, 0u32, 2 * k + 1), (2 * k + 1, 1u32, 2 * k + 2)]),
            );
            let out = compress(&g, &GRePairConfig::default());
            let enc = grepair_codec::encode(&out.grammar);
            let file = write_container(&enc.bytes, enc.bit_len);
            let path = TempPath::new("grepair_evict_prop", ".g2g");
            std::fs::write(&path, &file).unwrap();
            bytes.push(file.len() as u64);
            twins.push(GraphStore::from_bytes(&file).unwrap());
            paths.push(path);
        }
        Fixture { paths, twins, bytes }
    })
}

/// One step of the interleaving. Indices are mapped onto `NAMES` /
/// `SIZES`; budgets are in units of the smallest container's size so the
/// interesting regimes (zero, below-one-store, a-few-stores, unlimited)
/// all occur.
#[derive(Debug, Clone)]
enum Op {
    Attach { name: usize, file: usize },
    AttachCold { name: usize, file: usize },
    Detach { name: usize },
    Query { name: usize, node: u64 },
    Reload { name: usize, file: Option<usize> },
    SetBudget { half_stores: Option<u64> },
}

fn op_strategy() -> BoxedStrategy<Op> {
    let name = 0..NAMES.len();
    let file = 0..SIZES.len();
    prop_oneof![
        (name.clone(), file.clone()).prop_map(|(name, file)| Op::Attach { name, file }),
        (name.clone(), file.clone()).prop_map(|(name, file)| Op::AttachCold { name, file }),
        name.clone().prop_map(|name| Op::Detach { name }),
        (name.clone(), 0u64..40).prop_map(|(name, node)| Op::Query { name, node }),
        (name.clone(), prop_oneof![Just(None), file.prop_map(Some)])
            .prop_map(|(name, file)| Op::Reload { name, file }),
        prop_oneof![Just(None), (0u64..7).prop_map(Some)]
            .prop_map(|half_stores| Op::SetBudget { half_stores }),
    ]
    .boxed()
}

/// What the test tracks per registered namespace.
struct Model {
    /// Index into the fixture's containers this namespace currently serves.
    file: usize,
    /// Last generation observed for it.
    generation: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleavings_preserve_eviction_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let fx = fixture();
        let registry = StoreRegistry::new(GraphStore::from_bytes(
            &std::fs::read(&fx.paths[0]).unwrap(),
        ).unwrap());
        let mut model: HashMap<&str, Model> = HashMap::new();
        let mut budget: Option<u64> = None;

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Attach { name, file } => {
                    let name = NAMES[name];
                    let taken = model.contains_key(name);
                    let result = registry.attach(name, fx.paths[file].as_str());
                    if taken {
                        prop_assert!(result.is_err(), "step {step}: duplicate attach must fail");
                    } else {
                        let store = result.unwrap();
                        prop_assert_eq!(store.generation(), 1);
                        model.insert(name, Model { file, generation: 1 });
                    }
                }
                Op::AttachCold { name, file } => {
                    let name = NAMES[name];
                    let taken = model.contains_key(name);
                    let result = registry.attach_cold(name, fx.paths[file].as_str());
                    if taken {
                        prop_assert!(result.is_err());
                    } else {
                        result.unwrap();
                        model.insert(name, Model { file, generation: 0 });
                    }
                }
                Op::Detach { name } => {
                    let name = NAMES[name];
                    let known = model.remove(name).is_some();
                    prop_assert_eq!(registry.detach(name).is_ok(), known, "step {step}");
                }
                Op::Query { name, node } => {
                    let name = NAMES[name];
                    match model.get_mut(name) {
                        None => prop_assert!(registry.store(name).is_err()),
                        Some(m) => {
                            // Resolution must succeed whether the store is
                            // resident, cold-attached, or evicted — and the
                            // answer must match the never-evicted twin's.
                            let store = registry.store(name).unwrap();
                            let twin = &fx.twins[m.file];
                            prop_assert_eq!(
                                store.query(&Query::OutNeighbors(node)),
                                twin.query(&Query::OutNeighbors(node)),
                                "step {}: {} diverged from its twin", step, name
                            );
                            prop_assert_eq!(
                                store.query(&Query::Reach { s: 0, t: node }),
                                twin.query(&Query::Reach { s: 0, t: node }),
                            );
                            // First open moves a cold namespace to gen 1;
                            // nothing else about resolution may bump it.
                            let expect = m.generation.max(1);
                            prop_assert_eq!(store.generation(), expect, "step {step}");
                            m.generation = expect;
                        }
                    }
                }
                Op::Reload { name, file } => {
                    let name = NAMES[name];
                    match model.get_mut(name) {
                        None => {
                            prop_assert!(registry.reload(name, file.map(|f| fx.paths[f].as_str())).is_err());
                        }
                        Some(m) => {
                            let path = file.map(|f| fx.paths[f].as_str());
                            let reloaded = registry.reload(name, path).unwrap();
                            // A successful reload bumps by exactly one.
                            prop_assert_eq!(reloaded.generation(), m.generation + 1, "step {step}");
                            m.generation += 1;
                            if let Some(f) = file {
                                m.file = f;
                            }
                        }
                    }
                }
                Op::SetBudget { half_stores } => {
                    budget = half_stores.map(|h| h * fx.bytes[0] / 2);
                    registry.set_budget(budget);
                }
            }

            // --- Invariants after *every* operation ---

            // Generations never decrease (checked against the model, which
            // only ever ratchets).
            for (name, m) in &model {
                prop_assert_eq!(registry.generation_of(name).unwrap(), m.generation,
                    "step {}: generation of {} moved unexpectedly", step, name);
            }

            // Budget: resident bytes fit, or at most one evictable store
            // remains (the just-touched one, which may alone exceed it).
            if let Some(b) = budget {
                let resident = registry.resident_bytes();
                if resident > b {
                    let evictable_resident = registry
                        .list()
                        .into_iter()
                        .filter(|(name, resident, _)| *resident && name != "default")
                        .count();
                    prop_assert!(evictable_resident <= 1,
                        "step {step}: {resident} bytes resident over budget {b} with \
                         {evictable_resident} evictable stores");
                }
            }
        }

        // End state: every registered namespace still answers, identically
        // to its twin, whatever was evicted along the way.
        for (name, m) in &model {
            let store = registry.store(name).unwrap();
            let twin = &fx.twins[m.file];
            prop_assert_eq!(store.total_nodes(), twin.total_nodes());
            for v in 0..twin.total_nodes() {
                prop_assert_eq!(
                    store.query(&Query::OutNeighbors(v)),
                    twin.query(&Query::OutNeighbors(v)),
                    "final check: {} node {}", name, v
                );
            }
        }
    }
}
