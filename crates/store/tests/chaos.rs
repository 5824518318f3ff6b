//! Chaos suite for the store layer (DESIGN.md §10): seeded random fault
//! schedules over a multi-tenant registry, asserting the degradation
//! contract —
//!
//! * **no panics**: every injected fault surfaces as a `GrepairError`,
//!   never an unwind (the whole test passing *is* the assertion),
//! * **generation ratchet**: a namespace's generation never decreases, no
//!   matter which opens, reloads, or evictions the schedule failed,
//! * **recovery**: once the faults clear, every namespace serves again and
//!   answers **byte-identically** to a twin store that never saw a fault,
//! * **isolation**: a namespace driven into an open circuit breaker does
//!   not affect its healthy neighbors.
//!
//! The whole file is compiled only with the `fail` feature — the default
//! test run (tier 1) never pays for it; CI runs it with `--features fail`.

#![cfg(feature = "fail")]

use std::collections::HashMap;
use std::sync::OnceLock;

use grepair_core::{compress, GRePairConfig};
use grepair_hypergraph::Hypergraph;
use grepair_store::{
    write_container, GraphStore, GrepairError, Query, StoreRegistry, BREAKER_COOLDOWN,
    BREAKER_THRESHOLD, COLD_OPEN_ATTEMPTS,
};
use grepair_util::fail;
use grepair_util::tmp::TempPath;

const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
const SIZES: [u32; 3] = [8, 12, 16];

struct Fixture {
    paths: Vec<TempPath>,
    twins: Vec<GraphStore>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut paths = Vec::new();
        let mut twins = Vec::new();
        for &reps in &SIZES {
            let (g, _) = Hypergraph::from_simple_edges(
                (2 * reps + 1) as usize,
                (0..reps).flat_map(|k| [(2 * k, 0u32, 2 * k + 1), (2 * k + 1, 1u32, 2 * k + 2)]),
            );
            let out = compress(&g, &GRePairConfig::default());
            let enc = grepair_codec::encode(&out.grammar);
            let bytes = write_container(&enc.bytes, enc.bit_len);
            let path = TempPath::new("grepair_chaos", ".g2g");
            std::fs::write(&path, &bytes).expect("write fixture container");
            paths.push(path);
            twins.push(GraphStore::from_bytes(&bytes).expect("twin opens"));
        }
        Fixture { paths, twins }
    })
}

/// xorshift64*: the same deterministic generator family the failpoint
/// layer uses, reseeded per test so schedules are reproducible from the
/// seed alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A registry with every tenant attached cold and a budget tight enough
/// that touching all three containers keeps evicting somebody.
fn chaotic_registry(budget: Option<u64>) -> StoreRegistry {
    let f = fixture();
    let registry = StoreRegistry::new(
        GraphStore::from_bytes(&std::fs::read(&f.paths[0]).unwrap()).unwrap(),
    );
    for (name, path) in NAMES.iter().zip(&f.paths) {
        registry.attach_cold(name, path.as_str()).expect("cold attach");
    }
    registry.set_budget(budget);
    registry
}

/// One seeded chaos round: configure a random fault schedule, hammer the
/// registry from several threads, then clear the faults and verify full
/// recovery against the never-faulted twins.
fn run_schedule(seed: u64) {
    let f = fixture();
    fail::clear_all();
    fail::set_seed(seed);
    let mut rng = Rng::new(seed);

    // Random schedule over the store-layer failpoints. `1in(n)` keeps the
    // faults intermittent so both the retry path and the breaker path get
    // exercised across rounds; tiny delays widen race windows.
    let specs = [
        ("store.open.read", ["1in(3):err", "1in(2):err", "nth(2):err", "1in(4):delay(1)+err"]),
        ("registry.cold_open", ["1in(3):err", "first(2):err", "1in(2):delay(1)", "always:delay(1)"]),
        ("reload.swap", ["1in(2):err", "nth(1):err", "1in(3):err", "1in(5):err"]),
        ("registry.evict", ["1in(2):err", "1in(3):delay(1)", "nth(2):err", "1in(4):err"]),
    ];
    for (name, options) in specs {
        if rng.below(4) < 3 {
            let spec = options[rng.below(options.len() as u64) as usize];
            fail::configure(name, spec).expect("valid spec");
        }
    }

    let registry = chaotic_registry(Some(400));
    let threads = 3;
    let ops_per_thread = 60;
    std::thread::scope(|s| {
        for t in 0..threads {
            let registry = &registry;
            let mut rng = Rng::new(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1)));
            s.spawn(move || {
                let mut floor: HashMap<&str, u64> = HashMap::new();
                for _ in 0..ops_per_thread {
                    let ns = NAMES[rng.below(NAMES.len() as u64) as usize];
                    match rng.below(10) {
                        // Reload: success bumps the generation, failure
                        // must leave the old snapshot serving.
                        0 => {
                            let _ = registry.reload(ns, None);
                        }
                        // Health probes interleave with the mutations (a
                        // detach/re-attach op would legitimately reset the
                        // generation and void the ratchet assertion, so
                        // the concurrent schedule sticks to operations
                        // that must preserve it).
                        1 => {
                            let _ = registry.health_of(ns);
                            let _ = registry.aggregate_stats();
                        }
                        // Queries: resolve (maybe a faulty cold open) and
                        // answer; a resolution error is acceptable, a wrong
                        // answer is not.
                        _ => match registry.store(ns) {
                            Err(GrepairError::Io { .. } | GrepairError::Unavailable(_)) => {}
                            Err(other) => panic!("unexpected chaos error: {other}"),
                            Ok(store) => {
                                let node = rng.below(9);
                                let idx = NAMES.iter().position(|n| *n == ns).unwrap();
                                let expect = f.twins[idx].query(&Query::OutNeighbors(node));
                                let got = store.query(&Query::OutNeighbors(node));
                                match (got, expect) {
                                    (Ok(a), Ok(b)) => {
                                        assert_eq!(a.to_string(), b.to_string(), "torn answer")
                                    }
                                    (Err(_), Err(_)) => {}
                                    (a, b) => panic!("answer diverged: {a:?} vs {b:?}"),
                                }
                            }
                        },
                    }
                    // Generation ratchet: never decreases while the
                    // namespace identity is stable.
                    if let Ok(generation) = registry.generation_of(ns) {
                        let last = floor.entry(ns).or_insert(generation);
                        assert!(
                            generation >= *last,
                            "generation ratchet broke: {ns} {generation} < {last}"
                        );
                        *last = generation;
                    }
                }
            });
        }
    });

    // Faults clear ⇒ full recovery: wait out any open breaker, then every
    // namespace must serve byte-identically to its never-faulted twin.
    fail::clear_all();
    std::thread::sleep(BREAKER_COOLDOWN);
    for (idx, name) in NAMES.iter().enumerate() {
        let store = recover(&registry, name);
        for node in 0..u64::from(2 * SIZES[idx] + 1) {
            let got = store.query(&Query::OutNeighbors(node)).map(|a| a.to_string());
            let expect =
                f.twins[idx].query(&Query::OutNeighbors(node)).map(|a| a.to_string());
            assert_eq!(got, expect, "post-chaos divergence at {name}:{node}");
        }
    }
}

/// Resolve a namespace after the faults cleared, riding out at most one
/// half-open probe cycle (the probe itself is fault-free now, so one
/// cooldown is the worst case).
fn recover(registry: &StoreRegistry, name: &str) -> std::sync::Arc<GraphStore> {
    for _ in 0..50 {
        match registry.store(name) {
            Ok(store) => return store,
            Err(_) => std::thread::sleep(BREAKER_COOLDOWN / 5),
        }
    }
    panic!("{name} did not recover after faults cleared");
}

#[test]
fn seeded_fault_schedules_degrade_and_recover() {
    let _faults = fail::scoped();
    for seed in [7, 40_96, 0xdead_beef] {
        run_schedule(seed);
    }
    fail::clear_all();
}

#[test]
fn cold_open_retries_then_breaker_opens_and_half_open_probe_recovers() {
    let _faults = fail::scoped();
    let registry = chaotic_registry(None);

    // Every read fails: one resolution burns all retry attempts.
    fail::configure("registry.cold_open", "always:err").unwrap();
    let mut failures = 0;
    loop {
        match registry.store("alpha") {
            Err(GrepairError::Io { .. }) => failures += 1,
            Err(GrepairError::Unavailable(what)) => {
                assert!(what.contains("circuit open"), "{what}");
                break;
            }
            other => panic!("expected Io then Unavailable, got {other:?}"),
        }
        assert!(failures <= BREAKER_THRESHOLD, "breaker never opened");
    }
    let health = registry.health_of("alpha").unwrap();
    assert!(health.breaker_open);
    assert_eq!(health.breaker_trips, 1);
    // Each failed resolution exhausted the full retry budget.
    assert_eq!(health.open_failures, failures);
    let snapshot = fail::snapshot();
    let point = snapshot.iter().find(|p| p.name == "registry.cold_open").unwrap();
    assert_eq!(point.fired, failures * u64::from(COLD_OPEN_ATTEMPTS));

    // While open, refusals are fast and do not hit the failpoint again.
    let fired_before = point.fired;
    match registry.store("alpha") {
        Err(GrepairError::Unavailable(_)) => {}
        other => panic!("breaker must refuse fast, got {other:?}"),
    }
    let snapshot = fail::snapshot();
    let point = snapshot.iter().find(|p| p.name == "registry.cold_open").unwrap();
    assert_eq!(point.fired, fired_before, "an open breaker must not retry the disk");

    // Isolation: the failpoint is gone but alpha's breaker is still open —
    // beta must serve anyway, with pristine health. (The failpoint itself
    // is process-global, so isolation is the breaker's job, not the
    // fault's.)
    fail::clear_all();
    assert!(registry.store("beta").is_ok());
    assert!(!registry.health_of("beta").unwrap().breaker_open);
    assert_eq!(registry.health_of("beta").unwrap().open_failures, 0);

    // Cooldown elapses: the half-open probe succeeds and the namespace
    // serves again.
    std::thread::sleep(BREAKER_COOLDOWN);
    let store = registry.store("alpha").expect("half-open probe recovers");
    assert!(store.query(&Query::OutNeighbors(0)).is_ok());
    assert!(!registry.health_of("alpha").unwrap().breaker_open);
}

#[test]
fn transient_open_faults_are_retried_invisibly() {
    let _faults = fail::scoped();
    let registry = chaotic_registry(None);
    // First attempt fails, the in-line retry succeeds: the caller never
    // sees an error and the breaker stays closed.
    fail::configure("registry.cold_open", "first(1):err").unwrap();
    let store = registry.store("alpha").expect("retry hides a single transient fault");
    assert!(store.query(&Query::OutNeighbors(0)).is_ok());
    let health = registry.health_of("alpha").unwrap();
    assert!(!health.breaker_open);
    assert_eq!(health.open_failures, 0, "a retried-away fault is not a failure");
    fail::clear_all();
}

#[test]
fn faulted_patches_never_leave_a_torn_version() {
    use grepair_store::EdgePatch;

    let _faults = fail::scoped();
    let registry = chaotic_registry(None);
    // An id-stable tenant to patch (the k2 codec keeps input node ids, so
    // the expected edge set below can be tracked by literal ids).
    let (g, _) = Hypergraph::from_simple_edges(6, (0..5u32).map(|i| (i, 0u32, i + 1)));
    let bytes = grepair_store::codec_for("k2").unwrap().encode(&g).unwrap();
    registry.attach_store("delta", GraphStore::from_bytes(&bytes).unwrap()).unwrap();

    // Half the patch applications abort between validation and the
    // version-log push. The atomicity contract (DESIGN.md §12): either the
    // generation ratchets and a new version appears, or *nothing* changes
    // — never a version whose overlay half-applied.
    fail::set_seed(0xfeed);
    fail::configure("patch.apply", "1in(2):err").unwrap();
    let mut rng = Rng::new(0xabc);
    let mut present: std::collections::BTreeSet<(u64, u32, u64)> =
        (0..5u64).map(|i| (i, 0u32, i + 1)).collect();
    let (mut applied, mut faulted) = (0u64, 0u64);
    for _ in 0..60 {
        let s = rng.below(6);
        let t = (s + 1 + rng.below(5)) % 6; // never a self-loop
        let key = (s, 0u32, t);
        let line = if present.contains(&key) {
            format!("DEL {s} 0 {t}")
        } else {
            format!("ADD {s} 0 {t}")
        };
        let patch = EdgePatch::parse(&line).unwrap();
        let before_generation = registry.generation_of("delta").unwrap();
        let before_versions = registry.versions_of("delta").unwrap();
        match registry.patch("delta", patch) {
            Ok((summary, store)) => {
                applied += 1;
                if !present.remove(&key) {
                    present.insert(key);
                }
                assert_eq!(summary.version, before_versions.last().unwrap().version + 1);
                assert_eq!(store.generation(), before_generation + 1);
            }
            Err(GrepairError::Unavailable(what)) => {
                faulted += 1;
                assert!(what.contains("aborted"), "{what}");
                // Atomicity: the fault consumed nothing — same generation,
                // same retained versions.
                assert_eq!(registry.generation_of("delta").unwrap(), before_generation);
                assert_eq!(registry.versions_of("delta").unwrap(), before_versions);
            }
            Err(other) => panic!("unexpected patch error: {other}"),
        }
        // Whatever happened, the head serves exactly the tracked edge set.
        let head = registry.store("delta").unwrap();
        for v in 0..6u64 {
            let got = head.out_neighbors(v).unwrap();
            let expect: Vec<u64> = present
                .iter()
                .filter(|(from, _, _)| *from == v)
                .map(|&(_, _, to)| to)
                .collect();
            assert_eq!(got, expect, "torn head at node {v}");
        }
    }
    assert!(
        applied > 0 && faulted > 0,
        "schedule must exercise both outcomes: {applied} applied, {faulted} faulted"
    );
    fail::clear_all();
}

#[test]
fn concurrent_cold_open_and_eviction_race_under_injected_delays() {
    let _faults = fail::scoped();
    let f = fixture();
    // Delays stretch both sides of the hazard: the cold open holds its
    // window open while the evictor walks the LRU list.
    fail::configure("registry.cold_open", "always:delay(5)").unwrap();
    fail::configure("registry.evict", "1in(2):delay(5)").unwrap();
    for round in 0..8u64 {
        let registry = chaotic_registry(Some(200)); // tight: every open evicts someone
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let registry = &registry;
                let mut rng = Rng::new((round << 8) | (t + 1));
                s.spawn(move || {
                    for _ in 0..12 {
                        let ns = NAMES[rng.below(NAMES.len() as u64) as usize];
                        if let Ok(store) = registry.store(ns) {
                            let idx = NAMES.iter().position(|n| *n == ns).unwrap();
                            let got = store.query(&Query::OutNeighbors(0)).unwrap();
                            let expect = f.twins[idx].query(&Query::OutNeighbors(0)).unwrap();
                            assert_eq!(got.to_string(), expect.to_string());
                        }
                    }
                });
            }
        });
        // The interleaving settled into a consistent state: every
        // namespace still resolves and serves correct answers.
        for (idx, name) in NAMES.iter().enumerate() {
            let store = recover(&registry, name);
            let got = store.query(&Query::OutNeighbors(1)).unwrap();
            let expect = f.twins[idx].query(&Query::OutNeighbors(1)).unwrap();
            assert_eq!(got.to_string(), expect.to_string(), "{name} torn after race");
        }
    }
    fail::clear_all();
}
