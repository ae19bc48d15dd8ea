//! Golden-trace determinism suite.
//!
//! The event-dispatch index and trace interning are pure optimizations: a
//! federation driven from a fixed seed must replay **bit-identically** to
//! the pre-optimization behaviour, faults included. These tests render the
//! full functional trace and the chaos trace of two pinned scenarios, hash
//! them, and compare against goldens committed before the optimization
//! landed. Any reordering, dropped event, or changed timestamp in the hot
//! loop shows up here as a hash mismatch.
//!
//! If a hash changes, that is a *behaviour* change, not a perf change —
//! don't re-bless the golden without understanding exactly which events
//! moved (diff the rendered traces, `GOLDEN_DEBUG=1 cargo test golden --
//! --nocapture` prints them).

mod common;

use hpcci::sim::{FaultPlan, SimDuration};

/// FNV-1a over the rendered text: stable, dependency-free, and good enough
/// to pin multi-megabyte traces.
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in text.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

fn debug_dump(label: &str, text: &str) {
    if std::env::var("GOLDEN_DEBUG").is_ok() {
        println!("=== {label} ===\n{text}");
    }
}

/// §6.2 scenario (PSI/J on Anvil), fault-free, seed 42: the full cloud
/// trace hash is pinned.
#[test]
fn golden_psij_scenario_trace() {
    let mut s = hpcci::scenarios::psij_scenario(42, false);
    let _runs = s.push_approve_run("vhayot");
    let trace = s.fed.cloud.lock().trace.render();
    let chaos = s.fed.fault_trace().render();
    debug_dump("psij trace", &trace);
    assert!(!trace.is_empty());
    assert!(chaos.is_empty(), "fault-free run has an empty chaos log");
    assert_eq!(
        fnv1a(&trace),
        GOLDEN_PSIJ_TRACE,
        "psij seed-42 trace diverged from the pre-optimization golden"
    );
}

/// §6.1 scenario (ParslDock across three sites) under a randomized fault
/// plan, seeds pinned: both the functional trace and the chaos trace hashes
/// must match the goldens.
#[test]
fn golden_randomized_fault_scenario_traces() {
    let endpoints = [
        "ep-chameleon-tacc",
        "ep-tamu-faster",
        "ep-sdsc-expanse",
        "chameleon-tacc",
        "tamu-faster",
        "sdsc-expanse",
    ];
    let plan = FaultPlan::randomized(2121, SimDuration::from_secs(90), 12, &endpoints);
    let mut s = hpcci::scenarios::parsldock_scenario_with_faults(7, plan);
    let _runs = s.push_approve_run("vhayot");
    let trace = s.fed.cloud.lock().trace.render();
    let chaos = s.fed.fault_trace().render();
    debug_dump("parsldock fault trace", &trace);
    debug_dump("parsldock chaos trace", &chaos);
    assert!(!trace.is_empty());
    assert!(!chaos.is_empty(), "randomized plan must actually fire faults");
    assert_eq!(
        fnv1a(&trace),
        GOLDEN_PARSLDOCK_FAULT_TRACE,
        "parsldock seed-7 trace under faults diverged from the golden"
    );
    assert_eq!(
        fnv1a(&chaos),
        GOLDEN_PARSLDOCK_CHAOS_TRACE,
        "chaos log for the randomized plan diverged from the golden"
    );
}

/// The paper's shared-scheduler topology under a randomized fault plan
/// (the `hpc_day` shape: three SLURM sites, four pilot-job tenants per
/// single-node scheduler, crashes and node drains freeing nodes for queued
/// pilots). Both hashes were taken from the event loop that advanced every
/// endpoint at every step whenever an injector was present; the indexed
/// loop, which wakes only endpoints with a due event or consult deadline,
/// must commit the same bytes. Under this plan a crash also starts the
/// queued pilot of an earlier-named co-tenant, which may run its tasks only
/// from the next step on: waking it at the freeing instant moves them.
#[test]
fn golden_contention_topology_fault_traces() {
    let targets = common::contention_targets();
    let refs: Vec<&str> = targets.iter().map(String::as_str).collect();
    let horizon = common::contention_horizon(CONTENTION_TASKS);
    let plan = FaultPlan::randomized(CONTENTION_CHAOS_SEED, horizon, 16, &refs);
    let (cloud, injector) = common::contention_day(5, CONTENTION_TASKS, Some(plan));
    let trace = cloud.trace.render();
    let chaos = injector.expect("plan installed").trace().render();
    debug_dump("contention trace", &trace);
    debug_dump("contention chaos trace", &chaos);
    assert!(chaos.contains("endpoint-crash") && chaos.contains("node-drain"));
    assert_eq!(
        (fnv1a(&trace), fnv1a(&chaos)),
        (GOLDEN_CONTENTION_FAULT_TRACE, GOLDEN_CONTENTION_CHAOS_TRACE),
        "contention topology traces under faults diverged from the goldens"
    );
}

/// Step-cache determinism: a Record-mode run executes everything and must
/// leave the pinned cache-off trace untouched; a Replay-mode run over the
/// same world serves every step from the cache, so its (shorter) trace gets
/// its own golden.
#[test]
fn golden_step_cache_record_and_replay_traces() {
    use hpcci::ci::{CacheMode, StepCache};
    use hpcci::correct::Federation;
    let cache = StepCache::new();
    let run = |mode| {
        let fed = Federation::builder(42).step_cache_shared(cache.clone(), mode).build();
        let mut s = hpcci::scenarios::psij_scenario_on(fed, false);
        s.push_approve_run("vhayot");
        let t = s.fed.cloud.lock().trace.render();
        t
    };
    let record = run(CacheMode::Record);
    debug_dump("psij record trace", &record);
    assert_eq!(
        fnv1a(&record),
        GOLDEN_PSIJ_TRACE,
        "record-mode execution must be bit-identical to cache-off"
    );
    let replay = run(CacheMode::Replay);
    debug_dump("psij replay trace", &replay);
    assert_eq!(
        fnv1a(&replay),
        GOLDEN_PSIJ_REPLAY_TRACE,
        "replay-mode seed-42 trace diverged from its golden"
    );
}

/// Same seed, run twice in-process: the renders must be byte-identical
/// (guards against any wall-clock or address-dependent state sneaking into
/// the loop, independent of the committed goldens).
#[test]
fn same_seed_replays_bit_identically() {
    let render = |seed| {
        let mut s = hpcci::scenarios::parsldock_scenario(seed);
        s.push_approve_run("vhayot");
        let t = s.fed.cloud.lock().trace.render();
        t
    };
    assert_eq!(render(9), render(9));
    assert_ne!(render(9), render(10), "different seeds diverge");
}

// Hashes recorded by running these scenarios on the pre-optimization event
// loop (PR 2 baseline). See the test module doc for the re-bless policy.
const GOLDEN_PSIJ_TRACE: u64 = 761119000233767446;
// The cloud trace of a warm (Replay-mode) psij run: every step is served
// from the cache, so no task ever reaches the FaaS layer and the trace is
// empty (this is FNV-1a of the empty string — pinned so a replay that
// starts leaking work into the cloud shows up here).
const GOLDEN_PSIJ_REPLAY_TRACE: u64 = 14695981039346656037;
const GOLDEN_PARSLDOCK_FAULT_TRACE: u64 = 5155577981634125522;
const GOLDEN_PARSLDOCK_CHAOS_TRACE: u64 = 10201305947749851509;
// The contention topology's traces, hashed on the event loop that advanced
// every endpoint at every step while an injector was present.
const CONTENTION_TASKS: u64 = 1_500;
const CONTENTION_CHAOS_SEED: u64 = 12;
const GOLDEN_CONTENTION_FAULT_TRACE: u64 = 15286208869796516986;
const GOLDEN_CONTENTION_CHAOS_TRACE: u64 = 984685310572521656;
