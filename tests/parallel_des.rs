//! Conservative parallel DES conformance: partitioned execution must be
//! **bit-identical** to serial execution.
//!
//! The federation's parallel drive (PR 7) advances lookahead domains on
//! worker threads and merges their logs deterministically. These tests pin
//! the contract from every angle the generator can reach:
//!
//! * randomized federations (endpoint count, task mix, durations, waves of
//!   submissions, single- and multi-user endpoints) produce byte-identical
//!   committed traces at worker widths 1/2/4/8, and the width-1 windowed
//!   drain is itself byte-identical to the classic single-step loop;
//! * peak-day-style *batched-submit* waves (arrival processes scheduled via
//!   `submit_shell_batch`) stay byte-identical at every width while the
//!   backlog itself engages parallel windows — the submit-aware extraction
//!   added with the persistent pool (PR 10);
//! * bounded `advance_to(now + Δ)` increments mixed with `step_next` calls —
//!   the route `World::sleep`/`World::step` take — stay byte-identical at
//!   every width, through the same window driver the drain uses;
//! * with observability on, the metrics snapshot is width-invariant apart
//!   from the documented engine diagnostics (`sim.domain_*`, `sim.cache_*`);
//! * a task command that panics inside a domain worker surfaces as a panic
//!   of the drain within bounded wall time — never as a hang;
//! * fault plans — endpoint crashes and WAN partitions landing on endpoints
//!   in different domains — keep the traces identical at every width (the
//!   cloud stays on the serial step loop, where each endpoint's consult
//!   deadline wakes it on the step its fault fires);
//! * a zero-lookahead federation (endpoints coupled through a shared batch
//!   scheduler) degrades to a single domain no matter the worker budget.
//!
//! The cases are generated with the in-tree [`DetRng`] harness (the
//! workspace builds offline — no proptest crate): a failure message always
//! names the case so the exact input regenerates.

use hpcci::auth::{AuthService, IdentityMapping, Scope};
use hpcci::cluster::Site;
use hpcci::faas::exec::{shared, ExecOutcome, SiteRuntime};
use hpcci::faas::{
    CloudService, Endpoint, EndpointConfig, EndpointId, EndpointRegistration, MepTemplate,
    MultiUserEndpoint, WorkerProvider,
};
use hpcci::obs::Obs;
use hpcci::scheduler::{LocalProvider, SlurmProvider};
use hpcci::sim::{
    drive, Advance, DetRng, FaultInjector, FaultKind, FaultPlan, SimDuration, SimTime,
};
use parking_lot::Mutex;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Number of generated cases per property (the federation builds here are
/// heavier than the data-structure proptests, so fewer cases).
const CASES: u64 = 12;

/// Worker widths every case is replayed at; width 1 is the serial baseline.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Deterministic per-case generator stream, decorrelated by property name.
fn case_rng(property: &str, case: u64) -> DetRng {
    DetRng::seed_from_u64(0xdeed_5eed ^ case).fork(property)
}

/// The generated shape of one federation; built identically per width.
#[derive(Clone)]
struct FedShape {
    /// Per single-user endpoint: (task duration secs, endpoint workers).
    singles: Vec<(f64, u32)>,
    /// Include a login-only multi-user endpoint (positive lookahead: no
    /// shared batch scheduler involved)?
    with_mep: bool,
    /// Tasks submitted per wave, round-robin over the endpoints.
    waves: Vec<usize>,
}

fn gen_shape(rng: &mut DetRng) -> FedShape {
    let n_singles = rng.range_u64(3, 10) as usize;
    let singles = (0..n_singles)
        .map(|_| {
            (
                rng.range_f64(0.5, 30.0),
                rng.range_u64(1, 6) as u32,
            )
        })
        .collect();
    let with_mep = rng.range_u64(0, 2) == 1;
    let n_waves = rng.range_u64(1, 4) as usize;
    let waves = (0..n_waves)
        // Mostly above the cloud's min-wire threshold so the parallel
        // window engages; the occasional small wave exercises the serial
        // fallback inside a parallel-configured federation.
        .map(|_| rng.range_u64(24, 220) as usize)
        .collect();
    FedShape {
        singles,
        with_mep,
        waves,
    }
}

/// Build the generated federation. Every endpoint lives on its own
/// workstation site (cross-site wire latency = natural lookahead);
/// `workers` is the parallel budget under test.
fn build_cloud(
    shape: &FedShape,
    workers: usize,
) -> (CloudService, hpcci::auth::AccessToken, Vec<EndpointId>) {
    let auth = Arc::new(Mutex::new(AuthService::new()));
    let (token, owner) = {
        let mut a = auth.lock();
        let identity = a.register_identity("bench@hpcci.sim", "hpcci.sim", SimTime::ZERO);
        let (cid, secret) = a.create_client(identity.id, "bench").unwrap();
        let token = a
            .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
            .unwrap();
        (token, identity.id)
    };
    let mut cloud = CloudService::new(auth);
    cloud.set_workers(workers);
    let mut ids = Vec::new();
    for (i, &(dur, ep_workers)) in shape.singles.iter().enumerate() {
        let mut rt = SiteRuntime::new(Site::workstation(&format!("site-{i}")));
        rt.site.add_account("bench", "proj");
        rt.commands
            .register("work", move |_| ExecOutcome::ok("done", dur));
        let site = shared(rt);
        let login = site.lock().site.login_node().unwrap().id;
        let ep = Endpoint::new(
            EndpointConfig::new(&format!("ep-{i}"), owner, "bench").with_workers(ep_workers),
            site,
            WorkerProvider::Local(LocalProvider::new(login, 8)),
            1000 + i as u64,
        );
        ids.push(cloud.register_endpoint(
            &format!("ep-{i}"),
            EndpointRegistration::Single(Box::new(ep)),
        ));
    }
    if shape.with_mep {
        let mut rt = SiteRuntime::new(Site::workstation("site-mep"));
        rt.site.add_account("x-bench", "proj");
        rt.commands
            .register("work", |_| ExecOutcome::ok("done", 4.0));
        let site = shared(rt);
        let mut mapping = IdentityMapping::new("site-mep");
        mapping.add_explicit("bench@hpcci.sim", "x-bench");
        let mep = MultiUserEndpoint::new("ep-mep", site, mapping, MepTemplate::login_only());
        ids.push(cloud.register_endpoint(
            "ep-mep",
            EndpointRegistration::Multi(Box::new(mep)),
        ));
    }
    (cloud, token, ids)
}

/// Run the generated scenario: waves of round-robin submissions, each
/// drained to quiescence, and return the committed trace.
fn run_shape(shape: &FedShape, workers: usize) -> (String, u64, u64) {
    let (mut cloud, token, ids) = build_cloud(shape, workers);
    let mut t = 0usize;
    for &wave in &shape.waves {
        let now = cloud.now();
        for _ in 0..wave {
            let ep = &ids[t % ids.len()];
            cloud.submit_shell(&token, ep, "work", now).expect("submit");
            t += 1;
        }
        cloud.drain_to_quiescence();
    }
    let barriers = cloud.domain_stats().barriers;
    (cloud.trace.render(), cloud.events_dispatched(), barriers)
}

/// Partitioned execution produces a byte-identical committed trace at every
/// worker width — and the same event count, so the parallel drive did the
/// same work, not merely equivalent work.
#[test]
fn parallel_trace_bit_identical_across_widths() {
    let mut parallel_windows = 0u64;
    for case in 0..CASES {
        let mut rng = case_rng("parallel_bitident", case);
        let shape = gen_shape(&mut rng);
        let (serial_trace, serial_events, _) = run_shape(&shape, 1);
        for &w in &WIDTHS[1..] {
            let (trace, events, barriers) = run_shape(&shape, w);
            assert_eq!(
                serial_trace, trace,
                "case {case}: width {w} diverged from serial"
            );
            assert_eq!(
                serial_events, events,
                "case {case}: width {w} dispatched a different event count"
            );
            parallel_windows += barriers;
        }
    }
    assert!(
        parallel_windows > 0,
        "no case ever engaged a parallel window — the property tested nothing"
    );
}

/// Peak-day-style batched-submit waves: arrival processes pre-scheduled
/// through `submit_shell_batch` put `InFlight::Submit` events on the wire,
/// and the submit-aware window extraction (PR 10) must pre-route them —
/// acceptance on the coordinator, ids dense in arrival order — without
/// perturbing a byte. At widths > 1 the batched backlog itself must engage
/// parallel windows: the old `pending_submits == 0` gate is gone.
#[test]
fn batched_submit_waves_bit_identical_across_widths() {
    let mut parallel_windows = 0u64;
    for case in 0..CASES {
        let mut rng = case_rng("batched_submit", case);
        let shape = gen_shape(&mut rng);
        // A generated arrival process: bursts of future arrivals, spread
        // over minutes to hours of virtual time, round-robin over the
        // endpoints — the peak-day submission pattern in miniature. Waves
        // land unsorted (the wheel orders them) and include same-instant
        // collisions across endpoints.
        let n_arrivals = rng.range_u64(96, 400) as usize;
        let horizon_us = rng.range_u64(30, 3_600) * 1_000_000;
        let arrivals: Vec<SimTime> = (0..n_arrivals)
            .map(|_| SimTime::from_micros(rng.range_u64(0, horizon_us)))
            .collect();
        let run = |workers: usize| {
            let (mut cloud, token, ids) = build_cloud(&shape, workers);
            let mut per_ep: Vec<Vec<SimTime>> = vec![Vec::new(); ids.len()];
            for (i, &at) in arrivals.iter().enumerate() {
                per_ep[i % ids.len()].push(at);
            }
            for (ep, wave) in ids.iter().zip(&per_ep) {
                cloud
                    .submit_shell_batch(&token, ep, "work", SimTime::ZERO, wave)
                    .expect("schedule wave");
            }
            cloud.drain_to_quiescence();
            (
                cloud.trace.render(),
                cloud.events_dispatched(),
                cloud.domain_stats().barriers,
            )
        };
        let (serial_trace, serial_events, _) = run(1);
        for &w in &WIDTHS[1..] {
            let (trace, events, barriers) = run(w);
            assert_eq!(
                serial_trace, trace,
                "case {case}: width {w} diverged from serial under batched submits"
            );
            assert_eq!(
                serial_events, events,
                "case {case}: width {w} dispatched a different event count"
            );
            parallel_windows += barriers;
        }
    }
    assert!(
        parallel_windows > 0,
        "no batched-submit case ever engaged a parallel window — \
         the submit-aware gate tested nothing"
    );
}

/// Bounded advance — `advance_to(now + Δ)` increments as `World::sleep`
/// issues them, mixed with `step_next` calls as `World::step` issues them —
/// commits the same trace and dispatches the same events at every width.
/// Wide, each `advance_to` runs through the deadline-clipped window driver,
/// so some windows must engage for the property to test anything.
#[test]
fn bounded_advance_bit_identical_across_widths() {
    let mut parallel_windows = 0u64;
    for case in 0..CASES {
        let mut rng = case_rng("bounded_advance", case);
        let shape = gen_shape(&mut rng);
        let pace_seed = rng.range_u64(0, u64::MAX);
        let run = |workers: usize| {
            let (mut cloud, token, ids) = build_cloud(&shape, workers);
            // The pacing stream is consumed identically at every width.
            let mut pace = DetRng::seed_from_u64(pace_seed);
            let mut t = 0usize;
            for &wave in &shape.waves {
                let now = cloud.now();
                for _ in 0..wave {
                    let ep = &ids[t % ids.len()];
                    cloud.submit_shell(&token, ep, "work", now).expect("submit");
                    t += 1;
                }
                while cloud.next_event().is_some() {
                    if pace.range_u64(0, 4) == 0 {
                        cloud.step_next(SimTime::FAR_FUTURE);
                    } else {
                        let delta = SimDuration::from_millis(pace.range_u64(1, 20_000));
                        let target = cloud.now() + delta;
                        cloud.advance_to(target);
                        assert_eq!(cloud.now(), target, "advance_to lands on its target");
                    }
                }
            }
            (
                cloud.trace.render(),
                cloud.events_dispatched(),
                cloud.domain_stats().barriers,
            )
        };
        let (serial_trace, serial_events, _) = run(1);
        for &w in &WIDTHS[1..] {
            let (trace, events, barriers) = run(w);
            assert_eq!(
                serial_trace, trace,
                "case {case}: width {w} diverged from serial under bounded advance"
            );
            assert_eq!(
                serial_events, events,
                "case {case}: width {w} dispatched a different event count"
            );
            parallel_windows += barriers;
        }
    }
    assert!(
        parallel_windows > 0,
        "no bounded advance ever engaged a parallel window — the property tested nothing"
    );
}

/// Sim-time metrics are width-invariant: with observability on, the
/// snapshot's JSON is identical at every width once the documented engine
/// diagnostics are set aside — `sim.domain_*` (window counters, exported
/// only wide) and `sim.cache_*` (dispatch-cache effectiveness, which
/// windows bypass).
#[test]
fn obs_snapshot_identical_across_widths() {
    let mut parallel_windows = 0u64;
    for case in 0..CASES {
        let mut rng = case_rng("obs_snapshot", case);
        let shape = gen_shape(&mut rng);
        let run = |workers: usize| {
            let (mut cloud, token, ids) = build_cloud(&shape, workers);
            cloud.set_obs(Obs::enabled());
            let mut t = 0usize;
            for &wave in &shape.waves {
                let now = cloud.now();
                for _ in 0..wave {
                    let ep = &ids[t % ids.len()];
                    cloud.submit_shell(&token, ep, "work", now).expect("submit");
                    t += 1;
                }
                cloud.drain_to_quiescence();
            }
            cloud.harvest_metrics();
            let mut snap = cloud.obs().snapshot();
            snap.counters.retain(|name, _| {
                !name.starts_with("sim.domain_") && !name.starts_with("sim.cache_")
            });
            (snap.to_json(), cloud.domain_stats().barriers)
        };
        let (serial, _) = run(1);
        assert!(
            serial.contains("faas.task_latency_us"),
            "case {case}: obs recorded nothing"
        );
        for &w in &WIDTHS[1..] {
            let (json, barriers) = run(w);
            assert_eq!(
                serial, json,
                "case {case}: width {w} metrics diverged from serial"
            );
            parallel_windows += barriers;
        }
    }
    assert!(
        parallel_windows > 0,
        "no case ever engaged a parallel window — the property tested nothing"
    );
}

/// A task command that panics inside a domain worker must re-panic from
/// `drain_to_quiescence` — with its own payload — within bounded wall
/// time at every width. The drain runs on a helper thread so a hang fails
/// the test instead of wedging it.
#[test]
fn worker_panic_surfaces_at_every_width() {
    const MESSAGE: &str = "task command exploded";
    let shape = FedShape {
        singles: vec![(2.0, 4); 4],
        with_mep: false,
        waves: vec![],
    };
    for &w in &WIDTHS {
        let shape = shape.clone();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                let (mut cloud, token, ids) = build_cloud(&shape, w);
                if let EndpointRegistration::Single(ep) = cloud.endpoint_mut(&ids[2]).unwrap() {
                    ep.site()
                        .lock()
                        .commands
                        .register("boom", |_| panic!("{MESSAGE}"));
                }
                // A steady arrival stream keeps the wire deep enough for
                // windows to stay open, so the panicking task is delivered
                // and run inside a domain worker mid-stream.
                let arrivals: Vec<SimTime> = (0..600).map(SimTime::from_secs).collect();
                for ep in &ids {
                    cloud
                        .submit_shell_batch(&token, ep, "work", SimTime::ZERO, &arrivals)
                        .expect("schedule arrivals");
                }
                cloud
                    .submit_shell_at(
                        &token,
                        &ids[2],
                        "boom",
                        SimTime::ZERO,
                        SimTime::from_secs(300),
                    )
                    .expect("schedule the panicking task");
                cloud.drain_to_quiescence();
            }));
            let message = ran.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("width {w}: a panicking task hung the drain"));
        assert_eq!(
            outcome.as_deref(),
            Some(MESSAGE),
            "width {w}: the drain must re-raise the task's own panic"
        );
    }
}

/// The width-1 windowed drain is byte-identical to the classic single-step
/// loop it replaced.
#[test]
fn windowed_drain_matches_single_step_loop() {
    for case in 0..CASES {
        let mut rng = case_rng("drain_vs_step", case);
        let shape = gen_shape(&mut rng);
        let (drained, _, _) = run_shape(&shape, 1);
        // Same shape, driven by the classic loop.
        let (mut cloud, token, ids) = build_cloud(&shape, 1);
        let mut t = 0usize;
        for &wave in &shape.waves {
            let now = cloud.now();
            for _ in 0..wave {
                let ep = &ids[t % ids.len()];
                cloud.submit_shell(&token, ep, "work", now).expect("submit");
                t += 1;
            }
            drive(&mut [&mut cloud]);
        }
        assert_eq!(drained, cloud.trace.render(), "case {case}");
    }
}

/// Fault plans — endpoint crashes and WAN partitions crossing domain
/// boundaries — keep every width byte-identical to serial: a federation
/// with an injector stays on the serial step loop, so consult boundaries
/// never move.
#[test]
fn fault_plans_stay_bit_identical_at_every_width() {
    for case in 0..CASES {
        let mut rng = case_rng("parallel_faults", case);
        let shape = gen_shape(&mut rng);
        // One crash and one partition, landing on different endpoints (and
        // so, under partitioning, in different domains).
        let n = shape.singles.len() as u64;
        let crash_ep = rng.range_u64(0, n);
        let part_ep = (crash_ep + 1 + rng.range_u64(0, n - 1)) % n;
        let plan = FaultPlan::none()
            .with_fault(
                SimTime::from_secs(rng.range_u64(1, 40)),
                FaultKind::EndpointCrash {
                    endpoint: format!("ep-{crash_ep}"),
                },
            )
            .with_fault(
                SimTime::from_secs(rng.range_u64(1, 40)),
                FaultKind::WanPartition {
                    endpoint: format!("ep-{part_ep}"),
                    heal_after: SimDuration::from_secs(rng.range_u64(5, 60)),
                },
            );
        let run = |workers: usize| {
            let (mut cloud, token, ids) = build_cloud(&shape, workers);
            let injector = FaultInjector::new(plan.clone());
            cloud.set_fault_injector(injector.clone());
            for id in &ids {
                match cloud.endpoint_mut(id).unwrap() {
                    EndpointRegistration::Single(e) => e.set_fault_injector(injector.clone()),
                    EndpointRegistration::Multi(m) => m.set_fault_injector(injector.clone()),
                }
            }
            let mut t = 0usize;
            for &wave in &shape.waves {
                let now = cloud.now();
                for _ in 0..wave {
                    let ep = &ids[t % ids.len()];
                    // Submissions may be rejected once the crash landed;
                    // rejection order must also be reproduced exactly.
                    let _ = cloud.submit_shell(&token, ep, "work", now);
                    t += 1;
                }
                cloud.drain_to_quiescence();
            }
            // Federations with an injector must never partition — not even
            // under the persistent pool: consult boundaries would move.
            assert_eq!(
                cloud.domain_stats().barriers,
                0,
                "width {workers}: fault plans force the serial fallback"
            );
            assert_eq!(cloud.pool_spawns(), 0, "width {workers}: no pool under faults");
            (cloud.trace.render(), injector.trace().render())
        };
        let serial = run(1);
        for &w in &WIDTHS[1..] {
            assert_eq!(serial, run(w), "case {case}: width {w} diverged under faults");
        }
    }
}

/// A zero-lookahead federation — endpoints coupled through a shared batch
/// scheduler — degrades gracefully to one domain regardless of the worker
/// budget, and still drains correctly.
#[test]
fn shared_scheduler_federation_degrades_to_one_domain() {
    let auth = Arc::new(Mutex::new(AuthService::new()));
    let (token, owner) = {
        let mut a = auth.lock();
        let identity = a.register_identity("bench@hpcci.sim", "hpcci.sim", SimTime::ZERO);
        let (cid, secret) = a.create_client(identity.id, "bench").unwrap();
        let token = a
            .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
            .unwrap();
        (token, identity.id)
    };
    let mut cloud = CloudService::new(auth);
    cloud.set_workers(8);
    // One Slurm-backed endpoint (zero lookahead: its pilot blocks flow
    // through the site's shared scheduler) plus plain workstation endpoints.
    let mut rt = SiteRuntime::new(Site::tamu_faster()).with_scheduler(64);
    rt.site.add_account("x-bench", "CIS230030");
    rt.commands
        .register("work", |_| ExecOutcome::ok("done", 5.0));
    let sched = rt.scheduler.as_ref().unwrap().clone();
    let account = rt.site.account("x-bench").unwrap().clone();
    let site = shared(rt);
    let slurm_ep = Endpoint::new(
        EndpointConfig::new("ep-slurm", owner, "x-bench").with_workers(8),
        site,
        WorkerProvider::Slurm(SlurmProvider::new(
            sched,
            account.uid,
            &account.allocation,
            64,
            SimDuration::from_hours(1),
        )),
        7,
    );
    let mut ids = vec![cloud.register_endpoint(
        "ep-slurm",
        EndpointRegistration::Single(Box::new(slurm_ep)),
    )];
    for i in 0..3 {
        let mut rt = SiteRuntime::new(Site::workstation(&format!("ws-{i}")));
        rt.site.add_account("bench", "proj");
        rt.commands
            .register("work", |_| ExecOutcome::ok("done", 3.0));
        let site = shared(rt);
        let login = site.lock().site.login_node().unwrap().id;
        let ep = Endpoint::new(
            EndpointConfig::new(&format!("ep-ws-{i}"), owner, "bench"),
            site,
            WorkerProvider::Local(LocalProvider::new(login, 4)),
            100 + i,
        );
        ids.push(cloud.register_endpoint(
            &format!("ep-ws-{i}"),
            EndpointRegistration::Single(Box::new(ep)),
        ));
    }
    assert_eq!(
        cloud.domain_count(),
        1,
        "a shared scheduler collapses the lookahead to zero: one domain"
    );
    for t in 0..100 {
        let ep = &ids[t % ids.len()];
        cloud.submit_shell(&token, ep, "work", SimTime::ZERO).unwrap();
    }
    cloud.drain_to_quiescence();
    let stats = cloud.domain_stats();
    assert_eq!(stats.barriers, 0, "zero-lookahead federations never run a parallel window");
    assert!(cloud.trace.of_kind("task.done").count() == 100, "every task completed");
}

/// Sanity on the partition itself: without the scheduler the same worker
/// budget yields multiple domains.
#[test]
fn positive_lookahead_federation_partitions_into_domains() {
    let shape = FedShape {
        singles: vec![(3.0, 2); 8],
        with_mep: false,
        waves: vec![],
    };
    let (mut cloud, _token, _ids) = build_cloud(&shape, 4);
    assert_eq!(cloud.domain_count(), 4);
    let (mut cloud2, _t2, _i2) = build_cloud(&shape, 16);
    assert_eq!(
        cloud2.domain_count(),
        8,
        "domains are capped by affinity groups (one per site)"
    );
}
