//! Chaos conformance suite: deterministic fault injection across the
//! federation, exercised end-to-end through CORRECT workflows.
//!
//! Every test follows the same contract: faults are scheduled on a
//! [`FaultPlan`] at virtual times, the scenario runs to quiescence, and the
//! suite asserts (a) the outcome — bounded retries recover transient faults,
//! unrecoverable faults degrade to a *reported* infrastructure failure,
//! never a hang or panic — and (b) the chaos log, where every injection and
//! recovery is recorded. A final test pins the zero-perturbation guarantee:
//! an empty plan leaves the run bit-identical to one without an injector.

mod common;

use hpcci::ci::workflow::{JobDef, StepDef, TriggerEvent, WorkflowDef};
use hpcci::ci::RunStatus;
use hpcci::correct::{EndpointSpec, Federation, CORRECT_ACTION_NAME};
use hpcci::scen::{FaultDecl, FaultKindDecl, ScenarioSpec};
use hpcci::scenarios::{
    parsldock_scenario, parsldock_scenario_with_faults, psij_scenario, psij_scenario_with_faults,
};
use hpcci::sim::{FaultKind, FaultPlan, SimDuration, SimTime};

/// A MEP that fails to fork the user endpoint once: the submission comes
/// back as an infrastructure failure, CORRECT retries with backoff, and the
/// next fork succeeds — the run passes.
#[test]
fn mep_fork_failure_is_retried_and_recovers() {
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::MepForkFailure {
            endpoint: "ep-anvil".into(),
            user: "any".into(),
        },
    );
    let mut s = psij_scenario_with_faults(81, false, plan);
    let runs = s.push_approve_run("vhayot");
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());

    // The retry is visible in the step log, the injection in the chaos log.
    let step = run.step("run").expect("correct step recorded");
    assert!(
        step.stdout.contains("retry 1/"),
        "retry logged: {}",
        step.stdout
    );
    let chaos = s.fed.fault_trace();
    assert_eq!(chaos.of_kind("fault.inject").count(), 1);
    assert!(chaos.render().contains("mep-fork-failure"));
}

/// The bearer token expires mid-run: the next submission is rejected,
/// CORRECT re-authenticates with its client credentials and retries.
#[test]
fn token_expiry_mid_run_triggers_reauthentication() {
    let plan = FaultPlan::none().with_fault(SimTime::ZERO, FaultKind::TokenExpiry);
    let mut s = psij_scenario_with_faults(82, false, plan);
    let runs = s.push_approve_run("vhayot");
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());
    assert!(
        run.full_log().contains("re-authenticating"),
        "refresh logged: {}",
        run.full_log()
    );
    let chaos = s.fed.fault_trace();
    assert!(chaos.render().contains("token-expiry"));
    assert!(
        chaos.render().contains("fresh token accepted"),
        "recovery recorded: {}",
        chaos.render()
    );
}

/// A WAN partition delays the wire, but messages are delivered once it
/// heals: the run completes successfully, just later than the fault-free
/// run of the same seed.
#[test]
fn wan_partition_delays_delivery_until_heal() {
    let heal = SimDuration::from_secs(120);
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::WanPartition {
            endpoint: "ep-anvil".into(),
            heal_after: heal,
        },
    );
    let mut baseline = psij_scenario(83, false);
    baseline.push_approve_run("vhayot");
    let baseline_end = baseline.fed.now();

    let mut s = psij_scenario_with_faults(83, false, plan);
    let runs = s.push_approve_run("vhayot");
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());
    assert!(
        s.fed.now() >= baseline_end + heal,
        "partition stalled the run: {} vs {}",
        s.fed.now(),
        baseline_end
    );
    assert!(s.fed.fault_trace().render().contains("partition healed"));
}

/// The batch scheduler drains a node while a pilot is running: the pilot
/// job is preempted, the endpoint's provider requests a fresh block on
/// demand, and the next CI run still passes at every site.
#[test]
fn node_drain_preempts_pilot_and_the_suite_recovers() {
    // The FASTER pilot provisioned by the first run keeps running after the
    // suite finishes (it holds its walltime); the drain lands on it when the
    // second run's tasks touch the scheduler again.
    let plan = FaultPlan::none().with_fault(
        SimTime::from_secs(150),
        FaultKind::NodeDrain {
            scheduler: "tamu-faster".into(),
        },
    );
    let mut s = parsldock_scenario_with_faults(84, plan);
    let first = s.push_approve_run("vhayot");
    assert_eq!(
        s.fed.engine.run(first[0]).unwrap().status,
        RunStatus::Success
    );
    let runs = s.push_approve_run("vhayot");
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Success, "log:\n{}", run.full_log());

    let chaos = s.fed.fault_trace();
    assert!(
        chaos.render().contains("drained node"),
        "drain effect recorded: {}",
        chaos.render()
    );
    // The preemption is visible in the scheduler's accounting, like sacct
    // would show it.
    let handle = s.fed.site_by_name("tamu-faster").unwrap().clone();
    let rt = handle.shared.lock();
    let sched = rt.scheduler.as_ref().unwrap().lock();
    use hpcci::scheduler::JobState;
    assert!(
        sched
            .accounting()
            .records()
            .iter()
            .any(|r| matches!(r.state, JobState::Preempted { .. })),
        "a pilot job was preempted"
    );
}

/// An endpoint with no siblings crashes: retries are exhausted against the
/// stopped endpoint and the site degrades gracefully — the step reports an
/// *infrastructure* failure (`failure_kind=infrastructure`), artifacts are
/// still uploaded, and the remaining sites pass untouched.
#[test]
fn endpoint_crash_without_fallback_degrades_to_infrastructure_failure() {
    // Declared through the scenario DSL: the §6.1 preset plus one explicit
    // fault, round-tripped through its TOML document before building — the
    // declarative path carries fault schedules end to end.
    let mut declared = hpcci::scen::presets::parsldock(85);
    declared.faults.push(FaultDecl {
        at_us: SimTime::from_secs(60).as_micros(),
        kind: FaultKindDecl::EndpointCrash {
            endpoint: "ep-chameleon-tacc".into(),
        },
    });
    let spec = ScenarioSpec::from_toml(&declared.to_toml()).expect("spec round-trips");
    assert_eq!(spec, declared);
    let fed = Federation::builder(spec.seed).faults(spec.fault_plan()).build();
    let mut s = spec.build_on(fed).expect("spec compiles");
    let runs = s.push_approve_run("vhayot");
    let run = s.fed.engine.run(runs[0]).unwrap().clone();
    assert_eq!(run.status, RunStatus::Failure, "site skipped => run failed");

    let step = run.step("run-chameleon").expect("chameleon step recorded");
    assert!(!step.success);
    assert_eq!(
        step.outputs.get("failure_kind").map(String::as_str),
        Some("infrastructure"),
        "degradation is marked as infrastructure, not a test failure"
    );
    assert!(
        step.stderr.contains("infrastructure failure (site skipped)"),
        "stderr: {}",
        step.stderr
    );
    // The artifact is uploaded regardless, carrying the retry log.
    let now = s.fed.now();
    let artifact = s
        .fed
        .engine
        .artifacts
        .fetch(runs[0], "chameleon-output", now)
        .expect("artifact stored despite the crash");
    assert!(artifact.text().contains("infrastructure"));
    // The other two sites are unaffected: their suites passed.
    for env in ["faster-vhayot", "expanse-vhayot"] {
        let text = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], &format!("{env}-output"), now)
            .unwrap()
            .text();
        assert!(text.contains("8 passed, 0 failed"), "{env} unaffected");
    }
    assert!(s.fed.fault_trace().render().contains("endpoint-crash"));
}

/// With a sibling endpoint configured, a crash of the primary is absorbed:
/// CORRECT fails over and the run passes.
#[test]
fn endpoint_crash_fails_over_to_sibling_endpoint() {
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::EndpointCrash {
            endpoint: "ep-anvil-login".into(),
        },
    );
    let mut s = psij_scenario_with_faults(86, false, plan);
    // A second, single-user endpoint on the Anvil login node — the primary
    // for this workflow; the scenario's MEP serves as its fallback sibling.
    let site = s.fed.site_by_name("purdue-anvil").unwrap().id;
    let owner = s.user.identity.id;
    s.fed
        .register(EndpointSpec::single("ep-anvil-login", site, owner, "x-vhayot"));
    let step = StepDef::uses(
        "run",
        CORRECT_ACTION_NAME,
        &[
            ("client_id", "${{ secrets.GLOBUS_ID }}"),
            ("client_secret", "${{ secrets.GLOBUS_SECRET }}"),
            ("endpoint_uuid", "ep-anvil-login"),
            ("fallback_endpoints", "ep-anvil"),
            ("shell_cmd", "pytest tests/"),
        ],
    );
    let wf = WorkflowDef::new("failover-ci")
        .on_event(TriggerEvent::push_any())
        .with_job(
            JobDef::new("remote-test")
                .with_environment("anvil-vhayot")
                .with_step(step),
        );
    s.fed.engine.add_workflow(&s.repo, wf);

    let runs = s.push_approve_run("vhayot");
    let failover_run = runs
        .iter()
        .map(|&id| s.fed.engine.run(id).unwrap().clone())
        .find(|r| r.workflow == "failover-ci")
        .expect("failover workflow triggered");
    assert_eq!(
        failover_run.status,
        RunStatus::Success,
        "log:\n{}",
        failover_run.full_log()
    );
    assert!(
        failover_run
            .full_log()
            .contains("Failing over to sibling endpoint ep-anvil"),
        "failover logged: {}",
        failover_run.full_log()
    );
    assert!(s.fed.fault_trace().render().contains("endpoint-crash"));
}

/// A corrupted artifact write is detected by checksum and re-written: the
/// stored artifact is byte-identical to the fault-free run's, and the
/// recovery is on the chaos log.
#[test]
fn artifact_corruption_is_detected_and_rewritten() {
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::ArtifactCorruption {
            name: "pytest-output".into(),
        },
    );
    let fetch_artifact = |s: &mut hpcci::scenarios::Scenario| {
        let runs = s.push_approve_run("vhayot");
        let now = s.fed.now();
        s.fed
            .engine
            .artifacts
            .fetch(runs[0], "pytest-output", now)
            .expect("artifact stored")
            .text()
    };
    let mut baseline = psij_scenario(87, false);
    let clean = fetch_artifact(&mut baseline);
    let mut s = psij_scenario_with_faults(87, false, plan);
    let stored = fetch_artifact(&mut s);
    assert_eq!(clean, stored, "re-written artifact is byte-identical");
    assert!(
        s.fed
            .fault_trace()
            .render()
            .contains("checksum mismatch on 'pytest-output'"),
        "recovery recorded: {}",
        s.fed.fault_trace().render()
    );
}

/// The zero-perturbation guarantee: a federation built with an *empty*
/// fault plan runs bit-identically to one with no injector at all — same
/// logs, same artifacts, same clock, empty chaos trace.
#[test]
fn empty_fault_plan_perturbs_nothing() {
    let run_once = |with_empty_plan: bool| {
        let mut s = if with_empty_plan {
            psij_scenario_with_faults(88, false, FaultPlan::none())
        } else {
            psij_scenario(88, false)
        };
        let runs = s.push_approve_run("vhayot");
        let run = s.fed.engine.run(runs[0]).unwrap().clone();
        let now = s.fed.now();
        let artifact = s
            .fed
            .engine
            .artifacts
            .fetch(runs[0], "pytest-output", now)
            .unwrap()
            .text();
        (run.full_log(), artifact, now, s.fed.fault_trace().len())
    };
    let (log_a, art_a, end_a, _) = run_once(false);
    let (log_b, art_b, end_b, chaos_len) = run_once(true);
    assert_eq!(log_a, log_b, "run logs bit-identical");
    assert_eq!(art_a, art_b, "artifacts bit-identical");
    assert_eq!(end_a, end_b, "virtual clock identical");
    assert_eq!(chaos_len, 0, "empty plan never logs");
}

/// Same guarantee on the multi-site scenario (the Fig. 4 input): the
/// per-site duration artifacts are unchanged by an idle injector.
#[test]
fn empty_fault_plan_keeps_fig4_artifacts_identical() {
    let artifacts = |faulty: bool| {
        let mut s = if faulty {
            parsldock_scenario_with_faults(89, FaultPlan::none())
        } else {
            parsldock_scenario(89)
        };
        let runs = s.push_approve_run("vhayot");
        let now = s.fed.now();
        s.environments
            .iter()
            .map(|env| {
                s.fed
                    .engine
                    .artifacts
                    .fetch(runs[0], &format!("{env}-output"), now)
                    .unwrap()
                    .text()
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(artifacts(false), artifacts(true));
}

/// Same guarantee on the shared-scheduler topology (the `hpc_day` shape:
/// four pilot-job tenants queueing on each site's single-node scheduler):
/// an idle injector wired into the cloud, every endpoint and every
/// scheduler changes no byte of the trace and no instant.
#[test]
fn empty_fault_plan_keeps_contention_topology_identical() {
    let (bare, _) = common::contention_day(5, 600, None);
    let (idle, injector) = common::contention_day(5, 600, Some(FaultPlan::none()));
    assert!(bare.trace.render().contains("task.done"));
    assert_eq!(bare.trace.render(), idle.trace.render());
    assert_eq!(bare.now(), idle.now());
    assert!(injector.expect("plan installed").trace().is_empty());
}

/// The "retries on vs off" ablation (DESIGN.md §4): the same single
/// transient fork failure that the default policy absorbs (see
/// `mep_fork_failure_is_retried_and_recovers`) becomes a skipped site when
/// `max_retries: 0` — degradation is still graceful and still labelled as
/// infrastructure, never a hang.
#[test]
fn retries_off_turns_a_transient_fault_into_a_site_skip() {
    let plan = FaultPlan::none().with_fault(
        SimTime::ZERO,
        FaultKind::MepForkFailure {
            endpoint: "ep-anvil".into(),
            user: "any".into(),
        },
    );
    let mut s = psij_scenario_with_faults(90, false, plan);
    let wf = WorkflowDef::new("noretry-ci").with_job(
        JobDef::new("remote-test")
            .with_environment("anvil-vhayot")
            .with_step(StepDef::uses(
                "run",
                CORRECT_ACTION_NAME,
                &[
                    ("client_id", "${{ secrets.GLOBUS_ID }}"),
                    ("client_secret", "${{ secrets.GLOBUS_SECRET }}"),
                    ("endpoint_uuid", "ep-anvil"),
                    ("shell_cmd", "pytest tests/"),
                    ("max_retries", "0"),
                ],
            )),
    );
    s.fed.engine.add_workflow(&s.repo, wf);
    let now = s.fed.now();
    let commit = s
        .fed
        .hosting
        .lock()
        .repo(&s.repo)
        .unwrap()
        .head("main")
        .unwrap()
        .short();
    let run_id = s
        .fed
        .engine
        .dispatch(&s.repo, "noretry-ci", "main", &commit, now)
        .unwrap();
    s.fed.engine.approve(run_id, "vhayot", now).unwrap();
    s.fed.run_all();

    let run = s.fed.engine.run(run_id).unwrap().clone();
    assert_eq!(run.status, RunStatus::Failure);
    let step = run.step("run").unwrap();
    assert_eq!(
        step.outputs.get("failure_kind").map(String::as_str),
        Some("infrastructure"),
        "log:\n{}",
        run.full_log()
    );
    assert!(!step.stdout.contains("retry 1/"), "no retries were attempted");
}
