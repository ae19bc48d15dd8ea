//! The `ci_fleet` workload: `ScenarioGen` scenarios with the default
//! `GenConfig`, each built on a fresh `Federation` and driven through the
//! full CI path (push → webhook → CI engine → approval gate → CORRECT action
//! → auth → faas → scheduler → artifacts and step cache), then collected.
//!
//! One fleet is a fixed input; a run repeats it while another repeat fits
//! in the time budget, and every repeat must produce the same fleet digest.

use crate::host::HostSpeed;
use crate::report::{fits_another, median, median_per_op, quantile, Check, Fnv, Metrics, Tracer};
use hpcci::ci::{CacheMode, RunStatus, StepCache};
use hpcci::correct::Federation;
use hpcci::faas::{TaskId, TaskState};
use hpcci::obs::ObsConfig;
use hpcci::scen::spec::CacheModeDecl;
use hpcci::scen::{run_spec, ScenarioGen, ScenarioSpec};
use hpcci::sim::SimDuration;
use std::hint::black_box;
use std::time::Instant;

/// Scenarios in one fleet: at least 2,000, so p99 has 20 samples beyond it.
pub const FLEET: u64 = 2_048;
/// Fleet generations timed per repeat for `setup_s`.
const SETUP_REPS: usize = 5;
/// Scenarios between two timings of the host's reference kernel.
const REFERENCE_EVERY: usize = 64;

/// How one scenario ended, as the output check sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSummary {
    pub name: String,
    /// Trigger rounds the spec declares; each creates at least one run.
    pub rounds: u32,
    /// The spec's suite has failing tests (a red suite is expected).
    pub failing_tests: bool,
    /// The spec carries a fault plan (infrastructure failures are expected).
    pub has_faults: bool,
    /// Every run: status and, for failures, the `failure_kind` attribution.
    pub runs: Vec<(RunStatus, Option<String>)>,
    /// Tasks that ended rejected.
    pub rejected_tasks: usize,
    /// Tasks not in a terminal state.
    pub pending_tasks: usize,
    pub tasks: usize,
}

/// Check one scenario: every run terminal, red suites only with failing
/// tests, infrastructure failures and task rejections only under a fault
/// plan, every task terminal.
pub fn check_scenario(s: &ScenarioSummary) -> Check {
    let mut c = Check {
        attempted: 1,
        ..Check::default()
    };
    let why = |m: String| format!("{}: {m}", s.name);
    if s.runs.len() < s.rounds as usize {
        c.fail(why(format!(
            "{} runs for {} trigger rounds",
            s.runs.len(),
            s.rounds
        )));
    } else if s.pending_tasks > 0 {
        c.fail(why(format!("{} tasks not terminal", s.pending_tasks)));
    } else if s.rejected_tasks > 0 && !s.has_faults {
        c.fail(why(format!(
            "{} tasks rejected without a fault plan",
            s.rejected_tasks
        )));
    } else if let Some((status, kind)) =
        s.runs
            .iter()
            .find(|(status, kind)| !match (status, kind.as_deref()) {
                (RunStatus::Success, None) => true,
                (RunStatus::Failure, Some("test")) => s.failing_tests,
                (RunStatus::Failure, Some("infrastructure")) => s.has_faults,
                _ => false,
            })
    {
        c.fail(why(format!(
            "unexplained run outcome {status:?} failure_kind={kind:?}"
        )));
    }
    c
}

/// A scenario's digest over what both the traced and the untraced path
/// observe: run outcomes, task end states, events dispatched and the
/// virtual end time.
fn scenario_digest(
    runs: &[(RunStatus, Option<String>)],
    states: &[u8],
    events: u64,
    end_us: u64,
) -> u64 {
    let mut d = Fnv::default();
    d.bytes(format!("{runs:?}").as_bytes());
    d.bytes(states);
    d.u64(events);
    d.u64(end_us);
    d.0
}

fn summary_of(
    spec: &ScenarioSpec,
    runs: Vec<(RunStatus, Option<String>)>,
    states: &[u8],
) -> ScenarioSummary {
    ScenarioSummary {
        name: spec.name.clone(),
        rounds: spec.traffic.pushes,
        failing_tests: spec.workload.failing > 0,
        has_faults: !spec.fault_plan().is_empty(),
        runs,
        rejected_tasks: states.iter().filter(|&&s| s == b'R').count(),
        pending_tasks: states.iter().filter(|&&s| s == b'P').count(),
        tasks: states.len(),
    }
}

/// The untraced path: `run_spec`, exactly as the fleet verifier runs it.
/// Returns the scenario's summary and digest.
pub fn run_untraced(spec: &ScenarioSpec) -> (ScenarioSummary, u64) {
    let out = run_spec(spec).expect("generated specs compile");
    let runs: Vec<_> = out
        .runs
        .iter()
        .map(|r| (r.status, r.failure_kind.clone()))
        .collect();
    let states: Vec<u8> = out
        .tasks
        .iter()
        .map(
            |t| match (t.rejected, t.detail.starts_with("non-terminal")) {
                (true, _) => b'R',
                (false, true) => b'P',
                _ => b'D',
            },
        )
        .collect();
    let digest = scenario_digest(&runs, &states, out.events, out.end_us);
    (summary_of(spec, runs, &states), digest)
}

/// Per-fleet layer counters, summed over every scenario's registry.
#[derive(Default)]
struct FleetCounters {
    counters: Vec<(&'static str, u64)>,
    injected: u64,
    trace_lines: u64,
}

const SUMMED: [&str; 16] = [
    "ci.runs_total",
    "ci.step_cache_hits",
    "ci.step_cache_misses",
    "action.retries",
    "action.failovers",
    "auth.tokens_issued",
    "ci.artifact_logical_bytes",
    "ci.artifact_stored_bytes",
    "faas.tasks_completed",
    "faas.pilot_reprovisions",
    "sim.cache_refreshes",
    "sim.cache_refresh_hot_hits",
    "sim.cache_probes",
    "sim.cache_volatile_probes",
    "sim.events_dispatched",
    "sched.jobs",
];

impl FleetCounters {
    fn get(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn add(&mut self, name: &'static str, v: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some(e) => e.1 += v,
            None => self.counters.push((name, v)),
        }
    }
}

/// The traced path: the same steps as `run_spec`, called one public API at
/// a time so each layer gets its own span, with `Obs` enabled.
fn run_traced(
    spec: &ScenarioSpec,
    tr: &mut Tracer,
    counters: &mut FleetCounters,
) -> (ScenarioSummary, u64) {
    tr.enter("core.build");
    let mut builder = Federation::builder(spec.seed)
        .workers(1)
        .workload(spec.traffic.workload())
        .obs(ObsConfig::enabled());
    let plan = spec.fault_plan();
    if !plan.is_empty() {
        builder = builder.faults(plan);
    }
    builder = match spec.cache {
        CacheModeDecl::Off => builder,
        CacheModeDecl::Record => builder.step_cache_shared(StepCache::new(), CacheMode::Record),
        CacheModeDecl::Replay => builder.step_cache_shared(StepCache::new(), CacheMode::Replay),
    };
    let fed = builder.build();
    tr.exit();
    tr.enter("scen.compile");
    let mut s = spec.build_on(fed).expect("generated specs compile");
    tr.exit();

    let mut arrivals = s
        .fed
        .arrival_gen()
        .expect("the builder attached the workload");
    let reviewer = spec.user.login.clone();
    for round in 0..spec.traffic.pushes {
        if round > 0 {
            let gap = arrivals.next_gap_us();
            s.fed.world().sleep(SimDuration::from_micros(gap));
        }
        if s.dispatch_trigger {
            tr.enter("ci.dispatch_round");
            s.dispatch_approve_run(&reviewer);
            tr.exit();
            continue;
        }
        tr.enter("vcs.push");
        let now = s.fed.now();
        let tree = s
            .fed
            .hosting
            .lock()
            .repo(&s.repo)
            .expect("scenario repo exists")
            .checkout_branch("main")
            .expect("main exists")
            .clone()
            .with_file("VERSION", format!("{}", now.as_micros()));
        s.fed
            .hosting
            .lock()
            .push(&s.repo, "main", tree, &s.pusher, "trigger CI", now)
            .expect("push to scenario repo");
        tr.exit();
        tr.enter("ci.pump");
        let runs = s.fed.pump_events();
        tr.exit();
        tr.enter("ci.approve");
        for &run in &runs {
            let now = s.fed.now();
            s.fed
                .engine
                .approve(run, &reviewer, now)
                .expect("reviewer approves own environment");
        }
        tr.exit();
        tr.enter("ci.run_all");
        s.fed.run_all();
        tr.exit();
    }

    tr.enter("scen.outcome");
    let mut runs: Vec<_> = s.fed.engine.runs().collect();
    runs.sort_by_key(|r| r.id);
    let runs: Vec<(RunStatus, Option<String>)> = runs
        .iter()
        .map(|r| {
            let kind = (r.status == RunStatus::Failure).then(|| {
                r.steps
                    .iter()
                    .find(|st| !st.success)
                    .and_then(|st| st.outputs.get("failure_kind").cloned())
                    .unwrap_or_else(|| "test".to_string())
            });
            (r.status, kind)
        })
        .collect();
    let (states, lines) = {
        let cloud = s.fed.cloud.lock();
        tr.enter("sim.trace.render");
        black_box(cloud.trace.render());
        tr.exit();
        let states: Vec<u8> = (1..=cloud.task_count() as u64)
            .map(|id| match cloud.task_state(TaskId(id)) {
                Ok(TaskState::Done(_)) => b'D',
                Ok(TaskState::Rejected { .. }) => b'R',
                _ => b'P',
            })
            .collect();
        (states, cloud.trace.len() as u64)
    };
    black_box(s.fed.trace_digest());
    let chaos = s.fed.fault_trace();
    black_box(chaos.render());
    tr.exit();

    let snap = s.fed.metrics();
    for name in SUMMED {
        let v = match name {
            "sched.jobs" => snap.histogram("sched.queue_wait_us").map_or(0, |h| h.count),
            _ => snap.counter(name),
        };
        counters.add(name, v);
    }
    counters.injected += chaos.of_kind("fault.inject").count() as u64;
    counters.trace_lines += lines;
    let digest = scenario_digest(
        &runs,
        &states,
        s.fed.events_dispatched(),
        s.fed.now().as_micros(),
    );
    (summary_of(spec, runs, &states), digest)
}

/// Run fleets while another fits in `seconds` (at least three) and summarise.
pub fn run(seed: u64, fleet: u64, seconds: f64, tr: &mut Tracer) -> (Metrics, Check, u64) {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut repeats_ms: Vec<Vec<f64>> = Vec::new();
    let mut host = HostSpeed::default();
    let mut check = Check::default();
    let mut reference = None;
    let mut counters = FleetCounters::default();
    let mut tasks_per_fleet;
    let mut rejected;
    let mut gen_us;
    let mut allocs = None;
    let mut arrival_ns = 0.0;
    loop {
        let unit = Instant::now();
        // Generating the fleet takes milliseconds: time it several times per
        // repeat, so the samples spread over the whole run.
        let mut specs = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            tr.enter("scen.gen");
            specs = ScenarioGen::new(seed).fleet(fleet);
            tr.exit();
            setups.push(t.elapsed().as_secs_f64());
        }
        gen_us = setups[setups.len() - 1] * 1e6 / fleet as f64;

        let first = reference.is_none();
        let mut digest = Fnv::default();
        let mut tasks = 0u64;
        rejected = 0;
        let mut before = crate::alloc::snapshot();
        let mut latencies_ms = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            if i % REFERENCE_EVERY == 0 {
                host.sample(&mut before);
            }
            let t = Instant::now();
            let (summary, d) = if tr.enabled() {
                tr.enter("scen.scenario");
                let mut sink = FleetCounters::default();
                let out = run_traced(spec, tr, if first { &mut counters } else { &mut sink });
                tr.exit();
                out
            } else {
                run_untraced(spec)
            };
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tasks += summary.tasks as u64;
            rejected += summary.rejected_tasks as u64;
            digest.u64(d);
            check.absorb(check_scenario(&summary));
        }
        repeats_ms.push(latencies_ms);
        if first {
            allocs = crate::alloc::snapshot()
                .zip(before)
                .map(|(now, before)| (now.0 - before.0, now.1 - before.1));
            if tr.enabled() {
                arrival_ns = replay_arrivals(&specs);
            }
        }
        tasks_per_fleet = tasks;
        match reference {
            None => reference = Some(digest.0),
            Some(r) if r != digest.0 => check.fail(format!(
                "fleet digest {:016x} differs from the first repeat's {r:016x}",
                digest.0
            )),
            Some(_) => {}
        }
        if repeats_ms.len() >= 3 && !fits_another(start, unit.elapsed().as_secs_f64(), seconds) {
            break;
        }
    }

    let mut m = Metrics::default();
    // Every timing is scaled to the host's reference speed (see `host`).
    let slow = host.slowdown();
    let latencies_ms: Vec<f64> = median_per_op(&repeats_ms)
        .into_iter()
        .map(|ms| ms / slow)
        .collect();
    let fleet_ms: f64 = latencies_ms.iter().sum();
    m.num(
        "tasks_per_s",
        tasks_per_fleet as f64 / (fleet_ms / 1e3),
        "tasks/s",
    );
    m.num("op_p50_ms", quantile(&latencies_ms, 0.50), "ms");
    m.num("op_p90_ms", quantile(&latencies_ms, 0.90), "ms");
    m.num("scenario_p99_ms", quantile(&latencies_ms, 0.99), "ms");
    m.num("setup_s", median(&setups) / slow, "s");
    host.report(&mut m);
    m.opt(
        "peak_rss_mib",
        crate::report::peak_rss_mib(),
        "procfs unavailable",
        "MiB",
    );
    m.num(
        "ops",
        (latencies_ms.len() * repeats_ms.len()) as f64,
        "count",
    );
    m.num("faas.tasks_rejected", rejected as f64, "count");
    m.num(
        "scenarios_per_s",
        latencies_ms.len() as f64 / (fleet_ms / 1e3),
        "scen/s",
    );
    let per_task = |x: f64| x / tasks_per_fleet.max(1) as f64;
    let alloc_reason = "counting allocator not compiled in (plain binary)";
    m.opt(
        "allocs_per_task",
        allocs.map(|a| per_task(a.0 as f64)),
        alloc_reason,
        "allocs/task",
    );
    m.opt(
        "alloc_bytes_per_task",
        allocs.map(|a| per_task(a.1 as f64)),
        alloc_reason,
        "B/task",
    );
    if tr.enabled() {
        fleet_layers(&mut m, tr, &counters, tasks_per_fleet, gen_us, arrival_ns);
    }
    (m, check, reference.expect("at least one fleet"))
}

fn fleet_layers(
    m: &mut Metrics,
    tr: &Tracer,
    c: &FleetCounters,
    tasks: u64,
    gen_us: f64,
    arrival_ns: f64,
) {
    let per_call_us = |name: &str| {
        let t = tr.totals(name);
        (t.count > 0).then(|| t.total_ns as f64 / t.count as f64 / 1e3)
    };
    let none = "no call of this kind in the fleet";
    m.num("scen.gen_us", gen_us, "us");
    for (metric, span) in [
        ("core.build_us", "core.build"),
        ("scen.compile_us", "scen.compile"),
        ("scen.outcome_us", "scen.outcome"),
        ("vcs.push_us", "vcs.push"),
        ("ci.pump_us", "ci.pump"),
        ("ci.approve_us", "ci.approve"),
        ("ci.run_all_us", "ci.run_all"),
        ("ci.dispatch_round_us", "ci.dispatch_round"),
        ("sim.trace.render_us", "sim.trace.render"),
    ] {
        m.opt(metric, per_call_us(span), none, "us");
    }
    m.num("sim.workload.arrival_ns", arrival_ns, "ns/arrival");
    for name in [
        "ci.runs_total",
        "ci.step_cache_hits",
        "ci.step_cache_misses",
        "action.retries",
        "action.failovers",
        "auth.tokens_issued",
        "faas.tasks_completed",
        "faas.pilot_reprovisions",
        "sched.jobs",
    ] {
        m.num(name, c.get(name) as f64, "count");
    }
    let stored = c.get("ci.artifact_stored_bytes");
    m.opt(
        "cas.dedup_ratio",
        (stored > 0).then(|| c.get("ci.artifact_logical_bytes") as f64 / stored as f64),
        "no artifact bytes stored",
        "ratio",
    );
    crate::report::cache_metrics(
        m,
        c.get("sim.cache_refreshes"),
        c.get("sim.cache_refresh_hot_hits"),
        c.get("sim.cache_probes"),
        c.get("sim.cache_volatile_probes"),
        "no cache refresh in the fleet",
    );
    let per_task = |x: u64| x as f64 / tasks.max(1) as f64;
    m.num(
        "sim.events_per_task",
        per_task(c.get("sim.events_dispatched")),
        "events/task",
    );
    m.num(
        "sim.trace.lines_per_task",
        per_task(c.trace_lines),
        "lines/task",
    );
    m.num("faults.injected", c.injected as f64, "count");
}

/// Replay each spec's push-gap stream through its workload's `ArrivalGen`.
fn replay_arrivals(specs: &[ScenarioSpec]) -> f64 {
    let mut draws = 0u64;
    let t = Instant::now();
    for spec in specs {
        let mut gen = spec.traffic.workload().arrival_gen(spec.seed);
        for _ in 1..spec.traffic.pushes.max(1) {
            black_box(gen.next_gap_us());
            draws += 1;
        }
    }
    t.elapsed().as_nanos() as f64 / draws.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn green() -> ScenarioSummary {
        ScenarioSummary {
            name: "s".into(),
            rounds: 2,
            failing_tests: false,
            has_faults: false,
            runs: vec![(RunStatus::Success, None), (RunStatus::Success, None)],
            rejected_tasks: 0,
            pending_tasks: 0,
            tasks: 4,
        }
    }

    #[test]
    fn explained_outcomes_pass() {
        assert!(check_scenario(&green()).passed());
        let mut red = green();
        red.failing_tests = true;
        red.runs[1] = (RunStatus::Failure, Some("test".into()));
        assert!(check_scenario(&red).passed());
        let mut chaos = green();
        chaos.has_faults = true;
        chaos.rejected_tasks = 1;
        chaos.runs[0] = (RunStatus::Failure, Some("infrastructure".into()));
        assert!(check_scenario(&chaos).passed());
    }

    #[test]
    fn unexplained_outcomes_fail() {
        let mut red = green();
        red.runs[1] = (RunStatus::Failure, Some("test".into()));
        assert_eq!(
            check_scenario(&red).failed,
            1,
            "red suite without failing tests"
        );
        let mut infra = green();
        infra.failing_tests = true;
        infra.runs[0] = (RunStatus::Failure, Some("infrastructure".into()));
        assert_eq!(
            check_scenario(&infra).failed,
            1,
            "infrastructure without faults"
        );
        let mut stuck = green();
        stuck.runs[0] = (RunStatus::Running, None);
        assert_eq!(check_scenario(&stuck).failed, 1, "non-terminal run");
        let mut dropped = green();
        dropped.runs.pop();
        assert_eq!(check_scenario(&dropped).failed, 1, "dropped run");
        let mut pending = green();
        pending.pending_tasks = 1;
        assert_eq!(check_scenario(&pending).failed, 1, "non-terminal task");
        let mut rejected = green();
        rejected.rejected_tasks = 1;
        assert_eq!(
            check_scenario(&rejected).failed,
            1,
            "rejection without faults"
        );
    }
}
