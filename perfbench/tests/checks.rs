//! The benchmark's own tests: every workload passes its output check at a
//! tiny size, traced and untraced, and real outcomes that are corrupted —
//! a dropped task, an altered digest, an unattributed rejection, a stuck or
//! dropped run — fail it.

use hpcci::ci::RunStatus;
use hpcci::scen::ScenarioGen;
use perfbench::day::{check_day, run_day, DayKind, TaskEnd};
use perfbench::fleet::{check_scenario, run_untraced};
use perfbench::report::{Tracer, Value};
use perfbench::{run_workload, Size, WORKLOADS};

/// Metric names declared in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn assert_numbers(workload: &str, names: &[String], out: &perfbench::Outcome) {
    for name in names {
        match out.metrics.get(name) {
            Some(Value::Num(v)) => assert!(v.is_finite(), "{workload}: {name} = {v}"),
            other => panic!("{workload}: declared metric {name} is {other:?}"),
        }
    }
}

#[test]
fn every_workload_passes_untraced_and_reports_end_to_end_metrics() {
    let names = declared("end_to_end");
    assert!(names.contains(&"setup_s".to_string()));
    for w in WORKLOADS {
        let out = run_workload(w, 7, 0.0, false, Size::Tiny).expect("known workload");
        assert!(out.check.passed(), "{w}: {:?}", out.check.messages);
        assert_numbers(w, &names, &out);
        let again = run_workload(w, 7, 0.0, false, Size::Tiny).expect("known workload");
        assert_eq!(out.digest, again.digest, "{w}: same seed, same digest");
    }
}

#[test]
fn every_workload_passes_traced_and_reports_per_layer_metrics() {
    let names = declared("per_layer");
    for w in WORKLOADS {
        let out = run_workload(w, 7, 0.0, true, Size::Tiny).expect("known workload");
        assert!(out.check.passed(), "{w}: {:?}", out.check.messages);
        // allocs_per_task needs the counting allocator, which only the
        // `perfbench-counted` binary installs.
        let numeric: Vec<String> = names
            .iter()
            .filter(|n| !n.starts_with("alloc"))
            .cloned()
            .collect();
        assert_numbers(w, &numeric, &out);
        for n in ["allocs_per_task", "alloc_bytes_per_task"] {
            assert!(
                matches!(out.metrics.get(n), Some(Value::Null(_))),
                "{w}: {n} must be null, not 0"
            );
        }
        for (name, _) in perfbench::LAYER_METRICS {
            assert!(
                out.metrics.get(name).is_some(),
                "{w}: {name} missing (a number or null)"
            );
        }
        assert!(out.spans.is_some());
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run_workload("no_such_day", 1, 0.0, false, Size::Tiny).is_none());
}

#[test]
fn corrupted_day_outcomes_fail_the_check() {
    let day = run_day(DayKind::Hpc, 7, 3_000, &mut Tracer::new(false));
    let o = &day.outcome;
    assert!(
        check_day(o, Some(o.digest)).passed(),
        "{:?}",
        check_day(o, None).messages
    );

    let mut dropped = o.clone();
    dropped.tasks.pop();
    assert!(!check_day(&dropped, None).passed(), "a dropped task");

    let mut stuck = o.clone();
    stuck.tasks[0] = TaskEnd::Pending;
    assert!(!check_day(&stuck, None).passed(), "a task left in flight");

    assert!(
        !check_day(o, Some(o.digest ^ 1)).passed(),
        "an altered digest"
    );

    let faulted = o
        .tasks
        .iter()
        .position(|t| !matches!(t, TaskEnd::Done { ok: true, .. }))
        .expect("the chaos plan rejects or fails some task of the tiny day");
    let mut unattributed = o.clone();
    unattributed.crashed.clear();
    assert!(
        !check_day(&unattributed, None).passed(),
        "task {} ended {:?} with no injected crash to explain it",
        faulted + 1,
        o.tasks[faulted]
    );
}

#[test]
fn corrupted_scenario_outcomes_fail_the_check() {
    let gen = ScenarioGen::new(7);
    let (green, _) = (0..64)
        .map(|i| run_untraced(&gen.generate(i)))
        .find(|(s, _)| !s.has_faults && !s.failing_tests && s.tasks > 0)
        .expect("a fault-free green scenario among the first 64");
    assert!(check_scenario(&green).passed());

    let mut dropped = green.clone();
    dropped.runs.pop();
    assert!(!check_scenario(&dropped).passed(), "a dropped run");

    let mut stuck = green.clone();
    stuck.runs[0].0 = RunStatus::Running;
    assert!(!check_scenario(&stuck).passed(), "a non-terminal run");

    let mut infra = green.clone();
    infra.runs[0] = (RunStatus::Failure, Some("infrastructure".into()));
    assert!(
        !check_scenario(&infra).passed(),
        "infrastructure failure without a fault plan"
    );

    let mut red = green.clone();
    red.runs[0] = (RunStatus::Failure, Some("test".into()));
    assert!(
        !check_scenario(&red).passed(),
        "red suite without failing tests"
    );

    let mut rejected = green;
    rejected.rejected_tasks = 1;
    assert!(
        !check_scenario(&rejected).passed(),
        "a rejection without a fault plan"
    );
}
