//! # perfbench — the hpcci repository benchmark
//!
//! Three single-process workloads, all at `workers(1)`:
//!
//! | workload | what it drives | module |
//! |---|---|---|
//! | `peak_day` | 16 workstation endpoints, diurnal Zipf traffic in 32k waves | [`day`] |
//! | `hpc_day` | SLURM pilot endpoints on FASTER/Expanse/Anvil, chaos plan | [`day`] |
//! | `ci_fleet` | 2,048 generated scenarios through the full CI path | [`fleet`] |
//!
//! A run measures one workload for a time budget, checks every outcome,
//! and prints one JSON line: the metrics (a number, or `null` with a
//! reason), the output check and the digest. Untraced runs give the
//! end-to-end metrics, scaled to the host's reference speed ([`host`]);
//! traced runs (`--trace 1`) enable `Obs`, wrap each
//! public call in a span and add the per-layer metrics. `run.py` drives this
//! binary; see `README.md`.

pub mod alloc;
pub mod day;
pub mod fleet;
pub mod host;
pub mod report;

use report::{fits_another, json_str, median, Check, Metrics, Tracer};
use std::time::Instant;

/// Workload names, in the order `run.py --all` runs them.
pub const WORKLOADS: [&str; 3] = ["peak_day", "hpc_day", "ci_fleet"];

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that does not exercise a layer reports its metrics `null`, with a reason.
pub const LAYER_METRICS: [(&str, &str); 46] = [
    ("trace_overhead_pct", "%"),
    ("allocs_per_task", "allocs/task"),
    ("alloc_bytes_per_task", "B/task"),
    ("sim.workload.arrival_ns", "ns/arrival"),
    ("faas.submit_ns", "ns/task"),
    ("faas.drain_ns", "ns/task"),
    ("faas.drain_share", "ratio"),
    ("faas.tasks_completed", "count"),
    ("faas.tasks_rejected", "count"),
    ("faas.tasks_failed_infra", "count"),
    ("sim.events_per_task", "events/task"),
    ("faas.window.barriers", "count"),
    ("faas.window.pool_spawns", "count"),
    ("faas.window.overhead_ns", "ns"),
    ("faas.window.merge_stalls", "count"),
    ("sim.cache.hot_hit_ratio", "ratio"),
    ("sim.cache.probes_per_refresh", "probes"),
    ("sim.cache.volatile_probes", "count"),
    ("sim.cache.replay_ns", "ns/refresh"),
    ("sim.queue.push_pop_ns", "ns/op"),
    ("sim.trace.record_ns", "ns/line"),
    ("sim.trace.lines_per_task", "lines/task"),
    ("sim.trace.render_us", "us"),
    ("sched.jobs", "count"),
    ("sched.queue_wait_us.p50", "us"),
    ("sched.queue_wait_us.p99", "us"),
    ("sched.queue_depth.max", "jobs"),
    ("sched.replay_ns_per_job", "ns/job"),
    ("faults.injected", "count"),
    ("faas.pilot_reprovisions", "count"),
    ("scen.gen_us", "us"),
    ("core.build_us", "us"),
    ("scen.compile_us", "us"),
    ("scen.outcome_us", "us"),
    ("vcs.push_us", "us"),
    ("ci.pump_us", "us"),
    ("ci.approve_us", "us"),
    ("ci.run_all_us", "us"),
    ("ci.dispatch_round_us", "us"),
    ("ci.runs_total", "count"),
    ("ci.step_cache_hits", "count"),
    ("ci.step_cache_misses", "count"),
    ("action.retries", "count"),
    ("action.failovers", "count"),
    ("auth.tokens_issued", "count"),
    ("cas.dedup_ratio", "ratio"),
];

/// Tasks in one day of `peak_day` and `hpc_day`: eight full waves.
pub const DAY_TASKS: u64 = 8 * day::WAVE as u64;

/// Input size: `Full` is the benchmark, `Tiny` the size of its own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The result of one run.
pub struct Outcome {
    pub metrics: Metrics,
    pub check: Check,
    pub digest: u64,
    /// Aggregated span table of a traced run.
    pub spans: Option<String>,
}

/// Run `workload` on `seed` for `seconds`. A traced run alternates one
/// untraced and one traced unit (a day, or a fleet's minimum of repeats)
/// while another pair fits in the budget, so drift in the host's speed hits
/// both sides alike: the traced units give the layer metrics, the untraced ones the
/// allocator counts and the baseline for `trace_overhead_pct` (median over
/// the pairs), and every unit must produce the same digest (tracing must not
/// change simulated results).
pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    size: Size,
) -> Option<Outcome> {
    if !WORKLOADS.contains(&workload) {
        return None;
    }
    if !traced {
        let (metrics, check, digest) =
            run_phase(workload, seed, seconds, &mut Tracer::new(false), size);
        return Some(Outcome {
            metrics,
            check,
            digest,
            spans: None,
        });
    }
    let rate = |m: &Metrics| {
        m.number("tasks_per_s")
            .expect("every workload reports tasks_per_s")
    };
    let start = Instant::now();
    let mut check = Check::default();
    let mut digest = None;
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (plain, mut metrics, tr) = loop {
        let pair = Instant::now();
        let (plain, plain_check, plain_digest) =
            run_phase(workload, seed, 0.0, &mut Tracer::new(false), size);
        let mut tr = Tracer::new(true);
        let (metrics, traced_check, traced_digest) = run_phase(workload, seed, 0.0, &mut tr, size);
        check.absorb(plain_check);
        check.absorb(traced_check);
        let reference = *digest.get_or_insert(plain_digest);
        for (side, d) in [("untraced", plain_digest), ("traced", traced_digest)] {
            if d != reference {
                check.fail(format!(
                    "{side} digest {d:016x} differs from {reference:016x}"
                ));
            }
        }
        plain_rates.push(rate(&plain));
        traced_rates.push(rate(&metrics));
        if !fits_another(start, pair.elapsed().as_secs_f64(), seconds) {
            break (plain, metrics, tr);
        }
    };
    metrics.num(
        "trace_overhead_pct",
        (median(&plain_rates) / median(&traced_rates) - 1.0) * 100.0,
        "%",
    );
    for name in ["allocs_per_task", "alloc_bytes_per_task"] {
        if let Some(v) = plain.get(name) {
            metrics.set(name, v.clone(), plain.unit(name).expect("present"));
        }
    }
    for (name, unit) in LAYER_METRICS {
        if metrics.get(name).is_none() {
            let reason = format!("{workload} does not exercise this layer through a public call");
            metrics.null(name, &reason, unit);
        }
    }
    Some(Outcome {
        metrics,
        check,
        digest: digest.expect("at least one pair"),
        spans: Some(tr.to_json()),
    })
}

fn run_phase(
    workload: &str,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    size: Size,
) -> (Metrics, Check, u64) {
    let (day_tasks, fleet) = match size {
        Size::Full => (DAY_TASKS, fleet::FLEET),
        Size::Tiny => (3_000, 12),
    };
    match workload {
        "peak_day" => day::run(day::DayKind::Peak, seed, day_tasks, seconds, tr),
        "hpc_day" => day::run(day::DayKind::Hpc, seed, day_tasks, seconds, tr),
        _ => fleet::run(seed, fleet, seconds, tr),
    }
}

const USAGE: &str = "usage: perfbench --workload <peak_day|hpc_day|ci_fleet> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Command-line entry point shared by both binaries; returns the exit code.
pub fn cli_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => workload = Some(v.clone()),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s >= 0.0),
            ("--trace", Some(v)) => traced = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            _ => {
                eprintln!("{USAGE}");
                return 2;
            }
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        eprintln!("{USAGE}");
        return 2;
    };
    let Some(out) = run_workload(&workload, seed, seconds, traced, Size::Full) else {
        eprintln!("unknown workload {workload:?}\n{USAGE}");
        return 2;
    };
    println!(
        "{{\"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"digest\": \"{:016x}\", \
         \"counting_allocator\": {}, \"metrics\": {}, \"spans\": {}}}",
        json_str(&workload),
        out.check.passed(),
        out.check.attempted,
        out.check.failed,
        out.check
            .messages
            .iter()
            .map(|m| json_str(m))
            .collect::<Vec<_>>()
            .join(", "),
        out.digest,
        alloc::snapshot().is_some(),
        out.metrics.to_json(),
        out.spans.as_deref().unwrap_or("null"),
    );
    if out.check.passed() {
        0
    } else {
        1
    }
}
