//! The day workloads: a diurnal, Zipf-tenanted stream of shell tasks
//! injected into one `CloudService` in 32k-task waves through
//! `submit_shell_batch`, each wave drained with `drain_to_quiescence`, the
//! trace rolling.
//!
//! * `peak_day` — 16 workstation endpoints (`LocalProvider`), no faults:
//!   the indexed advance path, the wire, the timing wheel, the
//!   `NextEventCache` and the rolling trace do the work.
//! * `hpc_day` — SLURM pilot endpoints on the FASTER, Expanse and Anvil
//!   presets, every endpoint of a site sharing the site's one
//!   `BatchScheduler`, compute partitions shrunk to one node so pilots queue,
//!   a short pilot walltime so they churn, and a seeded
//!   `FaultPlan::randomized` chaos plan wired into the cloud, the endpoints
//!   and the schedulers: the fault-aware exhaustive scan, shared-scheduler
//!   slots, pilot provisioning and injected rejections.
//!
//! One "day" is a fixed input (fixed task count, seed-derived arrivals); a
//! run repeats it while another repeat fits in the time budget, and every
//! repeat must produce the same digest.

use crate::host::HostSpeed;
use crate::report::{fits_another, median, median_per_op, quantile, Check, Fnv, Metrics, Tracer};
use hpcci::auth::{AccessToken, AuthService, Scope};
use hpcci::cluster::{NodeId, Site};
use hpcci::faas::exec::shared;
use hpcci::faas::{
    CloudService, Endpoint, EndpointConfig, EndpointId, EndpointRegistration, ExecOutcome,
    SiteRuntime, TaskId, TaskState, WorkerProvider,
};
use hpcci::obs::Obs;
use hpcci::scheduler::{
    BatchScheduler, JobPayload, JobSpec, JobState, LocalProvider, SlurmProvider,
};
use hpcci::sim::{
    Advance, ArrivalProcess, EventQueue, FaultInjector, FaultPlan, NextEventCache, SimDuration,
    SimTime, TenantMix, Trace, Workload,
};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Tasks per injected wave.
pub const WAVE: usize = 32_768;
/// Lines the cloud's rolling trace keeps live.
const ROLLING_CAP: usize = 65_536;
/// Mean inter-arrival gap: a million arrivals would span one modelled day.
const MEAN_GAP_US: u64 = 86_400;
const TENANT_USERS: u32 = 50_000;
const TENANT_REPOS: u32 = 10_000;
const ZIPF_X100: u32 = 110;

const PEAK_ENDPOINTS: usize = 16;

/// A SLURM site preset: scheduler label and constructor.
type SitePreset = (&'static str, fn() -> Site);

/// SLURM site presets of `hpc_day`.
const HPC_SITES: [SitePreset; 3] = [
    ("faster", Site::tamu_faster),
    ("expanse", Site::sdsc_expanse),
    ("anvil", Site::purdue_anvil),
];
const HPC_ENDPOINTS_PER_SITE: usize = 4;
/// Compute nodes each site's scheduler keeps: one, so a site runs one pilot
/// at a time and the other endpoints' pilots wait in its queue.
const HPC_NODES_PER_SITE: usize = 1;
const HPC_PILOT_WALLTIME: SimDuration = SimDuration::from_mins(30);
const HPC_FAULTS: usize = 24;
/// Seed of the chaos plan. Fixed, so every run faces the same faults and
/// the workload seed varies only the traffic: which endpoints crash decides
/// how many tasks are cheap rejections, and letting that follow the seed
/// would make throughput swing between seeds by more than the noise.
const HPC_CHAOS_SEED: u64 = 13;
/// World builds timed before each day for `setup_s`.
const SETUP_REPS: usize = 16;

/// Which day.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DayKind {
    Peak,
    Hpc,
}

/// One scheduler of `hpc_day`, kept for the scheduler replay.
struct SchedHandle {
    sched: Arc<Mutex<BatchScheduler>>,
    nodes: Vec<NodeId>,
    cores: u32,
}

/// A built day: the cloud and everything the day loop and the checks need.
struct World {
    cloud: CloudService,
    token: AccessToken,
    endpoints: Vec<EndpointId>,
    names: Vec<String>,
    /// Local account each endpoint runs tasks as (unique per endpoint, so a
    /// finished task names its endpoint).
    users: Vec<String>,
    schedulers: Vec<SchedHandle>,
    injector: Option<FaultInjector>,
}

fn build_world(kind: DayKind, seed: u64, tasks: u64, obs: &Obs) -> World {
    let auth = Arc::new(Mutex::new(AuthService::new()));
    let (token, owner) = {
        let mut a = auth.lock();
        let identity = a.register_identity("bench@hpcci.sim", "hpcci.sim", SimTime::ZERO);
        let (cid, secret) = a
            .create_client(identity.id, "bench")
            .expect("fresh identity");
        let token = a
            .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
            .expect("fresh client");
        (token, identity.id)
    };
    let mut cloud = CloudService::new(auth);
    cloud.set_workers(1);
    cloud.set_obs(obs.clone());
    cloud.trace.set_rolling(ROLLING_CAP);
    let mut w = World {
        cloud,
        token,
        endpoints: Vec::new(),
        names: Vec::new(),
        users: Vec::new(),
        schedulers: Vec::new(),
        injector: None,
    };
    match kind {
        DayKind::Peak => {
            for i in 0..PEAK_ENDPOINTS {
                let name = format!("ep-{i}");
                let user = format!("u-{i}");
                let mut rt = SiteRuntime::new(Site::workstation(&format!("ws-{i}")));
                rt.site.add_account(&user, "proj");
                rt.commands
                    .register("work", |_| ExecOutcome::ok("done", 3.0));
                let site = shared(rt);
                let login = site.lock().site.login_node().expect("workstation login").id;
                let ep = Endpoint::new(
                    EndpointConfig::new(&name, owner, &user).with_workers(4),
                    site,
                    WorkerProvider::Local(LocalProvider::new(login, 8)),
                    seed.wrapping_add(i as u64),
                );
                w.add(name, user, ep);
            }
        }
        DayKind::Hpc => {
            let mut targets: Vec<String> = Vec::new();
            for (label, _) in HPC_SITES {
                targets.push(label.to_string());
                for e in 0..HPC_ENDPOINTS_PER_SITE {
                    targets.push(format!("{label}-ep{e}"));
                }
            }
            let refs: Vec<&str> = targets.iter().map(String::as_str).collect();
            let horizon = SimDuration::from_micros(tasks * MEAN_GAP_US);
            let injector = FaultInjector::new(FaultPlan::randomized(
                HPC_CHAOS_SEED,
                horizon,
                HPC_FAULTS,
                &refs,
            ));
            for (s, (label, preset)) in HPC_SITES.iter().enumerate() {
                let mut rt = SiteRuntime::new(preset());
                let nodes: Vec<NodeId> = rt
                    .site
                    .compute_nodes()
                    .take(HPC_NODES_PER_SITE)
                    .map(|n| n.id)
                    .collect();
                let cores = rt.site.compute_nodes().next().expect("HPC preset").cores;
                let sched = Arc::new(Mutex::new(BatchScheduler::with_compute_partition(
                    nodes.clone(),
                    cores,
                )));
                sched.lock().set_fault_injector(injector.clone(), label);
                sched.lock().set_obs(obs.clone(), label);
                rt.scheduler = Some(sched.clone());
                rt.commands
                    .register("work", |_| ExecOutcome::ok("done", 5.0));
                let accounts: Vec<_> = (0..HPC_ENDPOINTS_PER_SITE)
                    .map(|e| rt.site.add_account(&format!("x-{label}-{e}"), "CIS230030"))
                    .collect();
                let site = shared(rt);
                for (e, account) in accounts.into_iter().enumerate() {
                    let name = format!("{label}-ep{e}");
                    let mut ep = Endpoint::new(
                        EndpointConfig::new(&name, owner, &account.username).with_workers(16),
                        site.clone(),
                        WorkerProvider::Slurm(SlurmProvider::new(
                            sched.clone(),
                            account.uid,
                            &account.allocation,
                            cores,
                            HPC_PILOT_WALLTIME,
                        )),
                        seed.wrapping_add((s * HPC_ENDPOINTS_PER_SITE + e) as u64),
                    );
                    ep.set_fault_injector(injector.clone());
                    w.add(name, account.username, ep);
                }
                w.schedulers.push(SchedHandle {
                    sched,
                    nodes,
                    cores,
                });
            }
            w.cloud.set_fault_injector(injector.clone());
            w.injector = Some(injector);
        }
    }
    w
}

impl World {
    fn add(&mut self, name: String, user: String, ep: Endpoint) {
        let id = self
            .cloud
            .register_endpoint(&name, EndpointRegistration::Single(Box::new(ep)));
        self.endpoints.push(id);
        self.names.push(name);
        self.users.push(user);
    }

    /// Endpoints an injected crash has taken down (from the chaos log).
    fn crashed(&self) -> BTreeSet<usize> {
        let Some(inj) = &self.injector else {
            return BTreeSet::new();
        };
        let log = inj.trace();
        log.of_kind("fault.inject")
            .filter_map(|e| {
                let name = e.component.as_str().strip_prefix("faas.ep.")?;
                self.names.iter().position(|n| n == name)
            })
            .collect()
    }
}

/// How one task ended, as the output check sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskEnd {
    /// Ran to completion on endpoint `ep` (`None`: an unknown account).
    Done {
        ep: Option<usize>,
        ok: bool,
        infra: bool,
    },
    /// Rejected at delivery by endpoint `ep` (`None`: reason names none).
    Rejected { ep: Option<usize> },
    /// Still in flight after the drain.
    Pending,
}

/// Everything the day's output check needs, extracted from the cloud.
#[derive(Clone, Debug, PartialEq)]
pub struct DayOutcome {
    /// Tasks submitted to each endpoint.
    pub submitted: Vec<u64>,
    /// Terminal state of task `i + 1`.
    pub tasks: Vec<TaskEnd>,
    /// Endpoints with an injected crash in the chaos log.
    pub crashed: BTreeSet<usize>,
    pub digest: u64,
}

/// Check a day: every submitted task reached a terminal state, per-endpoint
/// counts match the arrivals, and every rejection or infrastructure failure
/// is explained by an injected crash on that endpoint. With `reference`,
/// the digest must match it too.
pub fn check_day(o: &DayOutcome, reference: Option<u64>) -> Check {
    let mut c = Check {
        attempted: o.submitted.iter().sum(),
        ..Check::default()
    };
    if o.tasks.len() as u64 != c.attempted {
        c.fail_n(
            o.tasks.len().abs_diff(c.attempted as usize) as u64,
            format!(
                "{} tasks recorded for {} arrivals",
                o.tasks.len(),
                c.attempted
            ),
        );
    }
    let mut ended = vec![0u64; o.submitted.len()];
    for (i, t) in o.tasks.iter().enumerate() {
        let id = i + 1;
        let ep = match *t {
            TaskEnd::Done {
                ep: Some(ep),
                ok: true,
                ..
            } => ep,
            TaskEnd::Done {
                ep: Some(ep),
                ok: false,
                infra: true,
            }
            | TaskEnd::Rejected { ep: Some(ep) }
                if o.crashed.contains(&ep) =>
            {
                ep
            }
            TaskEnd::Pending => {
                c.fail(format!("task {id} did not reach a terminal state"));
                continue;
            }
            other => {
                c.fail(format!("task {id}: unexplained outcome {other:?}"));
                continue;
            }
        };
        match ended.get_mut(ep) {
            Some(n) => *n += 1,
            None => c.fail(format!("task {id} names endpoint {ep} out of range")),
        }
    }
    for (ep, (&sent, &done)) in o.submitted.iter().zip(&ended).enumerate() {
        if sent != done && c.failed == 0 {
            c.fail_n(
                sent.abs_diff(done),
                format!("endpoint {ep}: {sent} submitted, {done} ended"),
            );
        }
    }
    if let Some(r) = reference {
        if r != o.digest {
            c.fail(format!(
                "digest {:016x} differs from reference {r:016x}",
                o.digest
            ));
        }
    }
    c
}

fn extract_outcome(w: &World, submitted: Vec<u64>) -> DayOutcome {
    let crashed = w.crashed();
    let n = w.cloud.task_count() as u64;
    let mut digest = Fnv::default();
    let mut tasks = Vec::with_capacity(n as usize);
    for id in 1..=n {
        let end = match w.cloud.task_state(TaskId(id)) {
            Ok(TaskState::Done(out)) => TaskEnd::Done {
                ep: w.users.iter().position(|u| *u == *out.ran_as),
                ok: out.success(),
                infra: out.stderr.starts_with("infrastructure:"),
            },
            Ok(TaskState::Rejected { reason, .. }) => TaskEnd::Rejected {
                ep: w
                    .names
                    .iter()
                    .position(|name| reason.contains(&format!("endpoint {name} "))),
            },
            _ => TaskEnd::Pending,
        };
        let (code, ep) = match end {
            TaskEnd::Done { ep, ok, .. } => (1 + ok as u64, ep),
            TaskEnd::Rejected { ep } => (3, ep),
            TaskEnd::Pending => (4, None),
        };
        digest.u64(code << 32 | ep.map_or(u32::MAX as u64, |e| e as u64));
        tasks.push(end);
    }
    digest.u64(w.cloud.trace.rolling_digest());
    digest.u64(w.cloud.events_dispatched());
    digest.u64(w.cloud.now().as_micros());
    if let Some(inj) = &w.injector {
        digest.bytes(inj.trace().render().as_bytes());
    }
    DayOutcome {
        submitted,
        tasks,
        crashed,
        digest: digest.0,
    }
}

/// One measured day.
pub struct DaySample {
    pub tasks: u64,
    /// Wall time of each wave, in ms.
    pub wave_ms: Vec<f64>,
    /// The host's reference kernel, timed before each wave.
    pub host: HostSpeed,
    pub outcome: DayOutcome,
    /// Tasks that ended rejected, and that ended failed by infrastructure.
    pub rejected: u64,
    pub failed_infra: u64,
    pub events: u64,
    /// Allocator calls and bytes over the timed day (counting builds only).
    pub allocs: Option<(u64, u64)>,
    /// Layer metrics, when traced.
    pub layers: Option<Metrics>,
}

/// Build the day's world and run it once. With an enabled tracer, `Obs` is
/// on, the public calls are wrapped in spans, and the layer replays run
/// after the timed day.
pub fn run_day(kind: DayKind, seed: u64, tasks: u64, tr: &mut Tracer) -> DaySample {
    let obs = if tr.enabled() {
        Obs::enabled()
    } else {
        Obs::disabled()
    };
    tr.enter("day.setup");
    let mut w = build_world(kind, seed, tasks, &obs);
    tr.exit();

    let workload = Workload::new(ArrivalProcess::Diurnal {
        mean_gap_us: MEAN_GAP_US,
        day_secs: 86_400,
        peak_pct: 100,
    })
    .arrivals(tasks)
    .tenants(TenantMix::new(TENANT_USERS, TENANT_REPOS).zipf_x100(ZIPF_X100));
    let mut arrivals = workload.arrival_gen(seed);
    let mut tenants = workload.tenant_model();
    let mut trng = workload.tenant_rng(seed);

    let n_eps = w.endpoints.len();
    let mut submitted = vec![0u64; n_eps];
    let mut buckets: Vec<Vec<SimTime>> = vec![Vec::new(); n_eps];
    // The day's inputs, kept (traced runs only) for the layer replays.
    let mut replay_inputs: Vec<(SimTime, usize)> = Vec::new();
    let mut wave_ms = Vec::new();
    let mut host = HostSpeed::default();
    let mut sent = 0u64;
    let mut allocs_before = crate::alloc::snapshot();
    while sent < tasks {
        host.sample(&mut allocs_before);
        let wave = Instant::now();
        tr.enter("day.wave");
        let n = WAVE.min((tasks - sent) as usize);
        // Fail over: a client stops sending to an endpoint once it is down.
        let crashed = w.crashed();
        let mut live: Vec<usize> = (0..n_eps).filter(|e| !crashed.contains(e)).collect();
        if live.is_empty() {
            // Every endpoint is down: send anyway, the rejections are explained.
            live = (0..n_eps).collect();
        }
        tr.enter("sim.workload.arrival");
        let times = arrivals.arrival_times(n, w.cloud.now());
        for &at in &times {
            let (_user, repo) = tenants.sample(&mut trng);
            let ep = live[repo as usize % live.len()];
            buckets[ep].push(at);
        }
        tr.exit();
        let now = w.cloud.now();
        tr.enter("faas.submit");
        for (ep, bucket) in buckets.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let accepted = w
                .cloud
                .submit_shell_batch(&w.token, &w.endpoints[ep], "work", now, bucket)
                .expect("batch submit to a registered endpoint");
            submitted[ep] += accepted;
            if tr.enabled() {
                replay_inputs.extend(bucket.iter().map(|&t| (t, ep)));
            }
            bucket.clear();
        }
        tr.exit();
        tr.enter("faas.drain");
        w.cloud.drain_to_quiescence();
        tr.exit();
        tr.exit();
        wave_ms.push(wave.elapsed().as_secs_f64() * 1e3);
        sent += n as u64;
    }
    let allocs = crate::alloc::snapshot()
        .zip(allocs_before)
        .map(|(now, before)| (now.0 - before.0, now.1 - before.1));
    let events = w.cloud.events_dispatched();
    let outcome = extract_outcome(&w, submitted);
    let count = |f: fn(&TaskEnd) -> bool| outcome.tasks.iter().filter(|t| f(t)).count() as u64;
    let rejected = count(|t| matches!(t, TaskEnd::Rejected { .. }));
    let failed_infra = count(|t| matches!(t, TaskEnd::Done { ok: false, .. }));
    let layers = tr
        .enabled()
        .then(|| day_layers(kind, &w, &obs, tasks, &mut replay_inputs));
    DaySample {
        tasks,
        wave_ms,
        host,
        outcome,
        rejected,
        failed_infra,
        events,
        allocs,
        layers,
    }
}

/// Layer metrics that come from counters (`Obs`, the cloud, the chaos log)
/// and from replaying the day's own inputs through each layer's public API.
fn day_layers(
    kind: DayKind,
    w: &World,
    obs: &Obs,
    tasks: u64,
    inputs: &mut [(SimTime, usize)],
) -> Metrics {
    let mut m = Metrics::default();
    let per_task = |x: u64| x as f64 / tasks as f64;
    w.cloud.harvest_metrics();
    let snap = obs.snapshot();
    m.num(
        "faas.tasks_completed",
        snap.counter("faas.tasks_completed") as f64,
        "count",
    );
    m.num(
        "faas.pilot_reprovisions",
        snap.counter("faas.pilot_reprovisions") as f64,
        "count",
    );

    let window_reason = "no parallel window ran: every workload runs at width 1";
    let ran = w.cloud.domain_stats().barriers > 0;
    for (name, value, unit) in [
        (
            "faas.window.barriers",
            w.cloud.domain_stats().barriers,
            "count",
        ),
        ("faas.window.pool_spawns", w.cloud.pool_spawns(), "count"),
        (
            "faas.window.overhead_ns",
            w.cloud.window_overhead_ns(),
            "ns",
        ),
        ("faas.window.merge_stalls", w.cloud.merge_stalls(), "count"),
    ] {
        m.opt(name, ran.then_some(value as f64), window_reason, unit);
    }

    crate::report::cache_metrics(
        &mut m,
        snap.counter("sim.cache_refreshes"),
        snap.counter("sim.cache_refresh_hot_hits"),
        snap.counter("sim.cache_probes"),
        snap.counter("sim.cache_volatile_probes"),
        "the fault-aware exhaustive scan bypasses the NextEventCache",
    );

    let lines = w.cloud.trace.recorded();
    m.num("sim.trace.lines_per_task", per_task(lines), "lines/task");
    let t = Instant::now();
    let tail = w.cloud.trace.render();
    m.num("sim.trace.render_us", t.elapsed().as_secs_f64() * 1e6, "us");
    black_box(tail);

    let wait = snap
        .histogram("sched.queue_wait_us")
        .filter(|h| h.count > 0);
    m.num("sched.jobs", wait.map_or(0, |h| h.count) as f64, "count");
    let no_sched = "no batch scheduler in this workload";
    m.opt(
        "sched.queue_wait_us.p50",
        wait.map(|h| h.p50 as f64),
        no_sched,
        "us",
    );
    m.opt(
        "sched.queue_wait_us.p99",
        wait.map(|h| h.p99 as f64),
        no_sched,
        "us",
    );
    m.opt(
        "sched.queue_depth.max",
        snap.gauge("sched.queue_depth").map(|g| g.max as f64),
        no_sched,
        "jobs",
    );
    m.opt(
        "sched.replay_ns_per_job",
        replay_scheduler(&w.schedulers),
        no_sched,
        "ns/job",
    );
    let injected = w
        .injector
        .as_ref()
        .map_or(0, |inj| inj.trace().of_kind("fault.inject").count());
    m.num("faults.injected", injected as f64, "count");

    inputs.sort_by_key(|&(t, _)| t);
    m.num("sim.queue.push_pop_ns", replay_queue(inputs), "ns/op");
    m.num(
        "sim.cache.replay_ns",
        replay_cache(inputs, w.endpoints.len(), kind == DayKind::Hpc),
        "ns/refresh",
    );
    m.num(
        "sim.trace.record_ns",
        replay_trace(inputs, &w.names),
        "ns/line",
    );
    m
}

/// `EventQueue` replay: push the day's arrival instants, pop them all.
fn replay_queue(inputs: &[(SimTime, usize)]) -> f64 {
    let t = Instant::now();
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, &(at, _)) in inputs.iter().enumerate() {
        q.push(at, i as u32);
    }
    let mut popped = 0usize;
    while let Some((_, e)) = q.pop_due(SimTime::FAR_FUTURE) {
        black_box(e);
        popped += 1;
    }
    assert_eq!(popped, inputs.len(), "the queue returns every event");
    t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64
}

/// `NextEventCache` replay: one slot per endpoint, each arrival dirties its
/// endpoint's slot and refreshes (volatile slots on the shared-scheduler
/// day, as the cloud registers them).
fn replay_cache(inputs: &[(SimTime, usize)], slots: usize, volatile: bool) -> f64 {
    let mut cache = NextEventCache::new();
    for s in 0..slots {
        cache.register();
        cache.set_volatile(s, volatile);
    }
    let mut next = vec![None; slots];
    let t = Instant::now();
    for &(at, ep) in inputs {
        next[ep] = Some(at);
        cache.mark_dirty(ep);
        cache.refresh(|s| next[s]);
        black_box(cache.min());
    }
    t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64
}

/// Rolling `Trace` replay: one `task.done` line per arrival.
fn replay_trace(inputs: &[(SimTime, usize)], names: &[String]) -> f64 {
    let mut trace = Trace::new();
    trace.set_rolling(ROLLING_CAP);
    let components: Vec<_> = names.iter().map(|n| trace.intern(n)).collect();
    let t = Instant::now();
    for (i, &(at, ep)) in inputs.iter().enumerate() {
        let mut detail = trace.detail_buf();
        TaskId(i as u64 + 1).write_label(&mut detail);
        trace.record(at, components[ep].clone(), "task.done", detail);
    }
    let ns = t.elapsed().as_nanos() as f64 / inputs.len().max(1) as f64;
    black_box(trace.rolling_digest());
    ns
}

/// `BatchScheduler` replay of the day's terminal pilot jobs: each is
/// resubmitted at its recorded submit instant as a fixed job of its recorded
/// runtime, on a fresh scheduler over the same partition.
fn replay_scheduler(schedulers: &[SchedHandle]) -> Option<f64> {
    let mut jobs = 0usize;
    let mut ns = 0u128;
    for h in schedulers {
        let records = h.sched.lock().accounting().records().to_vec();
        let mut specs: Vec<(SimTime, JobSpec)> = records
            .iter()
            .map(|r| {
                let (submitted, runtime) = match r.state {
                    JobState::Completed {
                        submitted,
                        started,
                        ended,
                        ..
                    }
                    | JobState::TimedOut {
                        submitted,
                        started,
                        ended,
                    }
                    | JobState::Preempted {
                        submitted,
                        started,
                        ended,
                    } => (submitted, ended.since(started)),
                    JobState::Cancelled { submitted, .. } => (submitted, SimDuration::ZERO),
                    JobState::Pending { submitted } | JobState::Running { submitted, .. } => {
                        (submitted, SimDuration::ZERO)
                    }
                };
                let runtime = runtime.max(SimDuration::from_secs(1));
                let spec = JobSpec {
                    name: r.name.clone(),
                    user: r.user,
                    allocation: r.allocation.clone(),
                    partition: r.partition.clone(),
                    nodes: r.nodes,
                    cores_per_node: r.cores_per_node,
                    walltime: runtime + SimDuration::from_secs(1),
                    payload: JobPayload::Fixed {
                        duration: runtime,
                        success: true,
                    },
                };
                (submitted, spec)
            })
            .collect();
        specs.sort_by_key(|(at, _)| *at);
        let t = Instant::now();
        let mut sched = BatchScheduler::with_compute_partition(h.nodes.clone(), h.cores);
        for (at, spec) in specs {
            sched.advance_to(at);
            sched
                .submit(spec, at)
                .expect("replayed job fits the partition");
            jobs += 1;
        }
        sched.advance_to(SimTime::FAR_FUTURE);
        black_box(sched.accounting().records().len());
        ns += t.elapsed().as_nanos();
    }
    (jobs > 0).then(|| ns as f64 / jobs as f64)
}

/// Run days while another fits in `seconds` (at least one) and summarise.
pub fn run(
    kind: DayKind,
    seed: u64,
    tasks: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> (Metrics, Check, u64) {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut days: Vec<DaySample> = Vec::new();
    let mut check = Check::default();
    loop {
        let unit = Instant::now();
        // Set-up takes a fraction of a millisecond: sample it several times
        // before every day, so the samples spread over the whole run rather
        // than catching one moment of the host's load.
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            black_box(build_world(kind, seed, tasks, &Obs::disabled()));
            setups.push(t.elapsed().as_secs_f64());
        }
        let mut day = run_day(kind, seed, tasks, tr);
        let reference = days
            .first()
            .map_or(day.outcome.digest, |d| d.outcome.digest);
        check.absorb(check_day(&day.outcome, Some(reference)));
        // Checked: drop the per-task record so the RSS high-water does not
        // grow with the number of days that fit in the budget.
        day.outcome.tasks = Vec::new();
        days.push(day);
        if !fits_another(start, unit.elapsed().as_secs_f64(), seconds) {
            break;
        }
    }
    let (m, reference) = summarise(&days, &setups, tr);
    (m, check, reference)
}

fn summarise(days: &[DaySample], setups: &[f64], tr: &Tracer) -> (Metrics, u64) {
    let reference = days[0].outcome.digest;
    let mut m = Metrics::default();
    // Every timing is scaled to the host's reference speed (see `host`).
    let mut host = HostSpeed::default();
    for d in days {
        host.merge(&d.host);
    }
    let slow = host.slowdown();
    let waves: Vec<f64> =
        median_per_op(&days.iter().map(|d| d.wave_ms.clone()).collect::<Vec<_>>())
            .into_iter()
            .map(|ms| ms / slow)
            .collect();
    let day_ms: f64 = waves.iter().sum();
    m.num(
        "tasks_per_s",
        days[0].tasks as f64 / (day_ms / 1e3),
        "tasks/s",
    );
    m.num("op_p50_ms", quantile(&waves, 0.50), "ms");
    m.num("op_p90_ms", quantile(&waves, 0.90), "ms");
    m.num("setup_s", median(setups) / slow, "s");
    host.report(&mut m);
    m.opt(
        "peak_rss_mib",
        crate::report::peak_rss_mib(),
        "procfs unavailable",
        "MiB",
    );
    m.num("ops", (waves.len() * days.len()) as f64, "count");
    m.num("days", days.len() as f64, "count");
    let last = days.last().expect("at least one day");
    m.num("faas.tasks_rejected", last.rejected as f64, "count");
    m.num("faas.tasks_failed_infra", last.failed_infra as f64, "count");
    m.num(
        "sim.events_per_task",
        last.events as f64 / last.tasks as f64,
        "events/task",
    );
    let alloc_reason = "counting allocator not compiled in (plain binary)";
    m.opt(
        "allocs_per_task",
        last.allocs.map(|a| a.0 as f64 / last.tasks as f64),
        alloc_reason,
        "allocs/task",
    );
    m.opt(
        "alloc_bytes_per_task",
        last.allocs.map(|a| a.1 as f64 / last.tasks as f64),
        alloc_reason,
        "B/task",
    );
    if let Some(layers) = &last.layers {
        m.extend(layers.clone());
        let tasks = days.iter().map(|d| d.tasks).sum::<u64>() as f64;
        let ns = |span: &str| tr.totals(span).total_ns as f64;
        m.num(
            "sim.workload.arrival_ns",
            ns("sim.workload.arrival") / tasks,
            "ns/arrival",
        );
        m.num("faas.submit_ns", ns("faas.submit") / tasks, "ns/task");
        m.num("faas.drain_ns", ns("faas.drain") / tasks, "ns/task");
        m.num(
            "faas.drain_share",
            ns("faas.drain") / ns("day.wave"),
            "ratio",
        );
    }
    (m, reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> DayOutcome {
        DayOutcome {
            submitted: vec![2, 1],
            tasks: vec![
                TaskEnd::Done {
                    ep: Some(0),
                    ok: true,
                    infra: false,
                },
                TaskEnd::Rejected { ep: Some(1) },
                TaskEnd::Done {
                    ep: Some(0),
                    ok: false,
                    infra: true,
                },
            ],
            crashed: [0, 1].into_iter().collect(),
            digest: 7,
        }
    }

    #[test]
    fn explained_outcomes_pass() {
        let c = check_day(&outcome(), Some(7));
        assert!(c.passed(), "{:?}", c.messages);
        assert_eq!(c.attempted, 3);
    }

    #[test]
    fn unattributed_rejection_fails() {
        let mut o = outcome();
        o.crashed.remove(&1);
        assert_eq!(check_day(&o, None).failed, 1);
    }

    #[test]
    fn dropped_task_fails() {
        let mut o = outcome();
        o.tasks.pop();
        assert!(check_day(&o, None).failed >= 1);
        let mut o = outcome();
        o.tasks[0] = TaskEnd::Pending;
        assert_eq!(check_day(&o, None).failed, 1);
    }

    #[test]
    fn misrouted_task_fails() {
        let mut o = outcome();
        o.tasks[0] = TaskEnd::Done {
            ep: Some(1),
            ok: true,
            infra: false,
        };
        assert!(check_day(&o, None).failed >= 1);
    }

    #[test]
    fn altered_digest_fails() {
        assert_eq!(check_day(&outcome(), Some(8)).failed, 1);
    }
}
