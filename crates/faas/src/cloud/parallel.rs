//! The window driver: conservative parallel advancement of one federation.
//!
//! The cloud has two advance paths. The serial step loop
//! (`CloudService::dispatch_step`) interleaves three phases at every step
//! instant: advance due endpoints (endpoint-name order), collect finished
//! outputs onto the return wire, and handle due wire events (FIFO within a
//! timestamp). This module is the other path: [`CloudService::drive_windows`]
//! carries both `drain_to_quiescence` and bounded `advance_to(t)` through
//! deadline-clipped windows. It splits the *endpoint advancement* of a
//! window across worker threads — one [`hpcci_sim::DomainPlan`] lookahead
//! domain per thread — and then replays a deterministic merge of the
//! domains' logs so the committed trace is **byte-identical** to what the
//! serial loop writes.
//!
//! Why a whole window is one safe horizon (see [`hpcci_sim::horizon`]):
//! every cloud→endpoint `Deliver` that can land in an `advance_to(t)`
//! window is either already committed to the wire when the window opens,
//! or is induced by a scheduled [`InFlight::Submit`] that is itself on the
//! wire — and with positive lookahead its delivery leg lands *strictly
//! after* the submit instant, so the coordinator can pre-route it at
//! extraction time (acceptance stays on the coordinator, ids dense in
//! arrival order). The reverse direction — endpoint→cloud `Return`s — only
//! mutates coordinator state (task records, the trace, the wire), never
//! another domain. With every cross-domain interaction pre-committed or
//! one-way, each domain can advance straight to `t` without hearing from
//! the others: the window needs exactly one barrier, at its end.
//!
//! The merge reproduces the serial schedule from the domain logs in two
//! passes:
//!
//! 1. **State commit** (coordinator, before the next window opens): walk
//!    the committed instants — the union of wire event times and every
//!    domain's step instants — and at each instant re-emit `task.returning`
//!    collections in endpoint-name order (domain id never breaks a tie;
//!    slot rank does, which is the serial order), then handle wire events
//!    in structural FIFO order, consuming each domain's enqueue results in
//!    the order the worker produced them. Task records, the wire, counters
//!    and the latency reservoir all mutate here; trace records are only
//!    *described*, appended to a [`TraceOps`] batch.
//! 2. **Trace replay** (merge worker, overlapping the next window's domain
//!    execution): apply the `TraceOps` batch to the real [`Trace`] in
//!    order. The batch carries pre-formatted detail bytes and static kind
//!    names, so the applied records are byte-for-byte what the serial loop
//!    would have written — the pass is pure formatting, which is why it
//!    can be deferred off the critical path.
//!
//! One drive keeps one persistent pool — `plan.len()` domain workers plus
//! one merge worker, spawned at the first eligible window — and feeds it
//! per-window [`DomainBatch`]es over channels with full scratch reuse, so a
//! steady-state window allocates almost nothing and spawns no threads.
//! Instants that do not warrant a window run through the serial step loop,
//! with the trace flushed back from the merge worker first. A worker that
//! panics sends its payload back as a poison result; the coordinator
//! re-raises it, so a panic inside a window surfaces as a panic of the
//! drive instead of a hang at the barrier.
//!
//! Anything the replay cannot reproduce exactly falls back to serial before
//! the window starts: fault injectors (consult boundaries move under
//! partitioning), shared batch schedulers (zero lookahead: a scheduler
//! job-end re-times its tenants at the very instant it happens), and
//! pending submits under zero lookahead (the induced delivery could land at
//! the submit's own instant, which the one-generation instant walk cannot
//! order).

use super::*;
use hpcci_sim::{DomainPlan, SimDuration};
use std::any::Any;
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::Scope;
use std::time::Instant;

/// A worker's panic payload, carried back to the coordinator to re-raise.
type Panic = Box<dyn Any + Send + 'static>;

/// Target committed events per pooled window. The driver adapts its window
/// span toward this batch size: large enough to amortize the channel
/// round-trip, small enough that the merge worker's trace replay overlaps
/// the next window's domain execution instead of serializing behind it.
const TARGET_WINDOW_EVENTS: u64 = 4096;

/// Initial pooled window span (virtual µs); adapted per window.
pub(super) const WINDOW_SPAN_INIT_US: u64 = 1_000_000;

/// Window-span adaptation bounds (virtual µs): 1 ms to 1 hour.
const WINDOW_SPAN_MIN_US: u64 = 1_000;
const WINDOW_SPAN_MAX_US: u64 = 3_600_000_000;

/// Calibrated serial cost of one dispatched event, used to re-derive the
/// break-even window size from the measured per-window overhead. The
/// BENCH_federation.json trajectory has held ~2.3–2.6M events/s no-obs
/// since PR 5, i.e. ~400 ns/event on the reference host.
const SERIAL_NS_PER_EVENT: u64 = 400;

/// Adaptive `min_wire` clamp. The floor keeps degenerate windows serial
/// even when the measured overhead rounds to zero; the ceiling keeps a
/// slow host from locking the driver out of parallelism entirely.
const PARALLEL_WIRE_FLOOR: usize = 8;
const PARALLEL_WIRE_CEIL: usize = 256;

/// One cloud→endpoint delivery routed to the owning domain for the window.
pub(super) struct WindowDeliver {
    pub at: SimTime,
    pub slot: usize,
    pub task: TaskId,
    pub identity: Arc<Identity>,
    pub command: Sym,
}

/// The deliveries one domain must apply during the window, in wire order.
#[derive(Default)]
pub(super) struct DomainBatch {
    pub delivers: Vec<WindowDeliver>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum StepKind {
    /// The endpoint had a due internal event and was advanced; its finished
    /// outputs (possibly none) are collected at this very instant.
    Advanced,
    /// Outputs that appeared synchronously while applying a delivery. The
    /// serial loop only sees these at the *next* step instant (the deliver
    /// phase runs after collection), so the merge defers them one instant.
    DeliverInduced,
}

/// One instant of one endpoint's life inside a domain, plus the range of
/// `DomainLog::outputs` it surfaced.
pub(super) struct StepEntry {
    pub at: SimTime,
    pub slot: usize,
    pub kind: StepKind,
    pub out_start: usize,
    pub out_len: usize,
}

/// Everything a domain worker did during the window, in causal order.
#[derive(Default)]
pub(super) struct DomainLog {
    pub steps: Vec<StepEntry>,
    /// Flattened outputs referenced by `StepEntry` ranges; `Option` so the
    /// merge can move each one out exactly once.
    pub outputs: Vec<Option<(TaskId, TaskOutput)>>,
    /// Enqueue results in delivery order — the merge consumes these FIFO
    /// while replaying the domain's `Deliver` wire events.
    pub deliver_results: Vec<Result<(), FaasError>>,
    /// Due-endpoint advancements performed (the serial loop's
    /// `events_dispatched` contribution from this domain).
    pub advancements: u64,
}

impl DomainLog {
    fn clear(&mut self) {
        self.steps.clear();
        self.outputs.clear();
        self.deliver_results.clear();
        self.advancements = 0;
    }
}

/// Base pointer of the endpoint slot table, sendable to domain workers.
///
/// SAFETY contract: a worker dereferences only the slots of its own domain
/// (disjoint across domains by `DomainPlan` construction, re-asserted at
/// pool spawn), and the coordinator does not touch `self.endpoints` — nor
/// anything that could move the `Vec` — between dispatching a window's
/// jobs and receiving all of its results.
#[derive(Clone, Copy)]
pub(super) struct EndpointsBase {
    ptr: *mut EndpointRegistration,
    len: usize,
}

unsafe impl Send for EndpointsBase {}

impl EndpointsBase {
    fn of(endpoints: &mut [EndpointRegistration]) -> Self {
        EndpointsBase {
            ptr: endpoints.as_mut_ptr(),
            len: endpoints.len(),
        }
    }
}

/// One window's work order for one domain worker: the shared slot table,
/// the horizon, the pre-routed deliveries, and a recycled log to fill.
pub(super) struct DomainJob {
    domain: usize,
    base: EndpointsBase,
    horizon: SimTime,
    batch: DomainBatch,
    log: DomainLog,
}

/// Every slot index a plan hands out must be in range and owned by exactly
/// one domain; workers rely on this for the disjoint `&mut` derivation.
fn assert_plan_disjoint(plan: &DomainPlan, len: usize) {
    let mut taken = vec![false; len];
    for slots in plan.iter() {
        for &s in slots.iter() {
            assert!(s < len, "domain plan slot out of range");
            assert!(!taken[s], "domain plan slots must be disjoint");
            taken[s] = true;
        }
    }
}

/// One domain's event loop: advance due endpoints (slot order — which is
/// endpoint-name order, the serial order) and apply the domain's deliveries
/// (wire order), logging each instant for the deterministic merge. All
/// buffers are caller-owned so a pooled worker reuses them across windows.
fn run_domain_into(
    base: EndpointsBase,
    slots: &[usize],
    batch: &DomainBatch,
    horizon: SimTime,
    log: &mut DomainLog,
    times: &mut Vec<Option<SimTime>>,
    scratch: &mut Vec<(TaskId, TaskOutput)>,
) {
    log.clear();
    times.clear();
    for &s in slots {
        debug_assert!(s < base.len);
        // SAFETY: `s` belongs to this domain (see `EndpointsBase`).
        times.push(unsafe { (*base.ptr.add(s)).next_event() });
    }
    let mut di = 0usize;
    loop {
        let mut tau: Option<SimTime> = batch.delivers.get(di).map(|d| d.at);
        for t in times.iter().flatten() {
            tau = Some(tau.map_or(*t, |x| x.min(*t)));
        }
        let Some(tau) = tau else { break };
        if tau > horizon {
            break;
        }
        // Advance endpoints with a due event, in slot order.
        for (i, &slot) in slots.iter().enumerate() {
            if times[i].is_some_and(|next| next <= tau) {
                // SAFETY: `slot` belongs to this domain (see `EndpointsBase`).
                let ep = unsafe { &mut *base.ptr.add(slot) };
                ep.advance_to(tau);
                log.advancements += 1;
                scratch.clear();
                ep.drain_finished_into(scratch);
                push_step(log, tau, slot, StepKind::Advanced, scratch);
                times[i] = ep.next_event();
            }
        }
        // Apply this domain's due deliveries in wire (FIFO) order.
        while batch.delivers.get(di).is_some_and(|d| d.at == tau) {
            let d = &batch.delivers[di];
            di += 1;
            let i = slots
                .iter()
                .position(|&s| s == d.slot)
                .expect("delivery routed to its owning domain");
            // SAFETY: `d.slot` belongs to this domain (routed by the plan).
            let ep = unsafe { &mut *base.ptr.add(d.slot) };
            let result = match ep {
                EndpointRegistration::Single(e) => e.enqueue(d.task, &d.command, tau),
                EndpointRegistration::Multi(m) => m.enqueue(d.task, &d.identity, &d.command, tau),
            };
            log.deliver_results.push(result);
            scratch.clear();
            ep.drain_finished_into(scratch);
            if !scratch.is_empty() {
                push_step(log, tau, d.slot, StepKind::DeliverInduced, scratch);
            }
            times[i] = ep.next_event();
        }
    }
}

fn push_step(
    log: &mut DomainLog,
    at: SimTime,
    slot: usize,
    kind: StepKind,
    outputs: &mut Vec<(TaskId, TaskOutput)>,
) {
    let out_start = log.outputs.len();
    log.outputs.extend(outputs.drain(..).map(Some));
    log.steps.push(StepEntry {
        at,
        slot,
        kind,
        out_start,
        out_len: log.outputs.len() - out_start,
    });
}

/// A wire event of the window being replayed at the barrier. `Deliver`
/// payloads travelled to the domains; only the stub (task + slot) stays
/// behind so the coordinator can re-emit the record and the transition in
/// structural FIFO order. `Submit` carries its full payload: acceptance —
/// the id assignment, the task record, the `task.submit` line — happens on
/// the coordinator during the merge, in arrival order.
enum Replay {
    Submit {
        task: TaskId,
        slot: usize,
        identity: Arc<Identity>,
        command: Sym,
    },
    Deliver {
        task: TaskId,
        slot: usize,
    },
    Return {
        task: TaskId,
        output: TaskOutput,
    },
}

/// Finished outputs awaiting collection at the next committed instant.
enum Deferred {
    /// Drained from an endpoint's buffer before the window (outputs
    /// stranded by a previous window's final delivery).
    Pre {
        slot: usize,
        items: Vec<(TaskId, TaskOutput)>,
    },
    /// A range of one domain log's outputs.
    Log {
        slot: usize,
        domain: usize,
        start: usize,
        len: usize,
    },
}

impl Deferred {
    fn slot(&self) -> usize {
        match self {
            Deferred::Pre { slot, .. } | Deferred::Log { slot, .. } => *slot,
        }
    }
}

/// Component column of a deferred trace record: a cache slot, or the cloud.
const OPS_CLOUD: u32 = u32::MAX;

struct Op {
    at: SimTime,
    comp: u32,
    kind: &'static str,
    start: u32,
    len: u32,
}

/// A window's trace records, described but not yet written: static kind
/// names plus pre-formatted detail bytes in one arena. The state-commit
/// pass appends; the merge worker (or the inline caller) applies them to
/// the real [`Trace`] in order, reproducing the serial bytes exactly.
#[derive(Default)]
pub(super) struct TraceOps {
    text: String,
    ops: Vec<Op>,
}

impl TraceOps {
    fn begin(&mut self) -> u32 {
        self.text.len() as u32
    }

    fn buf(&mut self) -> &mut String {
        &mut self.text
    }

    fn commit_op(&mut self, at: SimTime, comp: u32, kind: &'static str, start: u32) {
        self.ops.push(Op {
            at,
            comp,
            kind,
            start,
            len: self.text.len() as u32 - start,
        });
    }

    fn abandon(&mut self, start: u32) {
        self.text.truncate(start as usize);
    }

    fn clear(&mut self) {
        self.text.clear();
        self.ops.clear();
    }

    pub(super) fn apply(&self, trace: &mut Trace, slot_syms: &[Sym]) {
        for op in &self.ops {
            let mut d = trace.detail_buf();
            d.push_str(&self.text[op.start as usize..(op.start + op.len) as usize]);
            match op.comp {
                OPS_CLOUD => trace.record(op.at, "faas.cloud", op.kind, d),
                slot => trace.record(op.at, slot_syms[slot as usize].clone(), op.kind, d),
            }
        }
    }
}

/// Commands for the merge worker. Sent on one channel, so per-sender FIFO
/// guarantees every `Apply` drains before a `Handback` returns the trace.
enum MergeCmd {
    /// Hand the trace to the worker (taken from the coordinator).
    Resume(Box<Trace>),
    /// Apply one window's records; the emptied batch comes back on the
    /// recycle channel.
    Apply(TraceOps),
    /// Return the trace to the coordinator (who must block on it before
    /// recording anything itself).
    Handback,
}

/// Per-drive state and static scaffolding of the window driver:
/// `plan.len()` domain workers plus one merge worker, all channel-fed, plus
/// every recycled per-window buffer.
pub(super) struct WindowPool {
    job_txs: Vec<Sender<DomainJob>>,
    /// Finished jobs, or the payload of a domain worker that panicked.
    result_rx: Receiver<Result<DomainJob, Panic>>,
    merge_tx: Sender<MergeCmd>,
    recycle_rx: Receiver<TraceOps>,
    /// The handed-back trace, or the payload of a merge worker that panicked.
    trace_rx: Receiver<Result<Box<Trace>, Panic>>,
    /// Per-domain delivery batches, refilled each window.
    batches: Vec<DomainBatch>,
    /// Per-domain logs, moved into jobs and back each window.
    logs: Vec<DomainLog>,
    /// Replayed wire events of the current window (always drained empty).
    replay: EventQueue<Replay>,
    /// Pre-window stranded outputs (usually empty).
    deferred: Vec<Deferred>,
    /// `TraceOps` batches not currently in flight.
    ops_free: Vec<TraceOps>,
    /// The merge worker holds the trace; flush before touching `self.trace`.
    trace_out: bool,
    ops_sent: u64,
    ops_recycled: u64,
    /// Threads this pool spawned (domain workers + the merge worker).
    pub spawned: u64,
}

impl WindowPool {
    /// Spawn the pool inside the drive's scope. Workers own only their slot
    /// list and channel ends, so a window dispatch moves no thread state.
    /// Each worker runs under `catch_unwind` and sends a panic back as a
    /// poison result instead of dying silently: the other workers keep the
    /// result channel open, so a silent death would leave the coordinator
    /// blocked at the barrier forever.
    fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        plan: &DomainPlan,
        n_slots: usize,
        slot_syms: Vec<Sym>,
    ) -> WindowPool {
        assert_plan_disjoint(plan, n_slots);
        let (result_tx, result_rx) = channel::<Result<DomainJob, Panic>>();
        let mut job_txs = Vec::with_capacity(plan.len());
        for slots in plan.iter() {
            let (tx, rx) = channel::<DomainJob>();
            let result_tx = result_tx.clone();
            let slots: Vec<usize> = slots.to_vec();
            scope.spawn(move || {
                let mut times: Vec<Option<SimTime>> = Vec::new();
                let mut scratch: Vec<(TaskId, TaskOutput)> = Vec::new();
                while let Ok(mut job) = rx.recv() {
                    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                        run_domain_into(
                            job.base,
                            &slots,
                            &job.batch,
                            job.horizon,
                            &mut job.log,
                            &mut times,
                            &mut scratch,
                        )
                    }));
                    let poisoned = ran.is_err();
                    if result_tx.send(ran.map(|()| job)).is_err() || poisoned {
                        break;
                    }
                }
            });
            job_txs.push(tx);
        }
        let (merge_tx, merge_rx) = channel::<MergeCmd>();
        let (recycle_tx, recycle_rx) = channel::<TraceOps>();
        let (trace_tx, trace_rx) = channel::<Result<Box<Trace>, Panic>>();
        scope.spawn(move || {
            let mut trace: Option<Box<Trace>> = None;
            let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                while let Ok(cmd) = merge_rx.recv() {
                    match cmd {
                        MergeCmd::Resume(t) => trace = Some(t),
                        MergeCmd::Apply(mut ops) => {
                            let t = trace.as_mut().expect("merge worker holds the trace");
                            ops.apply(t, &slot_syms);
                            ops.clear();
                            let _ = recycle_tx.send(ops);
                        }
                        MergeCmd::Handback => {
                            let t = trace.take().expect("handback without a resident trace");
                            if trace_tx.send(Ok(t)).is_err() {
                                break;
                            }
                        }
                    }
                }
            }));
            if let Err(payload) = ran {
                let _ = trace_tx.send(Err(payload));
            }
        });
        WindowPool {
            job_txs,
            result_rx,
            merge_tx,
            recycle_rx,
            trace_rx,
            batches: (0..plan.len()).map(|_| DomainBatch::default()).collect(),
            logs: (0..plan.len()).map(|_| DomainLog::default()).collect(),
            replay: EventQueue::new(),
            deferred: Vec::new(),
            ops_free: Vec::new(),
            trace_out: false,
            ops_sent: 0,
            ops_recycled: 0,
            spawned: plan.len() as u64 + 1,
        }
    }

    /// Block for one domain worker's finished job; re-raise its panic.
    fn recv_job(&self) -> DomainJob {
        let result = self.result_rx.recv();
        match result.expect("domain workers outlive the pool") {
            Ok(job) => job,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Send one command to the merge worker. If the worker is gone, it left
    /// its panic payload on the trace channel: re-raise it here.
    fn merge(&self, cmd: MergeCmd) {
        if self.merge_tx.send(cmd).is_err() {
            self.recv_trace();
            unreachable!("a merge worker only exits early by panicking");
        }
    }

    /// Block for the merge worker's trace handback; re-raise its panic.
    fn recv_trace(&self) -> Box<Trace> {
        let handback = self.trace_rx.recv();
        match handback.expect("merge worker outlives the pool") {
            Ok(trace) => trace,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    fn reclaim_applied(&mut self) {
        while let Ok(ops) = self.recycle_rx.try_recv() {
            self.ops_recycled += 1;
            self.ops_free.push(ops);
        }
    }

    fn take_ops(&mut self) -> TraceOps {
        self.reclaim_applied();
        self.ops_free.pop().unwrap_or_default()
    }

    fn in_flight(&self) -> u64 {
        self.ops_sent - self.ops_recycled
    }
}

/// The per-drive constants of a window: the (immutable) domain partition
/// and each slot's one-way return latency. Probed once, not per window —
/// both are pure functions of the registered endpoints, which cannot change
/// while a drive holds `&mut CloudService`.
pub(super) struct WindowCtx {
    pub plan: DomainPlan,
    pub latency: Vec<SimDuration>,
}

impl CloudService {
    pub(super) fn window_ctx(&self) -> WindowCtx {
        WindowCtx {
            plan: self
                .domain_plan
                .clone()
                .expect("domain plan ensured before a parallel window"),
            latency: self.endpoints.iter().map(|ep| ep.wan_latency()).collect(),
        }
    }

    /// Stranded outputs from before the window: the serial loop would
    /// collect these at its next step instant, whatever causes it.
    fn drain_stranded(&mut self, deferred: &mut Vec<Deferred>) {
        if self.touched.is_empty() {
            return;
        }
        {
            let rank = &self.slot_rank;
            self.touched.sort_unstable_by_key(|&s| rank[s]);
        }
        self.touched.dedup();
        for i in 0..self.touched.len() {
            let slot = self.touched[i];
            let mut items = Vec::new();
            self.endpoints[slot].drain_finished_into(&mut items);
            if !items.is_empty() {
                deferred.push(Deferred::Pre { slot, items });
            }
        }
        self.touched.clear();
    }

    /// Extract the window's committed wire events: `Deliver` payloads go to
    /// the owning domain, stubs and `Return`s into the replay queue (same
    /// structural FIFO order the serial drain would see). Pending `Submit`s
    /// are pre-routed: each is assigned its prospective dense id (submits
    /// fire in (time, FIFO) order — exactly this walk order — so acceptance
    /// order *is* walk order) and its induced delivery leg, which positive
    /// lookahead puts strictly after the submit instant.
    fn extract_window(&mut self, t: SimTime, ctx: &WindowCtx, pool: &mut WindowPool) {
        debug_assert!(self.injector.is_none(), "parallel windows are injector-free");
        let mut incoming = std::mem::take(&mut self.wire_scratch);
        incoming.clear();
        self.wire.drain_due_into(t, &mut incoming);
        let mut induced: Vec<WindowDeliver> = Vec::new();
        let mut next_id = self.next_task;
        for b in pool.batches.iter_mut() {
            b.delivers.clear();
        }
        for (at, event) in incoming.drain(..) {
            match event {
                InFlight::Submit {
                    identity,
                    slot,
                    command,
                } => {
                    next_id += 1;
                    let task = TaskId(next_id);
                    let del_at = at + ctx.latency[slot];
                    debug_assert!(del_at > at, "positive lookahead gates submit-aware windows");
                    if del_at <= t {
                        induced.push(WindowDeliver {
                            at: del_at,
                            slot,
                            task,
                            identity: identity.clone(),
                            command: command.clone(),
                        });
                    }
                    pool.replay.push(
                        at,
                        Replay::Submit {
                            task,
                            slot,
                            identity,
                            command,
                        },
                    );
                }
                InFlight::Deliver { task, identity, slot } => {
                    let command = self.tasks[task.0 as usize - 1].command.clone();
                    pool.replay.push(at, Replay::Deliver { task, slot });
                    pool.batches[ctx.plan.domain_of(slot)]
                        .delivers
                        .push(WindowDeliver {
                            at,
                            slot,
                            task,
                            identity,
                            command,
                        });
                }
                InFlight::Return { task, output } => {
                    pool.replay.push(at, Replay::Return { task, output });
                }
            }
        }
        // Submit-induced deliveries enter the wire *during* the window, so
        // at equal timestamps the serial drain pops them after every
        // pre-existing event: append them to the batches after the walk and
        // stable-sort by time, preserving FIFO within a timestamp. Their
        // replay stubs are NOT pushed here — the serial wire orders
        // same-timestamp events by *generation* instant (a collection-phase
        // `Return` at τ precedes a submit-induced `Deliver` generated in
        // τ's wire phase), so `commit_submit` pushes each stub at its
        // submit's firing point in the commit walk, mirroring generation
        // order exactly.
        for d in induced {
            pool.batches[ctx.plan.domain_of(d.slot)].delivers.push(d);
        }
        for b in pool.batches.iter_mut() {
            b.delivers.sort_by_key(|d| d.at);
        }
        self.wire_scratch = incoming;
    }

    /// The state-commit pass: walk the committed instants and re-emit the
    /// serial schedule from the domain logs, mutating every piece of
    /// coordinator state in serial order and describing each trace record
    /// into `ops`. Returns the last committed instant, or `None` when the
    /// window held no events at all.
    fn commit_window(
        &mut self,
        t: SimTime,
        ctx: &WindowCtx,
        pool: &mut WindowPool,
        ops: &mut TraceOps,
    ) -> Option<SimTime> {
        let WindowPool {
            replay,
            logs,
            deferred,
            ..
        } = pool;
        let mut cursors = vec![0usize; logs.len()];
        let mut results_cursor = vec![0usize; logs.len()];
        let mut collect_list: Vec<Deferred> = Vec::new();
        let mut out_scratch: Vec<(TaskId, TaskOutput)> = Vec::new();
        let mut last_instant = None;
        loop {
            let mut tau = replay.next_time();
            for (d, log) in logs.iter().enumerate() {
                if let Some(entry) = log.steps.get(cursors[d]) {
                    tau = Some(tau.map_or(entry.at, |x| x.min(entry.at)));
                }
            }
            let Some(tau) = tau else { break };
            last_instant = Some(tau);
            // Collection phase: deferred outputs first (they were already in
            // the endpoints' buffers when this instant's advances appended to
            // them), then this instant's advancement outputs — all ordered by
            // slot rank, i.e. endpoint-name order, exactly the serial
            // `collect_touched_returns` order.
            collect_list.append(deferred);
            for (d, log) in logs.iter().enumerate() {
                while let Some(e) = log.steps.get(cursors[d]) {
                    if e.at != tau || e.kind != StepKind::Advanced {
                        break;
                    }
                    collect_list.push(Deferred::Log {
                        slot: e.slot,
                        domain: d,
                        start: e.out_start,
                        len: e.out_len,
                    });
                    cursors[d] += 1;
                }
            }
            {
                let rank = &self.slot_rank;
                collect_list.sort_by_key(|c| rank[c.slot()]);
            }
            for entry in collect_list.drain(..) {
                let slot = entry.slot();
                out_scratch.clear();
                match entry {
                    Deferred::Pre { items, .. } => out_scratch.extend(items),
                    Deferred::Log {
                        domain, start, len, ..
                    } => {
                        for o in &mut logs[domain].outputs[start..start + len] {
                            out_scratch.push(o.take().expect("each output is consumed once"));
                        }
                    }
                }
                for (task, output) in out_scratch.drain(..) {
                    let start = ops.begin();
                    {
                        let buf = ops.buf();
                        task.write_label(buf);
                        buf.push_str(" from endpoint");
                    }
                    ops.commit_op(tau, OPS_CLOUD, "task.returning", start);
                    let ret_at = tau + ctx.latency[slot];
                    if ret_at <= t {
                        replay.push(ret_at, Replay::Return { task, output });
                    } else {
                        self.wire.push(ret_at, InFlight::Return { task, output });
                    }
                }
            }
            // Wire phase: structural FIFO within the instant, consuming each
            // domain's enqueue results in the order the worker produced them.
            while let Some((at, event)) = replay.pop_due(tau) {
                self.events_dispatched += 1;
                match event {
                    Replay::Submit {
                        task,
                        slot,
                        identity,
                        command,
                    } => self.commit_submit(t, ctx, ops, replay, at, task, slot, identity, command),
                    Replay::Return { task, output } => self.commit_return(ops, at, task, output),
                    Replay::Deliver { task, slot } => {
                        let domain = ctx.plan.domain_of(slot);
                        let result = std::mem::replace(
                            &mut logs[domain].deliver_results[results_cursor[domain]],
                            Ok(()),
                        );
                        results_cursor[domain] += 1;
                        self.commit_deliver(ops, at, task, slot, result);
                    }
                }
            }
            // Defer phase: outputs induced by this instant's deliveries are
            // observed by the serial loop at the next step instant.
            for (d, log) in logs.iter().enumerate() {
                while let Some(e) = log.steps.get(cursors[d]) {
                    if e.at != tau {
                        break;
                    }
                    debug_assert_eq!(e.kind, StepKind::DeliverInduced);
                    deferred.push(Deferred::Log {
                        slot: e.slot,
                        domain: d,
                        start: e.out_start,
                        len: e.out_len,
                    });
                    cursors[d] += 1;
                }
            }
        }
        // Outputs induced at the final instant never saw a later instant:
        // the serial loop leaves them in the endpoints' buffers with the
        // slots on the touched list. Restore exactly that state.
        for entry in deferred.drain(..) {
            let slot = entry.slot();
            out_scratch.clear();
            match entry {
                Deferred::Pre { items, .. } => out_scratch.extend(items),
                Deferred::Log {
                    domain, start, len, ..
                } => {
                    for o in &mut logs[domain].outputs[start..start + len] {
                        out_scratch.push(o.take().expect("each output is consumed once"));
                    }
                }
            }
            self.endpoints[slot].restore_finished(&mut out_scratch);
            self.touched.push(slot);
        }
        // Bookkeeping: the serial loop's due-advancement event counts, the
        // per-domain window stats, and a full cache invalidation (workers
        // advanced endpoints behind the cache's back).
        let mut per_domain: Vec<u64> = Vec::with_capacity(logs.len());
        for (d, log) in logs.iter().enumerate() {
            debug_assert_eq!(cursors[d], log.steps.len(), "merge consumed every step");
            debug_assert_eq!(
                results_cursor[d],
                log.deliver_results.len(),
                "merge consumed every enqueue result"
            );
            self.events_dispatched += log.advancements;
            per_domain.push(log.advancements + log.deliver_results.len() as u64);
        }
        self.domain_stats.record_window(&per_domain);
        self.cache.mark_all_dirty();
        last_instant
    }

    /// Acceptance of a scheduled submission, replayed on the coordinator in
    /// arrival order: dense id, task record, `task.submit` bytes, and the
    /// delivery leg. The delivery *payload* was routed to its domain at
    /// extraction when it lands inside the window; its replay stub is
    /// pushed here — at the submit's firing point in the commit walk — so
    /// the stub's FIFO position among same-timestamp wire events matches
    /// the serial generation order. Beyond-window legs go to the real wire.
    #[allow(clippy::too_many_arguments)]
    fn commit_submit(
        &mut self,
        t: SimTime,
        ctx: &WindowCtx,
        ops: &mut TraceOps,
        replay: &mut EventQueue<Replay>,
        at: SimTime,
        task: TaskId,
        slot: usize,
        identity: Arc<Identity>,
        command: Sym,
    ) {
        self.pending_submits -= 1;
        self.next_task += 1;
        self.tasks_submitted += 1;
        debug_assert_eq!(task.0, self.next_task, "prospective ids match acceptance order");
        debug_assert_eq!(task.0 as usize, self.tasks.len() + 1, "ids are dense");
        self.tasks.push(Task {
            id: task,
            submitter: identity.id,
            endpoint: self.slot_name_syms[slot].clone(),
            command: command.clone(),
            submitted_at: at,
            state: TaskState::Submitted { at },
        });
        let start = ops.begin();
        {
            let name = &self.slot_name_syms[slot];
            let buf = ops.buf();
            buf.reserve(27 + name.len() + command.len());
            task.write_label(buf);
            buf.push_str(" -> ");
            buf.push_str(name);
            buf.push_str(": ");
            buf.push_str(&command);
        }
        ops.commit_op(at, OPS_CLOUD, "task.submit", start);
        let del_at = at + ctx.latency[slot];
        if del_at > t {
            self.wire.push(del_at, InFlight::Deliver { task, identity, slot });
        } else {
            replay.push(del_at, Replay::Deliver { task, slot });
        }
    }

    /// The deliver leg of the merge: the enqueue already happened inside the
    /// domain; here its logged result drives the same record/transition
    /// sequence the serial `handle_wire_event` performs.
    fn commit_deliver(
        &mut self,
        ops: &mut TraceOps,
        at: SimTime,
        task: TaskId,
        slot: usize,
        result: Result<(), FaasError>,
    ) {
        let start = ops.begin();
        task.write_label(ops.buf());
        ops.commit_op(at, slot as u32, "task.deliver", start);
        let transition = match result {
            Ok(()) => {
                self.tasks[task.0 as usize - 1].transition(TaskState::QueuedAtEndpoint { at })
            }
            Err(e) => {
                let start = ops.begin();
                let _ = write!(ops.buf(), "{task}: {e}");
                ops.commit_op(at, slot as u32, "task.reject", start);
                self.tasks[task.0 as usize - 1].transition(TaskState::Rejected {
                    at,
                    reason: e.to_string(),
                })
            }
        };
        if let Err(e) = transition {
            let start = ops.begin();
            let _ = write!(ops.buf(), "{e}");
            ops.commit_op(at, OPS_CLOUD, "task.transition-blocked", start);
        }
    }

    /// The return leg of the merge: byte-identical to the serial
    /// `handle_wire_event`, with the record described into `ops` instead of
    /// written to the (possibly absent) trace. The latency reservoir sample
    /// stays on the coordinator in replay order — `Reservoir` is
    /// order-sensitive.
    fn commit_return(&mut self, ops: &mut TraceOps, at: SimTime, task: TaskId, output: TaskOutput) {
        let start = ops.begin();
        {
            let buf = ops.buf();
            buf.reserve(42 + output.ran_as.len() + output.node.len());
            task.write_label(buf);
            buf.push_str(" ran_as=");
            buf.push_str(&output.ran_as);
            buf.push_str(" node=");
            buf.push_str(&output.node);
            buf.push_str(if output.success() { " ok=true" } else { " ok=false" });
        }
        let record = &mut self.tasks[task.0 as usize - 1];
        let submitted_at = record.submitted_at;
        match record.transition(TaskState::Done(output)) {
            Ok(()) => {
                self.tasks_completed += 1;
                self.obs
                    .observe("faas.task_latency_us", at.since(submitted_at).as_micros());
                ops.commit_op(at, OPS_CLOUD, "task.done", start);
            }
            Err(e) => {
                ops.abandon(start);
                let start = ops.begin();
                let _ = write!(ops.buf(), "{e}");
                ops.commit_op(at, OPS_CLOUD, "task.transition-blocked", start);
            }
        }
    }

    /// The window driver: dispatch every pending instant at or before `t`
    /// with a persistent worker pool — bounded, span-adapted parallel
    /// windows (clipped to `t`) whenever the remaining work admits them,
    /// serial steps otherwise (with the trace flushed back from the merge
    /// worker first). Leaves `now` at the last committed instant. The
    /// committed trace is byte-identical to the serial step loop at any
    /// width; only wall time and the barrier/stall/overhead counters depend
    /// on the pool.
    ///
    /// Caller guarantees: no fault injector anywhere, no shared batch
    /// scheduler (see [`CloudService::parallel_static_ok`]), and a plan with
    /// at least two domains.
    pub(super) fn drive_windows(&mut self, t: SimTime) {
        std::thread::scope(|scope| {
            let mut pooled: Option<(WindowCtx, WindowPool)> = None;
            while let Some(first) = self.next_step().filter(|&s| s <= t) {
                let deadline = (first + SimDuration::from_micros(self.window_span_us)).min(t);
                if self.parallel_window_ok(deadline) {
                    if pooled.is_none() {
                        let ctx = self.window_ctx();
                        let pool = WindowPool::spawn(
                            scope,
                            &ctx.plan,
                            self.endpoints.len(),
                            self.slot_syms.clone(),
                        );
                        self.pool_spawns += pool.spawned;
                        pooled = Some((ctx, pool));
                    }
                    let Some((ctx, pool)) = pooled.as_mut() else {
                        unreachable!("pool spawned above");
                    };
                    if let Some(last) = self.run_window(deadline, ctx, pool) {
                        self.now = last;
                        continue;
                    }
                    // Defensive: a window that committed nothing cannot
                    // advance the clock — fall through to one serial step so
                    // the drive always progresses.
                }
                // Serial step: the coordinator records to the trace itself,
                // so reclaim it from the merge worker first.
                if let Some((_, pool)) = pooled.as_mut() {
                    self.flush_merge(pool);
                }
                self.domain_stats.serial_fallbacks += 1;
                self.advance_serial(first);
            }
            if let Some((_, pool)) = pooled.as_mut() {
                self.flush_merge(pool);
            }
            // Dropping the pool closes every job/merge channel; the scope
            // then joins the (now exiting) workers.
        });
    }

    /// One pooled window over `[now, deadline]`: extract its wire events,
    /// run every domain to `deadline` on its worker, barrier, commit the
    /// merged state, and hand the described trace records to the merge
    /// worker. Returns the last committed instant, or `None` when the
    /// window held no events at all.
    fn run_window(
        &mut self,
        deadline: SimTime,
        ctx: &WindowCtx,
        pool: &mut WindowPool,
    ) -> Option<SimTime> {
        let events_before = self.events_dispatched;
        let overhead_start = Instant::now();
        self.drain_stranded(&mut pool.deferred);
        self.extract_window(deadline, ctx, pool);
        // Dispatch: move each domain's batch + recycled log to its worker;
        // barrier on all results before the merge touches any endpoint.
        let base = EndpointsBase::of(&mut self.endpoints);
        for d in 0..ctx.plan.len() {
            let job = DomainJob {
                domain: d,
                base,
                horizon: deadline,
                batch: std::mem::take(&mut pool.batches[d]),
                log: std::mem::take(&mut pool.logs[d]),
            };
            assert!(pool.job_txs[d].send(job).is_ok(), "domain worker alive");
        }
        let dispatched = overhead_start.elapsed();
        for _ in 0..ctx.plan.len() {
            let job = pool.recv_job();
            pool.batches[job.domain] = job.batch;
            pool.logs[job.domain] = job.log;
        }
        // The merge worker owns the trace while the pool runs; nothing below
        // records to `self.trace` directly.
        if !pool.trace_out {
            pool.merge(MergeCmd::Resume(Box::new(std::mem::take(&mut self.trace))));
            pool.trace_out = true;
        }
        let commit_start = Instant::now();
        let mut ops = pool.take_ops();
        let last = self.commit_window(deadline, ctx, pool, &mut ops);
        pool.merge(MergeCmd::Apply(ops));
        pool.ops_sent += 1;
        self.pipeline_depth_max = self.pipeline_depth_max.max(pool.in_flight());
        let overhead = dispatched + commit_start.elapsed();
        self.adapt_window(
            ctx,
            overhead.as_nanos() as u64,
            self.events_dispatched - events_before,
        );
        last
    }

    /// Block until the merge worker has applied every outstanding window
    /// and hand the trace back to the coordinator.
    fn flush_merge(&mut self, pool: &mut WindowPool) {
        if !pool.trace_out {
            return;
        }
        pool.reclaim_applied();
        if pool.in_flight() > 0 {
            self.merge_stalls += 1;
        }
        pool.merge(MergeCmd::Handback);
        self.trace = *pool.recv_trace();
        pool.trace_out = false;
        pool.reclaim_applied();
    }

    /// Re-derive the window span and the min-work gate from this window's
    /// committed event count and measured coordinator overhead. Both knobs
    /// only steer *which* windows run parallel and how wide they are — the
    /// committed bytes are invariant under any choice, so wall-clock inputs
    /// are safe here (the counters they feed are documented as
    /// run-dependent).
    fn adapt_window(&mut self, ctx: &WindowCtx, overhead_ns: u64, committed: u64) {
        self.window_overhead_ns = if self.window_overhead_ns == 0 {
            overhead_ns
        } else {
            (self.window_overhead_ns * 3 + overhead_ns) / 4
        };
        // Break-even pending-wire size: parallel pays `overhead` per window
        // and saves the off-coordinator share of the serial per-event cost.
        let workers = ctx.plan.len().max(2) as u64;
        let saved_per_event = (SERIAL_NS_PER_EVENT * (workers - 1) / workers).max(1);
        self.min_wire = ((self.window_overhead_ns / saved_per_event) as usize)
            .clamp(PARALLEL_WIRE_FLOOR, PARALLEL_WIRE_CEIL);
        // Steer the span toward the target events-per-window, within 4x per
        // window and hard bounds.
        if let Some(ideal) = self
            .window_span_us
            .saturating_mul(TARGET_WINDOW_EVENTS)
            .checked_div(committed)
        {
            let next = ideal
                .max(self.window_span_us / 4)
                .min(self.window_span_us.saturating_mul(4));
            self.window_span_us = next.clamp(WINDOW_SPAN_MIN_US, WINDOW_SPAN_MAX_US);
        }
    }
}
