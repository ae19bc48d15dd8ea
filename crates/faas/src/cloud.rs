//! The cloud service: the single contact point of the federation.
//!
//! "The cloud service provides a single contact point via which functions
//! can be registered and submitted for execution. … When a task completes,
//! the endpoint returns the result, or exception, to the cloud service for
//! users to later retrieve" (§5.1).

use crate::endpoint::Endpoint;
use crate::error::FaasError;
use crate::function::{Function, FunctionBody, FunctionId};
use crate::mep::MultiUserEndpoint;
use crate::task::{Task, TaskId, TaskOutput, TaskState};
use hpcci_auth::{AuthService, Identity, Scope};
use hpcci_obs::Obs;
use hpcci_sim::{
    Advance, DomainPlan, DomainStats, EventQueue, FaultInjector, Lookahead, NextEventCache,
    SimDuration, SimTime, Sym, Trace, Window,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

mod parallel;

/// Endpoint identifier (the "endpoint UUID" of the action inputs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub String);

impl std::fmt::Display for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::borrow::Borrow<str> for EndpointId {
    /// Lets `BTreeMap<EndpointId, _>` be queried by `&str` — the wire-event
    /// hot path resolves a task's endpoint name without cloning it into a
    /// fresh `EndpointId` first.
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A registered endpoint: single-user or multi-user.
pub enum EndpointRegistration {
    Single(Box<Endpoint>),
    Multi(Box<MultiUserEndpoint>),
}

impl EndpointRegistration {
    fn wan_latency(&self) -> hpcci_sim::SimDuration {
        match self {
            EndpointRegistration::Single(e) => e.wan_latency(),
            EndpointRegistration::Multi(m) => m.wan_latency(),
        }
    }

    fn function_allowed(&self, f: FunctionId) -> bool {
        match self {
            EndpointRegistration::Single(e) => e.function_allowed(f),
            EndpointRegistration::Multi(m) => m.function_allowed(f),
        }
    }

    fn shell_allowed(&self) -> bool {
        match self {
            EndpointRegistration::Single(e) => e.shell_allowed(),
            EndpointRegistration::Multi(m) => m.shell_allowed(),
        }
    }

    fn has_injector(&self) -> bool {
        match self {
            EndpointRegistration::Single(e) => e.has_injector(),
            EndpointRegistration::Multi(m) => m.has_injector(),
        }
    }

    fn consult_deadline(&self) -> Option<SimTime> {
        match self {
            EndpointRegistration::Single(e) => e.consult_deadline(),
            EndpointRegistration::Multi(m) => m.consult_deadline(),
        }
    }

    /// Would an advance to `t` find anything: an event or a consult deadline
    /// at or before it?
    fn due_at(&self, t: SimTime) -> bool {
        self.next_event().is_some_and(|at| at <= t)
            || self.consult_deadline().is_some_and(|at| at <= t)
    }

    fn shares_scheduler(&self) -> bool {
        match self {
            EndpointRegistration::Single(e) => e.shares_scheduler(),
            EndpointRegistration::Multi(m) => m.shares_scheduler(),
        }
    }

    fn next_event(&self) -> Option<SimTime> {
        match self {
            EndpointRegistration::Single(e) => e.next_event(),
            EndpointRegistration::Multi(m) => m.next_event(),
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        match self {
            EndpointRegistration::Single(e) => e.advance_to(t),
            EndpointRegistration::Multi(m) => m.advance_to(t),
        }
    }

    fn drain_finished_into(&mut self, out: &mut Vec<(TaskId, TaskOutput)>) {
        match self {
            EndpointRegistration::Single(e) => e.drain_finished_into(out),
            EndpointRegistration::Multi(m) => m.drain_finished_into(out),
        }
    }

    /// Put back outputs that a parallel window drained but whose collection
    /// instant lies beyond the window — the serial loop would have left them
    /// sitting in the endpoint's buffer.
    fn restore_finished(&mut self, items: &mut Vec<(TaskId, TaskOutput)>) {
        match self {
            EndpointRegistration::Single(e) => e.restore_finished(items),
            EndpointRegistration::Multi(m) => m.restore_finished(items),
        }
    }

    /// Affinity key for domain partitioning: endpoints sharing a site (one
    /// filesystem, one command registry, one scheduler) must co-locate. The
    /// key value is the shared site's address — only *equality* of keys is
    /// ever used, so the layout stays deterministic (groups are numbered by
    /// first appearance in slot order, see [`DomainPlan::partition`]).
    fn site_key(&self) -> u64 {
        let site = match self {
            EndpointRegistration::Single(e) => e.site(),
            EndpointRegistration::Multi(m) => m.site(),
        };
        Arc::as_ptr(site) as usize as u64
    }
}

enum InFlight {
    /// A scheduled future submission (see [`CloudService::submit_shell_at`]):
    /// validated up front, accepted — task id, `task.submit` trace record,
    /// delivery leg — when its arrival instant is reached, so ids stay dense
    /// in arrival order no matter how far ahead callers schedule.
    ///
    /// Validation resolved the endpoint to its slot and interned the command,
    /// so a wave of scheduled arrivals shares one `Arc<Identity>` and one
    /// command allocation instead of cloning strings per arrival.
    Submit {
        identity: Arc<Identity>,
        slot: usize,
        command: Sym,
    },
    Deliver {
        task: TaskId,
        identity: Arc<Identity>,
        slot: usize,
    },
    Return {
        task: TaskId,
        output: TaskOutput,
    },
}

/// Maximum bytes of a task's args or result payload. The paper notes Globus
/// Compute payload limits (§7.4); 10 MB matches its order of magnitude.
pub const PAYLOAD_LIMIT: usize = 10 * 1024 * 1024;

/// The FaaS cloud service.
pub struct CloudService {
    auth: Arc<Mutex<AuthService>>,
    functions: BTreeMap<FunctionId, Function>,
    /// Registered endpoints, indexed by cache slot. Name lookups go through
    /// `slots`; ordered walks go through `ordered_slots`. Slot-indexed so
    /// the hot loop reaches an endpoint with one bounds check instead of a
    /// string-keyed tree descent.
    endpoints: Vec<EndpointRegistration>,
    /// All tasks ever accepted, indexed by `TaskId` (ids are assigned
    /// sequentially from 1 and never removed, so `tasks[id - 1]` replaces a
    /// per-wire-event string of tree descents).
    tasks: Vec<Task>,
    wire: EventQueue<InFlight>,
    pub trace: Trace,
    now: SimTime,
    next_task: u64,
    next_function: u64,
    injector: Option<FaultInjector>,
    /// Indexed event dispatch over registered endpoints: each step only
    /// re-probes endpoints the cloud touched (plus volatile pilot-job ones)
    /// and only advances endpoints with a due event or consult deadline.
    cache: NextEventCache,
    /// Endpoint id → cache slot.
    slots: BTreeMap<EndpointId, usize>,
    /// Cache slot → interned `faas.ep.{id}` trace component.
    slot_syms: Vec<Sym>,
    /// Cache slot → interned plain endpoint name (shared by every task
    /// record targeting the endpoint).
    slot_name_syms: Vec<Sym>,
    /// Slots in endpoint-name order — the order the serial step loop
    /// advances and collects endpoints in. Rebuilt on registration.
    ordered_slots: Vec<usize>,
    /// Slot → position in `ordered_slots`: lets the hot loop order due/
    /// touched slot lists by comparing integers instead of endpoint names.
    slot_rank: Vec<usize>,
    /// Scratch: due slots of the current step, reused across steps.
    due_scratch: Vec<usize>,
    /// Slots touched (advanced or enqueued-into) since their finished
    /// outputs were last collected.
    touched: Vec<usize>,
    /// Scratch: due wire events of the current step, reused across steps.
    wire_scratch: Vec<(SimTime, InFlight)>,
    /// Scratch: finished outputs drained from one endpoint, reused across
    /// steps so collection allocates nothing in steady state.
    finished_scratch: Vec<(TaskId, TaskOutput)>,
    /// Observability handle, propagated to endpoints at registration.
    obs: Obs,
    /// Hot-loop counters kept as plain fields (no lock, no branch beyond the
    /// add) and harvested into `obs` by [`Self::harvest_metrics`].
    tasks_submitted: u64,
    tasks_completed: u64,
    events_dispatched: u64,
    /// Scheduled-but-not-yet-accepted [`InFlight::Submit`] events. A pending
    /// submission mutates global state (task table, id counter) when it
    /// fires, so parallel windows are deferred until the backlog drains.
    pending_submits: u64,
    /// Worker-thread budget for conservative parallel windows; 1 = serial.
    workers: usize,
    /// Cached lookahead-domain partition (invalidated on registration and on
    /// `endpoint_mut` escapes, rebuilt lazily by [`Self::ensure_domain_plan`]).
    domain_plan: Option<DomainPlan>,
    /// Folded lookahead across every endpoint, cached beside the plan.
    domain_lookahead: Lookahead,
    /// Barrier/stall/fallback counters for the parallel drive.
    domain_stats: DomainStats,
    /// Adaptive min-work gate for parallel windows, re-derived per pooled
    /// window from the measured coordinator overhead (starts at
    /// [`PARALLEL_MIN_WIRE`]). Steers only the serial/parallel *choice*,
    /// never the committed bytes.
    min_wire: usize,
    /// Adaptive pooled-window span (virtual µs), steered toward a target
    /// committed-events-per-window batch size.
    window_span_us: u64,
    /// EWMA of per-window coordinator overhead (extraction + dispatch +
    /// state-commit, excluding the barrier wait), wall nanoseconds.
    window_overhead_ns: u64,
    /// Threads spawned by the window driver (domain workers + merge
    /// workers). One pool per drive: this stays at `domains + 1` per drive
    /// no matter how many windows run.
    pool_spawns: u64,
    /// High-water mark of trace-replay batches in flight on the merge
    /// worker while the coordinator kept running.
    pipeline_depth_max: u64,
    /// Trace handbacks that had to wait on an unfinished replay batch.
    merge_stalls: u64,
}

/// Initial value of the adaptive min-work gate: below this many pending
/// wire events a window is advanced serially, until a measured per-window
/// overhead refines the break-even point (clamped to [8, 256]). The
/// persistent pool cut per-window cost enough to start at 16 where the
/// spawn-per-window engine needed 64.
const PARALLEL_MIN_WIRE: usize = 16;

impl CloudService {
    pub fn new(auth: Arc<Mutex<AuthService>>) -> Self {
        CloudService {
            auth,
            functions: BTreeMap::new(),
            endpoints: Vec::new(),
            tasks: Vec::new(),
            wire: EventQueue::new(),
            trace: Trace::new(),
            now: SimTime::ZERO,
            next_task: 0,
            next_function: 0,
            injector: None,
            cache: NextEventCache::new(),
            slots: BTreeMap::new(),
            slot_syms: Vec::new(),
            slot_name_syms: Vec::new(),
            ordered_slots: Vec::new(),
            slot_rank: Vec::new(),
            due_scratch: Vec::new(),
            touched: Vec::new(),
            wire_scratch: Vec::new(),
            finished_scratch: Vec::new(),
            obs: Obs::disabled(),
            pending_submits: 0,
            tasks_submitted: 0,
            tasks_completed: 0,
            events_dispatched: 0,
            workers: 1,
            domain_plan: None,
            domain_lookahead: Lookahead::zero(),
            domain_stats: DomainStats::default(),
            min_wire: PARALLEL_MIN_WIRE,
            window_span_us: parallel::WINDOW_SPAN_INIT_US,
            window_overhead_ns: 0,
            pool_spawns: 0,
            pipeline_depth_max: 0,
            merge_stalls: 0,
        }
    }

    /// Set the worker-thread budget for conservative parallel windows.
    /// `1` (the default) keeps the fully serial loop. Any width produces a
    /// committed trace byte-identical to the serial one; federations with
    /// fault injectors or shared batch schedulers fall back to serial
    /// automatically.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
        self.domain_plan = None;
    }

    /// The configured parallel worker budget.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Counters describing the parallel drive so far.
    pub fn domain_stats(&self) -> &DomainStats {
        &self.domain_stats
    }

    /// Threads spawned by the window driver so far: `domains + 1` (the
    /// merge worker) per drive — a drain or a bounded `advance_to` — that
    /// ran at least one pooled window, never per window. Run-dependent only
    /// in *when* pools were warranted, not in any committed byte.
    pub fn pool_spawns(&self) -> u64 {
        self.pool_spawns
    }

    /// High-water mark of deferred trace-replay batches in flight on the
    /// merge worker while the coordinator kept extracting/committing.
    /// `>= 1` means the pipeline actually overlapped. Wall-dependent.
    pub fn pipeline_depth_max(&self) -> u64 {
        self.pipeline_depth_max
    }

    /// Trace handbacks that found the merge worker still applying a batch
    /// (the coordinator had to stall). Wall-dependent.
    pub fn merge_stalls(&self) -> u64 {
        self.merge_stalls
    }

    /// EWMA of measured per-window coordinator overhead in wall
    /// nanoseconds (extraction + dispatch + state-commit, excluding the
    /// barrier wait). Zero until a pooled window has run. Wall-dependent.
    pub fn window_overhead_ns(&self) -> u64 {
        self.window_overhead_ns
    }

    /// Current value of the adaptive min-work gate: windows with fewer
    /// pending wire events than this advance serially. Starts at 16 and is
    /// re-derived from [`Self::window_overhead_ns`] after every pooled
    /// window. Wall-dependent, but digest-neutral: it only picks *which*
    /// engine advances a window, and both commit identical bytes.
    pub fn parallel_min_wire(&self) -> usize {
        self.min_wire
    }

    /// Number of lookahead domains the current federation partitions into
    /// under the configured worker budget. A zero-lookahead federation (any
    /// endpoint coupled through a shared batch scheduler) degrades to one
    /// domain regardless of the budget.
    pub fn domain_count(&mut self) -> usize {
        self.ensure_domain_plan();
        self.domain_plan.as_ref().map_or(1, |p| p.len().max(1))
    }

    /// Build (or reuse) the lookahead-domain partition: group endpoint slots
    /// by shared site, fold the per-endpoint lookahead, and collapse to one
    /// domain when any link has no delay floor.
    fn ensure_domain_plan(&mut self) {
        if self.domain_plan.is_some() {
            return;
        }
        let mut lookahead: Option<Lookahead> = None;
        for ep in &self.endpoints {
            let la = if ep.shares_scheduler() {
                Lookahead::zero()
            } else {
                Lookahead::wire(ep.wan_latency())
            };
            lookahead = Some(lookahead.map_or(la, |acc| acc.fold(la)));
        }
        let lookahead = lookahead.unwrap_or_else(Lookahead::zero);
        let plan = if lookahead.zero_coupled {
            DomainPlan::partition(&self.ordered_slots, 1, |_| 0)
        } else {
            let endpoints = &self.endpoints;
            DomainPlan::partition(&self.ordered_slots, self.workers, |slot| {
                endpoints[slot].site_key()
            })
        };
        self.domain_lookahead = lookahead;
        self.domain_plan = Some(plan);
    }

    /// Static eligibility for parallel windows: a worker budget, no fault
    /// injector anywhere (consult boundaries move under partitioning), and
    /// at least two domains under positive lookahead.
    fn parallel_static_ok(&mut self) -> bool {
        if self.workers <= 1
            || self.injector.is_some()
            || self.endpoints.iter().any(EndpointRegistration::has_injector)
        {
            return false;
        }
        self.ensure_domain_plan();
        !self.domain_lookahead.zero_coupled
            && self.domain_plan.as_ref().is_some_and(|p| p.len() >= 2)
    }

    /// Dynamic eligibility for one window `[now, t]`: enough committed wire
    /// events to amortize the per-window overhead (an adaptive gate, see
    /// `adapt_window`), and a horizon that actually admits parallel
    /// progress. Pending scheduled submissions are fine *when the folded
    /// lookahead is positive*: each submit's induced delivery then lands
    /// strictly after its arrival instant, so the coordinator pre-routes the
    /// wave at extraction and replays acceptance — ids dense in arrival
    /// order — at the barrier. Under zero `min_inbound` the induced leg
    /// could land at the submit's own instant, which the one-generation
    /// instant walk cannot order, so those windows stay serial.
    fn parallel_window_ok(&self, t: SimTime) -> bool {
        (self.pending_submits == 0 || self.domain_lookahead.min_inbound > SimDuration::ZERO)
            && self.wire.len() >= self.min_wire
            && Window::new(self.now, t).admits_parallelism(self.domain_lookahead)
    }

    /// Run the event loop to quiescence — until neither the wire nor any
    /// endpoint holds a pending event — using pooled, pipelined parallel
    /// windows whenever the federation and remaining work admit them.
    /// Leaves `now` at the last committed instant, and produces a committed
    /// trace byte-identical to the serial step loop's at any worker width.
    pub fn drain_to_quiescence(&mut self) -> SimTime {
        self.run_until(SimTime::FAR_FUTURE);
        self.now
    }

    /// Dispatch every pending instant at or before `t` — through the window
    /// driver when the federation admits parallel windows, through the
    /// serial step loop otherwise — leaving `now` at the last instant
    /// dispatched.
    fn run_until(&mut self, t: SimTime) {
        if self.parallel_static_ok() {
            self.drive_windows(t);
        } else {
            self.advance_serial(t);
        }
    }

    /// Attach a fault injector. The cloud consults it for WAN partitions on
    /// both wire legs; an empty plan leaves every delivery time untouched.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Attach an observability handle. Propagates to every endpoint already
    /// registered and to every endpoint registered afterwards. Recording is
    /// sim-time only and never feeds back into timing, so traces are
    /// unchanged whether the handle is enabled or disabled.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
        for registration in self.endpoints.iter_mut() {
            match registration {
                EndpointRegistration::Single(e) => e.set_obs(self.obs.clone()),
                EndpointRegistration::Multi(m) => m.set_obs(self.obs.clone()),
            }
        }
    }

    /// The cloud's observability handle (disabled unless [`Self::set_obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Harvest hot-loop counters (kept as plain fields while the event loop
    /// runs) plus dispatch-cache effectiveness into the obs registry.
    pub fn harvest_metrics(&self) {
        if !self.obs.is_enabled() {
            return;
        }
        self.obs.set_counter("faas.tasks_submitted", self.tasks_submitted);
        self.obs.set_counter("faas.tasks_completed", self.tasks_completed);
        self.obs.set_counter("sim.events_dispatched", self.events_dispatched);
        let stats = self.cache.stats();
        self.obs.set_counter("sim.cache_refreshes", stats.refreshes);
        self.obs.set_counter("sim.cache_refresh_hot_hits", stats.hot_hits);
        self.obs.set_counter("sim.cache_probes", stats.probes);
        self.obs.set_counter("sim.cache_volatile_probes", stats.volatile_probes);
        if self.workers > 1 {
            self.obs.set_counter("sim.domain_barriers", self.domain_stats.barriers);
            self.obs.set_counter("sim.domain_stalls", self.domain_stats.stalls);
            self.obs
                .set_counter("sim.domain_serial_fallbacks", self.domain_stats.serial_fallbacks);
        }
    }

    /// Earliest instant a message can cross the WAN towards/from `endpoint`:
    /// `now` normally, or the partition's heal time while one is active.
    fn wire_clear_at(&self, endpoint: &str, now: SimTime) -> SimTime {
        match &self.injector {
            Some(inj) => inj.partition_until(endpoint, now).unwrap_or(now).max(now),
            None => now,
        }
    }

    pub fn auth(&self) -> &Arc<Mutex<AuthService>> {
        &self.auth
    }

    /// Register an endpoint under a name.
    pub fn register_endpoint(&mut self, id: &str, mut registration: EndpointRegistration) -> EndpointId {
        let eid = EndpointId(id.to_string());
        if self.obs.is_enabled() {
            match &mut registration {
                EndpointRegistration::Single(e) => e.set_obs(self.obs.clone()),
                EndpointRegistration::Multi(m) => m.set_obs(self.obs.clone()),
            }
        }
        let volatile = registration.shares_scheduler();
        let slot = match self.slots.get(&eid) {
            Some(&slot) => slot,
            None => {
                let slot = self.cache.register();
                self.slot_syms.push(self.trace.intern(&format!("faas.ep.{id}")));
                self.slot_name_syms.push(self.trace.intern(id));
                self.slots.insert(eid.clone(), slot);
                // A new name shifts ranks: rebuild the name-order walk list
                // (registration is rare; the hot loop only reads these).
                self.ordered_slots = self.slots.values().copied().collect();
                self.slot_rank = vec![0; self.ordered_slots.len()];
                for (rank, &s) in self.ordered_slots.iter().enumerate() {
                    self.slot_rank[s] = rank;
                }
                slot
            }
        };
        self.cache.set_volatile(slot, volatile);
        self.cache.mark_dirty(slot);
        if slot == self.endpoints.len() {
            self.endpoints.push(registration);
        } else {
            self.endpoints[slot] = registration;
        }
        // A new/replaced endpoint changes the affinity layout.
        self.domain_plan = None;
        eid
    }

    pub fn endpoint_mut(&mut self, id: &EndpointId) -> Result<&mut EndpointRegistration, FaasError> {
        let Some(&slot) = self.slots.get(id) else {
            return Err(FaasError::UnknownEndpoint(id.0.clone()));
        };
        // The borrow may change anything about the endpoint — including
        // attaching a fault injector — so invalidate its cached time and
        // consult deadline, and queue it for output collection.
        self.cache.mark_dirty(slot);
        self.touched.push(slot);
        self.domain_plan = None;
        Ok(&mut self.endpoints[slot])
    }

    /// Register a function owned by the token's identity.
    pub fn register_function(
        &mut self,
        token: &hpcci_auth::AccessToken,
        name: &str,
        body: FunctionBody,
        now: SimTime,
    ) -> Result<FunctionId, FaasError> {
        let info = self
            .auth
            .lock()
            .require_scope(token, &Scope::compute_api(), now)?;
        self.next_function += 1;
        let id = FunctionId(self.next_function);
        self.functions.insert(
            id,
            Function {
                id,
                name: name.to_string(),
                owner: info.identity,
                body,
            },
        );
        self.trace
            .record(now, "faas.cloud", "function.register", format!("{id} {name}"));
        Ok(id)
    }

    pub fn function(&self, id: FunctionId) -> Result<&Function, FaasError> {
        self.functions.get(&id).ok_or(FaasError::UnknownFunction(id))
    }

    /// Submit an ad-hoc shell command (the action's `shell_cmd` input).
    pub fn submit_shell(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        shell_cmd: &str,
        now: SimTime,
    ) -> Result<TaskId, FaasError> {
        let (identity, slot) = self.validate_shell(token, endpoint, shell_cmd, now)?;
        let command = self.trace.intern(shell_cmd);
        Ok(self.accept(&Arc::new(identity), slot, command, now))
    }

    /// Schedule a shell submission for a future arrival instant. Validation
    /// (auth, endpoint, payload, ownership) happens now, at `now`; acceptance
    /// — task id, `task.submit` record, delivery leg — happens when the event
    /// loop reaches `submit_at`, so ids and the trace stay in arrival order.
    /// The workhorse behind [`Self::submit_shell_batch`]; prefer the batch
    /// form when injecting many arrivals for one identity.
    pub fn submit_shell_at(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        shell_cmd: &str,
        now: SimTime,
        submit_at: SimTime,
    ) -> Result<(), FaasError> {
        let (identity, slot) = self.validate_shell(token, endpoint, shell_cmd, now)?;
        let command = self.trace.intern(shell_cmd);
        self.push_submit(Arc::new(identity), slot, command, now, submit_at);
        Ok(())
    }

    /// Batched arrival injection: validate once, then schedule one submission
    /// of `shell_cmd` per instant in `arrivals`. This is the workload
    /// engine's path into the cloud — a wave of tens of thousands of arrivals
    /// costs one auth check and one wheel push per arrival, not a full
    /// validation stack each. Returns the number of submissions scheduled.
    pub fn submit_shell_batch(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        shell_cmd: &str,
        now: SimTime,
        arrivals: &[SimTime],
    ) -> Result<u64, FaasError> {
        let (identity, slot) = self.validate_shell(token, endpoint, shell_cmd, now)?;
        let identity = Arc::new(identity);
        let command = self.trace.intern(shell_cmd);
        for &at in arrivals {
            self.push_submit(identity.clone(), slot, command.clone(), now, at);
        }
        Ok(arrivals.len() as u64)
    }

    /// The validation stack of [`Self::submit_shell`], factored out so the
    /// scheduled-submission paths run exactly the same checks.
    fn validate_shell(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        shell_cmd: &str,
        now: SimTime,
    ) -> Result<(Identity, usize), FaasError> {
        let identity = self.authenticate(token, now)?;
        let slot = *self
            .slots
            .get(endpoint)
            .ok_or_else(|| FaasError::UnknownEndpoint(endpoint.0.clone()))?;
        let ep = &self.endpoints[slot];
        if !ep.shell_allowed() {
            return Err(FaasError::ShellNotAllowed);
        }
        self.check_payload(shell_cmd.len())?;
        self.check_owner(ep, &identity)?;
        Ok((identity, slot))
    }

    fn push_submit(
        &mut self,
        identity: Arc<Identity>,
        slot: usize,
        command: Sym,
        now: SimTime,
        submit_at: SimTime,
    ) {
        self.pending_submits += 1;
        self.wire.push(
            submit_at.max(now),
            InFlight::Submit {
                identity,
                slot,
                command,
            },
        );
    }

    /// Scheduled submissions not yet accepted by the event loop.
    pub fn pending_submits(&self) -> u64 {
        self.pending_submits
    }

    /// Submit a pre-registered function (the action's `function_uuid` input).
    pub fn submit_function(
        &mut self,
        token: &hpcci_auth::AccessToken,
        endpoint: &EndpointId,
        function: FunctionId,
        args: &str,
        now: SimTime,
    ) -> Result<TaskId, FaasError> {
        let identity = self.authenticate(token, now)?;
        let f = self.function(function)?.clone();
        let slot = *self
            .slots
            .get(endpoint)
            .ok_or_else(|| FaasError::UnknownEndpoint(endpoint.0.clone()))?;
        let ep = &self.endpoints[slot];
        if !ep.function_allowed(function) {
            return Err(FaasError::FunctionNotAllowed(function));
        }
        self.check_payload(args.len())?;
        self.check_owner(ep, &identity)?;
        let command = self.trace.intern(&f.command_line(args));
        Ok(self.accept(&Arc::new(identity), slot, command, now))
    }

    fn authenticate(
        &mut self,
        token: &hpcci_auth::AccessToken,
        now: SimTime,
    ) -> Result<Identity, FaasError> {
        let auth = self.auth.lock();
        let info = auth.require_scope(token, &Scope::compute_api(), now)?;
        Ok(auth.identity(info.identity)?.clone())
    }

    fn check_payload(&self, bytes: usize) -> Result<(), FaasError> {
        if bytes > PAYLOAD_LIMIT {
            return Err(FaasError::PayloadTooLarge {
                bytes,
                limit: PAYLOAD_LIMIT,
            });
        }
        Ok(())
    }

    fn check_owner(&self, ep: &EndpointRegistration, identity: &Identity) -> Result<(), FaasError> {
        if let EndpointRegistration::Single(e) = ep {
            if e.config.owner != identity.id {
                return Err(FaasError::NotEndpointOwner);
            }
            e.config.ha_policy.check(identity, self.now)?;
        }
        Ok(())
    }

    fn accept(
        &mut self,
        identity: &Arc<Identity>,
        slot: usize,
        command: Sym,
        now: SimTime,
    ) -> TaskId {
        self.next_task += 1;
        self.tasks_submitted += 1;
        let id = TaskId(self.next_task);
        debug_assert_eq!(id.0 as usize, self.tasks.len() + 1, "ids are dense");
        let endpoint_name = self.slot_name_syms[slot].clone();
        self.tasks.push(Task {
            id,
            submitter: identity.id,
            endpoint: endpoint_name,
            command: command.clone(),
            submitted_at: now,
            state: TaskState::Submitted { at: now },
        });
        let latency = self.endpoints[slot].wan_latency();
        let endpoint_name = &self.slot_name_syms[slot];
        // `{id} -> {endpoint}: {command}`, hand-built: byte-identical to the
        // `format!` it replaces, without per-field formatter dispatch. The
        // buffer is recycled from a folded-out event when one is available.
        let mut detail = self.trace.detail_buf();
        detail.reserve(27 + endpoint_name.len() + command.len());
        id.write_label(&mut detail);
        detail.push_str(" -> ");
        detail.push_str(endpoint_name);
        detail.push_str(": ");
        detail.push_str(&command);
        self.trace.record(now, "faas.cloud", "task.submit", detail);
        let clear = self.wire_clear_at(self.slot_name_syms[slot].as_str(), now);
        self.wire.push(
            clear + latency,
            InFlight::Deliver {
                task: id,
                identity: identity.clone(),
                slot,
            },
        );
        id
    }

    /// The task record for `id`, if it was ever accepted.
    fn task(&self, id: TaskId) -> Option<&Task> {
        // Ids are dense from 1; `TaskId(0)` wraps to an out-of-range index.
        self.tasks.get((id.0 as usize).wrapping_sub(1))
    }

    /// Current state of a task.
    pub fn task_state(&self, id: TaskId) -> Result<&TaskState, FaasError> {
        Ok(&self.task(id).ok_or(FaasError::UnknownTask(id))?.state)
    }

    /// The result of a finished task.
    pub fn task_result(&self, id: TaskId) -> Result<&TaskOutput, FaasError> {
        match self.task_state(id)? {
            TaskState::Done(out) => Ok(out),
            TaskState::Rejected { reason, .. } => Err(FaasError::Auth(
                hpcci_auth::AuthError::PolicyViolation(reason.clone()),
            )),
            _ => Err(FaasError::NotFinished(id)),
        }
    }

    /// Is the task terminal?
    pub fn task_finished(&self, id: TaskId) -> Result<bool, FaasError> {
        Ok(self.task_state(id)?.is_terminal())
    }

    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Events dispatched by this cloud's event loop so far (also exported as
    /// the `sim.events_dispatched` counter when observability is on).
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Collect finished outputs from endpoints touched since the last
    /// collection onto the return wire, in endpoint-name order (FIFO within
    /// an endpoint). An endpoint's `finished` buffer can only be non-empty if
    /// the cloud advanced it, enqueued into it, or lent it out through
    /// [`Self::endpoint_mut`] — each of which marks it touched — so skipping
    /// untouched endpoints observes exactly what a scan of every endpoint
    /// would.
    fn collect_touched_returns(&mut self, now: SimTime) {
        if self.touched.is_empty() {
            return;
        }
        {
            let rank = &self.slot_rank;
            self.touched.sort_unstable_by_key(|&s| rank[s]);
        }
        self.touched.dedup();
        // Per-endpoint drain through a reused scratch vector: no per-step
        // vector allocations in steady state.
        let mut finished = std::mem::take(&mut self.finished_scratch);
        for i in 0..self.touched.len() {
            let slot = self.touched[i];
            let ep = &mut self.endpoints[slot];
            ep.drain_finished_into(&mut finished);
            if finished.is_empty() {
                continue;
            }
            let latency = ep.wan_latency();
            for (task, output) in finished.drain(..) {
                let mut d = self.trace.detail_buf();
                task.write_label(&mut d);
                d.push_str(" from endpoint");
                self.trace.record(now, "faas.cloud", "task.returning", d);
                let clear = self.wire_clear_at(self.slot_name_syms[slot].as_str(), now);
                self.wire
                    .push(clear + latency, InFlight::Return { task, output });
            }
        }
        self.touched.clear();
        self.finished_scratch = finished;
    }

    /// Handle one due wire event (shared by the serial step loop; the window
    /// driver replays the same effects in `parallel::commit_window`).
    fn handle_wire_event(&mut self, at: SimTime, event: InFlight) {
        match event {
            InFlight::Submit { identity, slot, command } => {
                // Acceptance pushes the delivery leg at `at + wan_latency`;
                // with a zero-latency endpoint that lands at this same
                // instant and the drive loop picks it up on its next pass
                // through the same step, before any later-time event.
                self.pending_submits -= 1;
                self.accept(&identity, slot, command, at);
            }
            InFlight::Deliver { task, identity, slot } => {
                // The slot rode along from acceptance (registrations are
                // never removed), so delivery needs no name lookup; the
                // command is shared with the task record.
                let component = self.slot_syms[slot].clone();
                let command = self.tasks[task.0 as usize - 1].command.clone();
                let mut detail = self.trace.detail_buf();
                task.write_label(&mut detail);
                self.trace
                    .record(at, component.clone(), "task.deliver", detail);
                let result = match &mut self.endpoints[slot] {
                    EndpointRegistration::Single(e) => e.enqueue(task, &command, at),
                    EndpointRegistration::Multi(m) => m.enqueue(task, &identity, &command, at),
                };
                self.cache.mark_dirty(slot);
                self.touched.push(slot);
                let record = &mut self.tasks[task.0 as usize - 1];
                let transition = match result {
                    Ok(()) => record.transition(TaskState::QueuedAtEndpoint { at }),
                    Err(e) => {
                        self.trace
                            .record(at, component, "task.reject", format!("{task}: {e}"));
                        record.transition(TaskState::Rejected {
                            at,
                            reason: e.to_string(),
                        })
                    }
                };
                if let Err(e) = transition {
                    self.trace
                        .record(at, "faas.cloud", "task.transition-blocked", e.to_string());
                }
            }
            InFlight::Return { task, output } => {
                // `{task} ran_as={} node={} ok={}`, hand-built (see
                // `TaskId::write_label`); byte-identical to the `format!`.
                let mut detail = self.trace.detail_buf();
                detail.reserve(42 + output.ran_as.len() + output.node.len());
                task.write_label(&mut detail);
                detail.push_str(" ran_as=");
                detail.push_str(&output.ran_as);
                detail.push_str(" node=");
                detail.push_str(&output.node);
                detail.push_str(if output.success() { " ok=true" } else { " ok=false" });
                let record = &mut self.tasks[task.0 as usize - 1];
                let submitted_at = record.submitted_at;
                match record.transition(TaskState::Done(output)) {
                    Ok(()) => {
                        self.tasks_completed += 1;
                        self.obs
                            .observe("faas.task_latency_us", at.since(submitted_at).as_micros());
                        self.trace.record(at, "faas.cloud", "task.done", detail)
                    }
                    Err(e) => self.trace.record(
                        at,
                        "faas.cloud",
                        "task.transition-blocked",
                        e.to_string(),
                    ),
                }
            }
        }
    }

    /// The earliest pending instant: the wire's head or the earliest
    /// endpoint event, which the dispatch cache answers after re-probing
    /// only dirty (and volatile) slots. Consult deadlines ride along in the
    /// same probe but never make an instant of their own.
    fn next_step(&mut self) -> Option<SimTime> {
        let endpoints = &self.endpoints;
        self.cache.refresh_with(
            |slot| endpoints[slot].next_event(),
            |slot| endpoints[slot].consult_deadline(),
        );
        match (self.wire.next_time(), self.cache.min()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The serial step loop: dispatch every pending instant at or before
    /// `t` in time order, leaving `now` at the last one dispatched.
    fn advance_serial(&mut self, t: SimTime) {
        while let Some(step) = self.next_step().filter(|&s| s <= t) {
            self.dispatch_step(step);
        }
    }

    /// One pass over instant `step`: advance the due endpoints in
    /// endpoint-name order, collect their finished outputs onto the return
    /// wire, then handle the wire events due at `step`.
    ///
    /// An endpoint is due when its next event or its consult deadline is at
    /// or before `step`: an injected fault fires at the first step at or
    /// after its scheduled time, on the endpoint whose advance consults it,
    /// whether or not that endpoint had an event of its own there. A fault
    /// that frees a shared scheduler's node wakes later-named tenants within
    /// the pass ([`NextEventCache::join_pass`]).
    fn dispatch_step(&mut self, step: SimTime) {
        self.now = step;
        self.due_scratch.clear();
        self.due_scratch.extend(self.cache.due(step));
        let rank = &self.slot_rank;
        self.due_scratch.sort_unstable_by_key(|&s| rank[s]);
        let mut i = 0;
        while i < self.due_scratch.len() {
            let slot = self.due_scratch[i];
            let consulted = self.cache.deadline(slot).is_some_and(|at| at <= step);
            self.endpoints[slot].advance_to(step);
            self.cache.mark_dirty(slot);
            self.touched.push(slot);
            if consulted {
                let endpoints = &self.endpoints;
                self.cache.join_pass(
                    &mut self.due_scratch,
                    i,
                    |s| rank[s],
                    |s| endpoints[s].due_at(step),
                );
            }
            i += 1;
        }
        self.events_dispatched += self.due_scratch.len() as u64;
        self.collect_touched_returns(step);
        // Bulk drain: an event a handler pushes at `step` itself waits for
        // the loop's next pass over the same instant.
        let mut wire_scratch = std::mem::take(&mut self.wire_scratch);
        wire_scratch.clear();
        self.wire.drain_due_into(step, &mut wire_scratch);
        self.events_dispatched += wire_scratch.len() as u64;
        for (at, event) in wire_scratch.drain(..) {
            self.handle_wire_event(at, event);
        }
        self.wire_scratch = wire_scratch;
    }
}

impl Advance for CloudService {
    fn next_event(&self) -> Option<SimTime> {
        if self.cache.any_dirty() {
            // Exhaustive probe: the cache has pending invalidations only an
            // `&mut` advance may flush.
            let mut next = self.wire.next_time();
            for ep in self.endpoints.iter() {
                if let Some(t) = ep.next_event() {
                    next = Some(next.map_or(t, |x| x.min(t)));
                }
            }
            return next;
        }
        // Indexed probe: O(endpoints) scan of cached times plus fresh probes
        // of the (few) volatile pilot-job endpoints — no deep walks into
        // quiescent endpoints' queues, sites, or providers.
        let mut next = self.wire.next_time();
        if let Some(t) = self.cache.min_stable() {
            next = Some(next.map_or(t, |x| x.min(t)));
        }
        for &slot in self.cache.volatile_slots() {
            if let Some(t) = self.endpoints[slot].next_event() {
                next = Some(next.map_or(t, |x| x.min(t)));
            }
        }
        next
    }

    /// One instant of the serial step loop through a `&mut` entry point:
    /// refresh the dispatch cache once and reuse it for both the probe and
    /// the advance.
    ///
    /// The read-only [`Advance::next_event`] cannot flush pending dirty bits,
    /// so after any advance it must fall back to the exhaustive deep scan of
    /// every endpoint. Driving via `step_next` instead makes the steady-state
    /// cost per step `O(due endpoints)` probes, not `O(all endpoints)` walks.
    /// One instant never opens a parallel window, so this is always serial.
    fn step_next(&mut self, deadline: SimTime) -> Option<SimTime> {
        let step = self.next_step().filter(|&s| s <= deadline)?;
        self.advance_serial(step);
        Some(step)
    }

    fn advance_to(&mut self, t: SimTime) {
        self.run_until(t);
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{EndpointConfig, WorkerProvider};
    use crate::exec::{shared, ExecOutcome, SiteRuntime};
    use hpcci_auth::{ClientSecret, IdentityId};
    use hpcci_cluster::Site;
    use hpcci_scheduler::LocalProvider;
    use hpcci_sim::drive;

    struct Setup {
        cloud: CloudService,
        token: hpcci_auth::AccessToken,
        owner: IdentityId,
        endpoint: EndpointId,
    }

    fn setup(restrict: Option<Vec<FunctionId>>) -> Setup {
        let auth = Arc::new(Mutex::new(AuthService::new()));
        let (owner, token) = {
            let mut a = auth.lock();
            let identity = a.register_identity("vhayot@uchicago.edu", "uchicago.edu", SimTime::ZERO);
            let (cid, secret) = a.create_client(identity.id, "correct").unwrap();
            let token = a
                .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
                .unwrap();
            (identity.id, token)
        };
        let mut rt = SiteRuntime::new(Site::workstation("lab"));
        rt.site.add_account("vhayot", "proj");
        rt.commands.register("tox", |_| ExecOutcome::ok("py312: commands succeeded", 8.0));
        rt.commands.register("fail", |_| ExecOutcome::fail("tests failed", 1.0));
        let site = shared(rt);
        let login = site.lock().site.login_node().unwrap().id;
        let mut config = EndpointConfig::new("ep-lab", owner, "vhayot");
        if let Some(fns) = restrict {
            config = config.with_allowlist(&fns);
        }
        let ep = Endpoint::new(
            config,
            site,
            WorkerProvider::Local(LocalProvider::new(login, 8)),
            9,
        );
        let mut cloud = CloudService::new(auth);
        let endpoint = cloud.register_endpoint("ep-lab", EndpointRegistration::Single(Box::new(ep)));
        Setup {
            cloud,
            token,
            owner,
            endpoint,
        }
    }

    #[test]
    fn end_to_end_shell_task() {
        let mut s = setup(None);
        let task = s
            .cloud
            .submit_shell(&s.token, &s.endpoint, "tox", SimTime::ZERO)
            .unwrap();
        assert!(!s.cloud.task_finished(task).unwrap());
        drive(&mut [&mut s.cloud]);
        assert!(s.cloud.task_finished(task).unwrap());
        let out = s.cloud.task_result(task).unwrap();
        assert!(out.success());
        assert!(out.stdout.contains("commands succeeded"));
        assert_eq!(out.ran_as, "vhayot");
        // Trace captured the full lifecycle.
        assert_eq!(s.cloud.trace.of_kind("task.submit").count(), 1);
        assert_eq!(s.cloud.trace.of_kind("task.done").count(), 1);
    }

    #[test]
    fn scheduled_batch_matches_interactive_submission() {
        use hpcci_sim::Advance as _;
        let arrivals: Vec<SimTime> =
            [3u64, 3, 7, 20, 41].iter().map(|&s| SimTime::from_secs(s)).collect();
        // Interactive reference: advance to each instant and submit there.
        let mut a = setup(None);
        for &at in &arrivals {
            a.cloud.advance_to(at);
            a.cloud.submit_shell(&a.token, &a.endpoint, "tox", at).unwrap();
        }
        a.cloud.drain_to_quiescence();
        // Scheduled: validate once, push every arrival up front.
        let mut b = setup(None);
        let n = b
            .cloud
            .submit_shell_batch(&b.token, &b.endpoint, "tox", SimTime::ZERO, &arrivals)
            .unwrap();
        assert_eq!(n, arrivals.len() as u64);
        assert_eq!(b.cloud.pending_submits(), n);
        assert_eq!(b.cloud.task_count(), 0, "acceptance is deferred to arrival");
        b.cloud.drain_to_quiescence();
        assert_eq!(b.cloud.pending_submits(), 0);
        assert_eq!(b.cloud.task_count(), arrivals.len());
        for id in 1..=arrivals.len() as u64 {
            assert!(b.cloud.task_finished(TaskId(id)).unwrap());
        }
        assert_eq!(
            a.cloud.trace.rolling_digest(),
            b.cloud.trace.rolling_digest(),
            "scheduled arrivals replay the interactive trace byte-for-byte"
        );
    }

    #[test]
    fn scheduled_submission_validates_up_front() {
        let mut s = setup(Some(vec![FunctionId(1)]));
        // Shell is disallowed on this endpoint: the error surfaces at
        // scheduling time, not when the arrival instant is reached.
        assert!(matches!(
            s.cloud.submit_shell_at(
                &s.token,
                &s.endpoint,
                "tox",
                SimTime::ZERO,
                SimTime::from_secs(5)
            ),
            Err(FaasError::ShellNotAllowed)
        ));
        assert_eq!(s.cloud.pending_submits(), 0);
    }

    #[test]
    fn failing_task_returns_exception() {
        let mut s = setup(None);
        let task = s
            .cloud
            .submit_shell(&s.token, &s.endpoint, "fail", SimTime::ZERO)
            .unwrap();
        drive(&mut [&mut s.cloud]);
        let out = s.cloud.task_result(task).unwrap();
        assert!(!out.success());
        assert_eq!(out.stderr, "tests failed");
    }

    #[test]
    fn bad_token_rejected() {
        let mut s = setup(None);
        // A token from an unknown client is invalid.
        let bogus = {
            let mut a = s.cloud.auth().lock();
            let other = a.register_identity("other@x.y", "x.y", SimTime::ZERO);
            let (cid, sec) = a.create_client(other.id, "c").unwrap();
            // Authenticate then revoke, producing an invalid token.
            let t = a.authenticate(&cid, &sec, vec![Scope::compute_api()], SimTime::ZERO).unwrap();
            a.revoke(&t).unwrap();
            t
        };
        assert!(matches!(
            s.cloud.submit_shell(&bogus, &s.endpoint, "tox", SimTime::ZERO),
            Err(FaasError::Auth(_))
        ));
        let _ = ClientSecret::new("x");
    }

    #[test]
    fn non_owner_cannot_use_single_user_endpoint() {
        let mut s = setup(None);
        let foreign_token = {
            let mut a = s.cloud.auth().lock();
            let mallory = a.register_identity("mallory@uchicago.edu", "uchicago.edu", SimTime::ZERO);
            let (cid, sec) = a.create_client(mallory.id, "m").unwrap();
            a.authenticate(&cid, &sec, vec![Scope::compute_api()], SimTime::ZERO).unwrap()
        };
        assert!(matches!(
            s.cloud.submit_shell(&foreign_token, &s.endpoint, "tox", SimTime::ZERO),
            Err(FaasError::NotEndpointOwner)
        ));
    }

    #[test]
    fn function_registration_and_submission() {
        let mut s = setup(None);
        let f = s
            .cloud
            .register_function(
                &s.token,
                "run-tox",
                FunctionBody::Shell { command: "tox {args}".into() },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(s.cloud.function(f).unwrap().owner, s.owner);
        let task = s
            .cloud
            .submit_function(&s.token, &s.endpoint, f, "-e py312", SimTime::ZERO)
            .unwrap();
        drive(&mut [&mut s.cloud]);
        assert!(s.cloud.task_result(task).unwrap().success());
        assert!(s.cloud.task(task).unwrap().command.contains("-e py312"));
    }

    #[test]
    fn allowlist_blocks_shell_and_foreign_functions() {
        // Endpoint restricted to function id 1 (registered below).
        let mut s = setup(Some(vec![FunctionId(1)]));
        assert!(matches!(
            s.cloud.submit_shell(&s.token, &s.endpoint, "tox", SimTime::ZERO),
            Err(FaasError::ShellNotAllowed)
        ));
        let allowed = s
            .cloud
            .register_function(&s.token, "ok", FunctionBody::Shell { command: "tox".into() }, SimTime::ZERO)
            .unwrap();
        assert_eq!(allowed, FunctionId(1));
        let denied = s
            .cloud
            .register_function(&s.token, "no", FunctionBody::Shell { command: "tox".into() }, SimTime::ZERO)
            .unwrap();
        assert!(s
            .cloud
            .submit_function(&s.token, &s.endpoint, allowed, "", SimTime::ZERO)
            .is_ok());
        assert!(matches!(
            s.cloud.submit_function(&s.token, &s.endpoint, denied, "", SimTime::ZERO),
            Err(FaasError::FunctionNotAllowed(_))
        ));
    }

    #[test]
    fn payload_limit_enforced() {
        let mut s = setup(None);
        let huge = "x".repeat(PAYLOAD_LIMIT + 1);
        assert!(matches!(
            s.cloud.submit_shell(&s.token, &s.endpoint, &huge, SimTime::ZERO),
            Err(FaasError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_endpoint_and_task() {
        let mut s = setup(None);
        assert!(matches!(
            s.cloud
                .submit_shell(&s.token, &EndpointId("ghost".into()), "tox", SimTime::ZERO),
            Err(FaasError::UnknownEndpoint(_))
        ));
        assert!(matches!(
            s.cloud.task_state(TaskId(999)),
            Err(FaasError::UnknownTask(_))
        ));
    }

    #[test]
    fn wan_latency_delays_delivery_and_return() {
        let mut s = setup(None);
        let task = s
            .cloud
            .submit_shell(&s.token, &s.endpoint, "tox", SimTime::ZERO)
            .unwrap();
        let end = drive(&mut [&mut s.cloud]);
        let out = s.cloud.task_result(task).unwrap();
        // Task observed start >= one-way latency; completion at cloud is
        // after the endpoint-side end.
        assert!(out.started.as_micros() > 0);
        assert!(end > out.ended, "return leg adds latency");
    }
}
