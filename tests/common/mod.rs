//! Worlds shared by more than one integration suite.

// Each suite compiles its own copy and uses a subset.
#![allow(dead_code)]

use hpcci::auth::{AuthService, Scope};
use hpcci::cluster::{NodeId, Site};
use hpcci::faas::exec::shared;
use hpcci::faas::{
    CloudService, Endpoint, EndpointConfig, EndpointRegistration, ExecOutcome, SiteRuntime,
    WorkerProvider,
};
use hpcci::scheduler::{BatchScheduler, SlurmProvider};
use hpcci::sim::{DetRng, FaultInjector, FaultPlan, SimDuration, SimTime};
use parking_lot::Mutex;
use std::sync::Arc;

/// A SLURM site preset: scheduler label (the name node-drain faults
/// target) and constructor.
type SitePreset = (&'static str, fn() -> Site);

/// Sites of the contention topology.
const CONTENTION_SITES: [SitePreset; 3] = [
    ("faster", Site::tamu_faster),
    ("expanse", Site::sdsc_expanse),
    ("anvil", Site::purdue_anvil),
];
const TENANTS_PER_SITE: usize = 4;
/// Mean gap between task arrivals across the whole federation.
const MEAN_GAP_US: u64 = 2_000_000;

/// Fault-plan targets of the contention topology: every scheduler label and
/// every endpoint name (`{label}-ep{n}`).
pub fn contention_targets() -> Vec<String> {
    let mut targets = Vec::new();
    for (label, _) in CONTENTION_SITES {
        targets.push(label.to_string());
        for e in 0..TENANTS_PER_SITE {
            targets.push(format!("{label}-ep{e}"));
        }
    }
    targets
}

/// Virtual span of a contention day of `tasks` arrivals.
pub fn contention_horizon(tasks: u64) -> SimDuration {
    SimDuration::from_micros(tasks * MEAN_GAP_US)
}

/// The `hpc_day` shape at the FaaS layer: three SLURM sites, each with one
/// single-node `BatchScheduler` shared by four pilot-job endpoints, so a
/// site runs one pilot at a time and the other tenants' pilots queue behind
/// it; a 10-minute walltime makes pilots churn. `tasks` seeded arrivals are
/// spread over the twelve endpoints and drained to quiescence. With a plan,
/// one injector is wired into the cloud, every endpoint and every
/// scheduler; without one, nothing has an injector.
pub fn contention_day(
    seed: u64,
    tasks: u64,
    plan: Option<FaultPlan>,
) -> (CloudService, Option<FaultInjector>) {
    let auth = Arc::new(Mutex::new(AuthService::new()));
    let (token, owner) = {
        let mut a = auth.lock();
        let identity = a.register_identity("tenant@hpcci.sim", "hpcci.sim", SimTime::ZERO);
        let (cid, secret) = a.create_client(identity.id, "contention").unwrap();
        let token = a
            .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
            .unwrap();
        (token, identity.id)
    };
    let injector = plan.map(FaultInjector::new);
    let mut cloud = CloudService::new(auth);
    let mut endpoints = Vec::new();
    for (s, (label, preset)) in CONTENTION_SITES.iter().enumerate() {
        let mut rt = SiteRuntime::new(preset());
        let node: Vec<NodeId> = rt.site.compute_nodes().take(1).map(|n| n.id).collect();
        let cores = rt.site.compute_nodes().next().unwrap().cores;
        let sched = Arc::new(Mutex::new(BatchScheduler::with_compute_partition(
            node, cores,
        )));
        if let Some(inj) = &injector {
            sched.lock().set_fault_injector(inj.clone(), label);
        }
        rt.scheduler = Some(sched.clone());
        rt.commands
            .register("work", |_| ExecOutcome::ok("done", 5.0));
        let accounts: Vec<_> = (0..TENANTS_PER_SITE)
            .map(|e| rt.site.add_account(&format!("x-{label}-{e}"), "CIS230030"))
            .collect();
        let site = shared(rt);
        for (e, account) in accounts.into_iter().enumerate() {
            let name = format!("{label}-ep{e}");
            let mut ep = Endpoint::new(
                EndpointConfig::new(&name, owner, &account.username).with_workers(4),
                site.clone(),
                WorkerProvider::Slurm(SlurmProvider::new(
                    sched.clone(),
                    account.uid,
                    &account.allocation,
                    cores,
                    SimDuration::from_mins(10),
                )),
                seed.wrapping_add((s * TENANTS_PER_SITE + e) as u64),
            );
            if let Some(inj) = &injector {
                ep.set_fault_injector(inj.clone());
            }
            endpoints
                .push(cloud.register_endpoint(&name, EndpointRegistration::Single(Box::new(ep))));
        }
    }
    if let Some(inj) = &injector {
        cloud.set_fault_injector(inj.clone());
    }
    let mut rng = DetRng::seed_from_u64(seed).fork("contention-arrivals");
    let mut arrivals = vec![Vec::new(); endpoints.len()];
    let mut at = SimTime::ZERO;
    for _ in 0..tasks {
        at += SimDuration::from_micros(rng.range_u64(1, 2 * MEAN_GAP_US));
        arrivals[rng.range_u64(0, endpoints.len() as u64) as usize].push(at);
    }
    for (ep, times) in endpoints.iter().zip(&arrivals) {
        cloud
            .submit_shell_batch(&token, ep, "work", SimTime::ZERO, times)
            .unwrap();
    }
    cloud.drain_to_quiescence();
    (cloud, injector)
}
