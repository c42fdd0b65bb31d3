//! Cross-crate observability integration: one instrumented kernel run
//! must light up every layer's metrics — lin-cache hits in the channel,
//! BVH culling in geometry, the span tree threading `kernel.step` down
//! into `channel.linearize` — and the snapshot must survive a JSON
//! round-trip and be deterministic across identical runs.
//!
//! The obs registry is process-global, so every test takes `OBS_LOCK` and
//! resets the registry before driving its own workload.

use std::sync::Mutex;
use surfos::channel::{ChannelSim, Endpoint};
use surfos::em::band::NamedBand;
use surfos::geometry::scenario::two_room_apartment;
use surfos::geometry::{Pose, Vec3};
use surfos::hw::designs;
use surfos::hw::driver::ProgrammableDriver;
use surfos::obs;
use surfos::orchestrator::ServiceRequest;
use surfos::{SurfOS, Telemetry};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Boots the apartment, runs `steps` heartbeats with a coverage and a
/// link task, and returns the kernel.
fn run_workload(steps: usize) -> SurfOS {
    let scen = two_room_apartment();
    let sim = ChannelSim::new(scen.plan.clone(), NamedBand::MmWave28GHz.band());
    let mut os = SurfOS::new(sim);
    let mut spec = designs::scatter_mimo();
    spec.band = NamedBand::MmWave28GHz.band();
    spec.rows = 16;
    spec.cols = 16;
    spec.pitch_m = 0.0053;
    let pose = *scen.anchor("bedroom-north").unwrap();
    os.deploy_surface("wall0", Box::new(ProgrammableDriver::new(spec)), pose);
    os.add_endpoint(Endpoint::access_point(
        "ap0",
        Pose::wall_mounted(scen.ap_pose.position, pose.position - scen.ap_pose.position),
    ));
    os.add_endpoint(Endpoint::client("laptop", Vec3::new(6.5, 1.5, 1.2)));
    os.orchestrator_mut().adam_options.iters = 25;
    os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));
    os.submit(ServiceRequest::enhance_link("laptop", 20.0, 50.0));
    for _ in 0..steps {
        os.step(10);
    }
    os
}

#[test]
fn kernel_run_lights_up_every_layer() {
    let _guard = exclusive();
    obs::reset();
    obs::set_enabled(true);
    let os = run_workload(3);
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);

    // Channel layer: steady-state kernel ticks re-query the same link, so
    // the linearization cache must be earning hits.
    assert!(
        counter("channel.lincache.hits") > 0,
        "no lin-cache hits: {:?}",
        snap.counters
    );
    assert!(counter("channel.traces") > 0);

    // Geometry layer: the BVH must visit fewer nodes than a brute-force
    // wall scan would have touched across the same queries.
    let visited = counter("geometry.bvh.nodes_visited");
    let brute = counter("geometry.bvh.brute_walls");
    assert!(brute > 0, "no BVH queries recorded");
    assert!(
        visited < brute,
        "BVH culled nothing: visited {visited} of {brute} brute walls"
    );

    // Orchestrator + kernel layers.
    assert_eq!(counter("kernel.steps"), 3);
    assert!(counter("orchestrator.adam.iters") > 0);
    assert!(snap.gauges.contains_key("orchestrator.adam.loss"));

    // The span tree threads the kernel heartbeat down into the channel:
    // some recorded path starts at kernel.step and bottoms out in
    // channel.linearize.
    assert!(
        snap.spans
            .keys()
            .any(|p| p.starts_with("kernel.step/") && p.ends_with("/channel.linearize")),
        "no kernel.step → channel.linearize span path: {:?}",
        snap.spans.keys().collect::<Vec<_>>()
    );
    let step_span = snap.spans.get("kernel.step").expect("kernel.step span");
    assert_eq!(step_span.count, 3);

    // The kernel's Telemetry struct is a view over the registry: the
    // mirrored kernel.* counters reconstruct it exactly.
    assert_eq!(Telemetry::from_snapshot(&snap), os.telemetry());

    // Scheduler decisions landed in the journal.
    assert!(
        snap.events.iter().any(|e| e.category == "scheduler"),
        "no scheduler events journaled"
    );
}

#[test]
fn snapshot_json_round_trips_through_shim() {
    let _guard = exclusive();
    obs::reset();
    obs::set_enabled(true);
    let _os = run_workload(2);
    let snap = obs::snapshot();
    obs::set_enabled(false);

    let json = snap.to_json();
    let v = obs::JsonValue::parse(&json).expect("snapshot JSON parses");
    assert_eq!(
        v.get("counters")
            .and_then(|c| c.get("kernel.steps"))
            .and_then(|s| s.as_f64()),
        Some(2.0)
    );
    // Span entries keep their nested-path keys through the round-trip.
    let spans = v
        .get("spans")
        .and_then(|s| s.as_object())
        .expect("spans object");
    assert!(spans.iter().any(|(k, _)| k == "kernel.step"));
}

#[test]
fn identical_runs_yield_identical_deterministic_metrics() {
    let _guard = exclusive();
    let mut dumps = Vec::new();
    for _ in 0..2 {
        obs::reset();
        obs::set_enabled(true);
        let _os = run_workload(2);
        dumps.push(obs::snapshot().deterministic_json());
        obs::set_enabled(false);
    }
    assert_eq!(
        dumps[0], dumps[1],
        "deterministic projection must be byte-identical across identical runs"
    );
    // And the projection really dropped the wall-clock series.
    assert!(
        !dumps[0].contains("_ns\""),
        "deterministic projection leaked a *_ns series"
    );
}

#[test]
fn disabled_kernel_run_records_nothing() {
    let _guard = exclusive();
    obs::reset();
    obs::set_enabled(false);
    let _os = run_workload(1);
    let snap = obs::snapshot();
    assert!(snap.counters.is_empty(), "{:?}", snap.counters);
    assert!(snap.spans.is_empty());
    assert!(snap.events.is_empty());
}

/// The sum of every series of counter `name` whose labels include `label`.
fn labelled(snap: &obs::Snapshot, name: &str, label: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| obs::base_name(k) == name)
        .filter(|(k, _)| obs::label_body(k).is_some_and(|b| b.split(',').any(|l| l == label)))
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn heartbeat_memo_hits_are_counted() {
    let _guard = exclusive();
    obs::reset();
    obs::set_enabled(true);
    let mut os = surfos::daemon::demo_kernel();
    os.submit(ServiceRequest::init_powering("laptop", 3600.0));
    // Settles once the first configuration is realized: the memo answers.
    for _ in 0..4 {
        os.step(200);
    }
    let counters = |snap: obs::Snapshot| {
        let read = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        (
            read("orchestrator.slots_skipped"),
            read("orchestrator.adam.iters"),
        )
    };
    let (skipped, iters) = counters(obs::snapshot());
    assert!(skipped >= 1, "steady heartbeats hit the memo");
    os.step(200);
    obs::set_enabled(false);
    assert_eq!(
        counters(obs::snapshot()),
        (skipped + 1, iters),
        "a steady heartbeat skips its slot and runs no Adam"
    );
}

#[test]
fn rejections_are_counted_by_reason() {
    use surfos::daemon::{demo_kernel, ServeOptions, Server};
    use surfos::rpc::{Client, Request, RequestEnvelope, Response};

    let _guard = exclusive();
    obs::reset();
    obs::set_enabled(true);
    let opts = ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        max_conns: 3,
        capacity: 2,
        per_tenant: 1,
        ..ServeOptions::default()
    };
    let connect = |server: &Server| Client::tcp(server.tcp_addr().unwrap()).unwrap();
    let register = |client: &mut Client, tenant: &str| {
        let request = Request::RegisterService {
            kind: "powering".into(),
            subject: "laptop".into(),
            value: 60.0,
        };
        client
            .call(&RequestEnvelope::with_tenant(1, tenant, request))
            .expect("an answer")
    };
    let rejected = |r: Response| matches!(r, Response::Rejected { .. });

    // No surface deployed: the resource grid is empty.
    let bare = SurfOS::new(ChannelSim::new(
        two_room_apartment().plan,
        NamedBand::MmWave28GHz.band(),
    ));
    let server = Server::start(bare, opts.clone()).unwrap();
    assert!(rejected(register(&mut connect(&server), "a")));
    server.stop();

    let server = Server::start(demo_kernel(), opts).unwrap();
    let mut a = connect(&server);
    assert!(!rejected(register(&mut a, "a")));
    assert!(rejected(register(&mut a, "a")), "per-tenant quota");
    let mut b = connect(&server);
    assert!(!rejected(register(&mut b, "b")));
    let mut c = connect(&server);
    assert!(rejected(register(&mut c, "c")), "registry capacity");
    let mut over = connect(&server); // a fourth connection, cap 3
    let (_, answer) = over.recv().unwrap().expect("over-cap answer");
    assert!(rejected(answer));
    server.stop();
    obs::set_enabled(false);

    let snap = obs::snapshot();
    for reason in ["grid", "quota", "capacity", "conn_cap"] {
        let label = format!("reason={reason}");
        assert_eq!(labelled(&snap, "rpc.rejected", &label), 1, "{reason}");
    }
    assert_eq!(snap.counters["rpc.rejected"], 4);
    assert!(
        snap.counters.keys().all(|k| !k.contains("tenant")),
        "never labelled by tenant"
    );
}
