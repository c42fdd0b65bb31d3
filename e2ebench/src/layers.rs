//! Per-layer figures for traced runs: the benchmark times calls into each
//! layer's public functions on replicas of the workload's inputs, and
//! reads the spans and counters the program already records through
//! `surfos-obs`.

use crate::outcome::Outcome;
use crate::record::Recorder;
use crate::serve::{Exchange, Op, Scene, UTTERANCE};
use crate::stats::{median, Samples};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use surfos::broker::intent::{IntentContext, IntentTranslator, RuleBasedTranslator};
use surfos::daemon::{Dispatcher, ServeOptions};
use surfos::obs::Snapshot;
use surfos::orchestrator::ServiceRequest;
use surfos::rpc::frame::{encode_frame, write_frame, FrameBuf};
use surfos::rpc::proto::{Request, RequestEnvelope, Response};

/// Exchanges kept per connection for the replay.
pub const MAX_EXCHANGES: usize = 20_000;

/// Time the recorded request stream through the rpc codec and a replica
/// dispatcher, in order: `FrameBuf` framing, `RequestEnvelope::decode`,
/// `Dispatcher::dispatch` per op, `Response::encode` + `write_frame`. The
/// client round trip minus this in-process cost is the daemon's I/O wait.
pub fn replay_rpc(
    out: &mut Outcome,
    rec: &mut Recorder,
    scene: &Scene,
    opts: &ServeOptions,
    exchanges: &mut [Exchange],
    mut rtt: Samples,
) {
    if exchanges.is_empty() {
        return;
    }
    exchanges.sort_by_key(|e| e.sent);

    // Framing: the whole request stream through one decoder in socket-sized
    // chunks; per-frame cost is the pass time over the frame count.
    let stream: Vec<u8> = exchanges
        .iter()
        .flat_map(|e| encode_frame(&e.req))
        .collect();
    let mut per_frame = Vec::new();
    for _ in 0..5 {
        let mut fb = FrameBuf::new();
        let t = Instant::now();
        let mut frames = 0usize;
        for chunk in stream.chunks(4096) {
            fb.extend(chunk);
            while let Ok(Some(f)) = fb.next_frame() {
                black_box(&f);
                frames += 1;
            }
        }
        per_frame.push(t.elapsed().as_nanos() as f64 / frames.max(1) as f64);
    }
    let frame_ns = median(&per_frame);
    out.set_layer("rpc.frame_decode_ns", frame_ns);

    let mut d = Dispatcher::new(scene.kernel(), opts);
    let mut leases: HashMap<u64, u64> = HashMap::new();
    let (mut decode, mut encode, mut inproc) = (Samples::new(), Samples::new(), Samples::new());
    let mut dispatch: HashMap<Op, Samples> = HashMap::new();
    for (i, e) in exchanges.iter().enumerate() {
        let req_id = i as u64;
        let t0 = Instant::now();
        let env = RequestEnvelope::decode(&e.req);
        let t1 = Instant::now();
        let Ok(mut env) = env else {
            out.fail(format!("replay: recorded request {i} does not decode"));
            continue;
        };
        // Lease ids are the daemon's; map them onto the replica's.
        if let Request::ReleaseService { service } = &mut env.request {
            if let Some(mine) = leases.get(service) {
                *service = *mine;
            }
        }
        let tenant = format!("replay-{}", e.tenant);
        let resp = d.dispatch(&tenant, &env.request);
        let t2 = Instant::now();
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp.encode(env.id)).expect("Vec write");
        let t3 = Instant::now();
        black_box(&buf);
        if let (
            Response::Registered { service: mine, .. },
            Ok((_, Response::Registered { service, .. })),
        ) = (&resp, Response::decode(&e.resp))
        {
            leases.insert(service, *mine);
        }
        let root = rec.record("replay.request", req_id, t0, t3, None);
        rec.record("rpc.request_decode", req_id, t0, t1, root);
        rec.record("broker.dispatch", req_id, t1, t2, root);
        rec.record("rpc.response_encode", req_id, t2, t3, root);
        decode.push_duration(t1 - t0);
        dispatch.entry(e.op).or_default().push_duration(t2 - t1);
        encode.push_duration(t3 - t2);
        inproc.push((t3 - t0).as_nanos() as u64 + frame_ns as u64);
    }
    out.set_layer("rpc.request_decode_ns", decode.median_ns() as f64);
    out.set_layer("rpc.response_encode_ns", encode.median_ns() as f64);
    for (op, name, scale) in [
        (Op::Query, "broker.dispatch_query_ns", 1.0),
        (Op::Register, "broker.dispatch_register_ns", 1.0),
        (Op::Release, "broker.dispatch_release_ns", 1.0),
        (Op::Intent, "broker.dispatch_intent_us", 1e3),
    ] {
        if let Some(s) = dispatch.get_mut(&op) {
            out.set_layer(name, s.median_ns() as f64 / scale);
        }
    }
    let wait = rtt.median_ns() as f64 - inproc.median_ns() as f64;
    out.set_layer("daemon.io_wait_us", wait / 1e3);
    out.detail("replayed exchanges", exchanges.len().to_string());
}

/// `(count, total_ns, self_ns)` over every unlabeled span path ending in
/// `name`; self time subtracts the totals of the direct child paths.
pub fn span_stats(snap: &Snapshot, name: &str) -> (u64, u64, u64) {
    let (mut count, mut total, mut children) = (0, 0, 0);
    for (key, s) in &snap.spans {
        if key.contains('{') || key.rsplit('/').next() != Some(name) {
            continue;
        }
        count += s.count;
        total += s.total_ns;
        let prefix = format!("{key}/");
        for (k2, s2) in &snap.spans {
            if !k2.contains('{') && k2.starts_with(&prefix) && !k2[prefix.len()..].contains('/') {
                children += s2.total_ns;
            }
        }
    }
    (count, total, total.saturating_sub(children))
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// The program's own figures for the daemon, kernel, orchestrator, hw and
/// channel layers from the traced phase's snapshot.
pub fn daemon_snapshot(out: &mut Outcome) {
    let Some(snap) = out.snapshot.clone() else {
        return;
    };
    if let Some(t) = snap.timers.get("rpc.request_ns") {
        out.set_layer("daemon.server_request_us", t.p50 as f64 / 1e3);
    }
    if let Some(t) = snap.spans.get("daemon.tick") {
        out.set_layer("daemon.tick_ms", t.p50_ns as f64 / 1e6);
        out.set_layer("daemon.ticks", t.count as f64);
    }
    kernel_snapshot(out, &snap);
    lincache_snapshot(out, &snap);
}

/// Kernel self times per heartbeat, optimizer and hw figures.
pub fn kernel_snapshot(out: &mut Outcome, snap: &Snapshot) {
    let (steps, _, _) = span_stats(snap, "kernel.step");
    if steps > 0 {
        let per = |name: &str| span_stats(snap, name).2 as f64 / steps as f64;
        out.set_layer("kernel.schedule_us", per("kernel.schedule") / 1e3);
        out.set_layer("kernel.optimize_ms", per("kernel.optimize") / 1e6);
        out.set_layer("kernel.push_us", per("kernel.push") / 1e3);
        out.set_layer("kernel.sync_us", per("kernel.sync") / 1e3);
        out.set_layer(
            "orchestrator.adam_iters",
            counter(snap, "orchestrator.adam.iters") as f64 / steps as f64,
        );
        out.set_layer(
            "hw.configs_pushed",
            counter(snap, "kernel.configs_pushed") as f64 / steps as f64,
        );
        out.set_layer(
            "hw.configs_skipped",
            counter(snap, "kernel.configs_skipped") as f64 / steps as f64,
        );
    }
    let frames = counter(snap, "orchestrator.frames");
    if frames > 0 {
        out.set_layer(
            "orchestrator.tasks_per_heartbeat",
            counter(snap, "orchestrator.tasks_granted") as f64 / frames as f64,
        );
    }
    let (calls, total, _) = span_stats(snap, "orchestrator.adam");
    if calls > 0 {
        out.set_layer("orchestrator.adam_ms", total as f64 / calls as f64 / 1e6);
    }
}

/// Linearization-cache hit ratio and its base.
pub fn lincache_snapshot(out: &mut Outcome, snap: &Snapshot) {
    let hits = counter(snap, "channel.lincache.hits");
    let lookups = hits
        + counter(snap, "channel.lincache.misses")
        + counter(snap, "channel.lincache.refreshes");
    out.set_layer("channel.lincache_lookups", lookups as f64);
    if lookups > 0 {
        out.set_layer("channel.lincache_hit_ratio", hits as f64 / lookups as f64);
    }
}

/// `ChannelSim::link_budget` on a replica kernel, warm, over the query
/// pairs.
pub fn link_budget_probe(out: &mut Outcome, scene: &Scene) {
    let kernel = scene.kernel();
    let orch = kernel.orchestrator();
    let mut s = Samples::new();
    for (tx, rx) in &scene.pairs {
        let (tx, rx) = (
            orch.endpoint(tx).expect("tx"),
            orch.endpoint(rx).expect("rx"),
        );
        black_box(kernel.sim().link_budget(tx, rx));
        for _ in 0..200 {
            let t = Instant::now();
            black_box(kernel.sim().link_budget(tx, rx));
            s.push_duration(t.elapsed());
        }
    }
    out.set_layer("channel.link_budget_ns", s.median_ns() as f64);
}

/// `SurfOS::step` on a replica kernel holding serve-tick's live set: the
/// resident service, one registered service and one intent.
pub fn heartbeat_probe(out: &mut Outcome, rec: &mut Recorder, scene: &Scene, tick_ms: u64) {
    let mut kernel = scene.kernel();
    kernel.submit(ServiceRequest::init_powering("laptop", 3600.0));
    kernel.submit(ServiceRequest::init_powering("laptop", 3600.0));
    kernel.handle_utterance(UTTERANCE);
    kernel.step(tick_ms);
    let mut times = Vec::new();
    for i in 0..5 {
        let t0 = Instant::now();
        black_box(kernel.step(tick_ms));
        let t1 = Instant::now();
        rec.record("probe.kernel.step", i, t0, t1, None);
        times.push((t1 - t0).as_secs_f64() * 1e3);
    }
    out.set_layer("kernel.step_ms", median(&times));
}

/// The rule translator on the workload's utterance.
pub fn translate_probe(out: &mut Outcome, scene: &Scene) {
    let mut devices = vec!["laptop".to_string()];
    devices.extend(scene.pairs.iter().map(|p| p.1.clone()));
    let ctx = IntentContext {
        room: "bedroom".into(),
        devices,
        bandwidth_hz: scene.bandwidth_hz(),
    };
    let mut s = Samples::new();
    for _ in 0..500 {
        let t = Instant::now();
        black_box(RuleBasedTranslator.translate(UTTERANCE, &ctx));
        s.push_duration(t.elapsed());
    }
    out.set_layer("broker.translate_us", s.median_ns() as f64 / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_self_time_subtracts_direct_children_only() {
        surfos::obs::set_enabled(true);
        surfos::obs::reset();
        {
            let _a = surfos::obs::span!("bench.outer");
            {
                let _b = surfos::obs::span!("bench.inner");
                let _c = surfos::obs::span!("bench.leaf");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = surfos::obs::snapshot();
        surfos::obs::set_enabled(false);
        let (n, total, own) = span_stats(&snap, "bench.outer");
        let (_, inner_total, inner_own) = span_stats(&snap, "bench.inner");
        assert_eq!(n, 1);
        assert_eq!(own, total - inner_total);
        assert!(inner_own < inner_total);
    }
}
