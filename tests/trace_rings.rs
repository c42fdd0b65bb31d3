//! Trace memory stays bounded under a long traced campus replay.
//!
//! Every thread that records a trace event owns a `RING_CAP`-event ring
//! for the rest of the process. Shard ticks fan out over the persistent
//! worker pool, so the set of recording threads is the pool plus the
//! caller, however many ticks run. (With a fresh thread per tick phase,
//! each tick would leave rings behind: ~4 MB of trace memory per tick.)
//!
//! This file is its own test binary, so no other test's threads record
//! into the same process-wide trace.

use surfos::channel::par;
use surfos::obs::{self, JsonValue};
use surfos::shard::demo_campus;

#[test]
fn traced_replay_records_on_a_bounded_set_of_threads() {
    obs::set_enabled(true);
    obs::trace::set_enabled(true);
    obs::reset();

    let mut demo = demo_campus(4);
    demo.kernel.set_worker_threads(Some(2));
    let mut recording_threads = 0;
    for round in 0..5 {
        for _ in 0..50 {
            demo.kernel.replay_tick(100);
        }
        // Export between rounds (draining the rings) so the count covers
        // threads that recorded at any point, not only since the last one.
        let json = obs::trace::export_chrome_json();
        let doc = JsonValue::parse(&json).expect("valid trace JSON");
        let threads = doc
            .get("otherData")
            .and_then(|o| o.get("threads"))
            .and_then(JsonValue::as_f64)
            .expect("otherData.threads") as usize;
        assert!(threads > 0, "round {round}: no thread recorded");
        recording_threads = recording_threads.max(threads);
    }
    obs::trace::set_enabled(false);
    obs::set_enabled(false);

    // The pool's workers plus this (calling) thread.
    let bound = par::configured_threads();
    assert!(
        recording_threads <= bound,
        "{recording_threads} threads recorded trace events over 250 ticks; the pool allows {bound}"
    );
}
