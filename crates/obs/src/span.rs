//! RAII span timers and the per-thread span path.
//!
//! Each thread keeps one growable path string of the span names currently
//! open on it, joined with `/`. Entering a span appends its name; dropping
//! the guard records the elapsed nanoseconds under the full path and
//! truncates back. Nesting therefore comes for free from lexical scope:
//!
//! ```
//! surfos_obs::set_enabled(true);
//! {
//!     let _step = surfos_obs::span!("kernel.step");
//!     let _opt = surfos_obs::span!("kernel.optimize");
//!     // records under "kernel.step" and "kernel.step/kernel.optimize"
//! }
//! # surfos_obs::set_enabled(false);
//! # surfos_obs::reset();
//! ```
//!
//! Fan-out chunks start their own root: a span opened inside a
//! `channel::par` chunk nests under nothing, not under the caller's path,
//! whichever thread runs the chunk ([`crate::detached`]). Batch entry points
//! therefore open their span on the caller thread, around the fan-out.

use std::cell::RefCell;
use std::time::Instant;

use crate::registry;

thread_local! {
    static SPAN_PATH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Empties the calling thread's span path (as on a fresh thread) and
/// returns it for [`restore_path`].
pub(crate) fn take_path() -> String {
    SPAN_PATH.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

/// Reinstates a path saved by [`take_path`].
pub(crate) fn restore_path(path: String) {
    SPAN_PATH.with(|p| *p.borrow_mut() = path);
}

/// Guard returned by [`crate::span!`] / [`crate::span_enter`]. Records the
/// span on drop. Inert (a no-op to drop) when observability was disabled at
/// entry.
#[must_use = "binding a span to `_` drops it immediately; use a named variable like `_span`"]
pub struct SpanGuard {
    start: Option<Instant>,
    prev_len: usize,
    /// Set when a trace `Begin` event was accepted into the flight-recorder
    /// ring; the matching `End` is emitted on drop (and skipped when the
    /// begin was dropped, keeping B/E pairs balanced under ring pressure).
    traced: Option<&'static str>,
}

pub(crate) fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            start: None,
            prev_len: 0,
            traced: None,
        };
    }
    let prev_len = SPAN_PATH.with(|p| {
        let mut p = p.borrow_mut();
        let prev = p.len();
        if !p.is_empty() {
            p.push('/');
        }
        p.push_str(name);
        prev
    });
    let traced = (crate::trace::enabled() && crate::trace::span_begin(name)).then_some(name);
    SpanGuard {
        start: Some(Instant::now()),
        prev_len,
        traced,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(name) = self.traced {
            crate::trace::span_end(name);
        }
        SPAN_PATH.with(|p| {
            let mut p = p.borrow_mut();
            registry::record_span(&p, ns);
            p.truncate(self.prev_len);
        });
    }
}
