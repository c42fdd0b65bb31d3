//! Label scopes: bounded-cardinality, interned label dimensions.
//!
//! `obs::scoped(&[("shard", id)])` pushes a label set onto the current
//! thread; while the returned guard lives, every counter / histogram /
//! timer / span recorded on this thread is *also* attributed to a key with
//! the labels compiled in: `kernel.steps{shard=3}`. Scopes nest — an inner
//! scope appends its pairs to the enclosing suffix (`{worker=1,shard=3}`).
//!
//! The cost model matters more than the feature: label formatting and
//! interning happen **once per scope entry** (a handful of scope entries
//! per heartbeat), not per recording call. Each distinct rendered suffix is
//! interned to a small integer id; the hot recording path carries only that
//! id (one thread-local read) and keys shard maps by `(name, id)` — no
//! string formatting, hashing of label pairs, or allocation per sample.
//!
//! Cardinality is bounded: at most [`MAX_LABEL_SETS`] distinct suffixes are
//! interned process-wide. Scopes beyond the cap become inert (samples fall
//! through to the unlabeled key, nothing is lost from the flat totals) and
//! are counted in the `obs.labels.dropped` counter of every snapshot.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::{Display, Write};
use std::sync::{Mutex, OnceLock};

/// Upper bound on distinct interned label suffixes. Shards, workers and
/// service names are all O(dozens); 256 leaves headroom while keeping the
/// worst-case snapshot size bounded.
pub(crate) const MAX_LABEL_SETS: usize = 256;

struct Interner {
    ids: HashMap<String, u32>,
    /// Suffix bodies by `id - 1` (id 0 is reserved for "no labels").
    bodies: Vec<String>,
    dropped: u64,
}

static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();

fn interner() -> &'static Mutex<Interner> {
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            ids: HashMap::new(),
            bodies: Vec::new(),
            dropped: 0,
        })
    })
}

fn lock() -> std::sync::MutexGuard<'static, Interner> {
    interner().lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// The interned suffix id active on this thread (0 = unlabeled).
    static CURRENT: Cell<u32> = const { Cell::new(0) };
    /// The suffix id of the outermost scope open on this thread (0 = none):
    /// the trace track its events land on. Inner scopes never change it,
    /// so a shard's work stays on the `shard=N` track even when bookkeeping
    /// scopes open inside it.
    static TRACK: Cell<u32> = const { Cell::new(0) };
}

/// The label-suffix id active on the calling thread.
#[inline]
pub(crate) fn current() -> u32 {
    CURRENT.with(|c| c.get())
}

/// The trace-track id active on the calling thread (0 = the thread's own
/// track).
#[inline]
pub(crate) fn track() -> u32 {
    TRACK.with(|c| c.get())
}

/// Clears the calling thread's label scope (as on a fresh thread) and
/// returns what [`restore`] needs to put it back.
pub(crate) fn take() -> (u32, u32) {
    (CURRENT.with(|c| c.replace(0)), TRACK.with(|c| c.replace(0)))
}

/// Reinstates a scope saved by [`take`].
pub(crate) fn restore((current, track): (u32, u32)) {
    CURRENT.with(|c| c.set(current));
    TRACK.with(|c| c.set(track));
}

/// The suffix body (`shard=3` — no braces) for an interned id.
pub(crate) fn body(id: u32) -> String {
    if id == 0 {
        return String::new();
    }
    lock()
        .bodies
        .get(id as usize - 1)
        .cloned()
        .unwrap_or_default()
}

/// All interned bodies, indexed by `id - 1`. One lock for a whole snapshot.
pub(crate) fn all_bodies() -> Vec<String> {
    lock().bodies.clone()
}

/// How many scope entries were dropped at the cardinality cap.
pub(crate) fn dropped() -> u64 {
    lock().dropped
}

/// Clears interned suffixes and the drop count (for `obs::reset`). Guards
/// alive across a reset keep recording under their (now re-interned on next
/// scope entry, stale until then) id; tests reset between scopes.
pub(crate) fn reset() {
    let mut i = lock();
    i.ids.clear();
    i.bodies.clear();
    i.dropped = 0;
}

fn intern(body: String) -> Option<u32> {
    let mut i = lock();
    if let Some(&id) = i.ids.get(&body) {
        return Some(id);
    }
    if i.bodies.len() >= MAX_LABEL_SETS {
        i.dropped += 1;
        return None;
    }
    i.bodies.push(body.clone());
    let id = i.bodies.len() as u32;
    i.ids.insert(body, id);
    Some(id)
}

/// RAII guard restoring the previous label scope on drop. Returned by
/// [`crate::scoped`]; inert when observability is disabled or the
/// cardinality cap was hit.
#[must_use = "binding a label scope to `_` drops it immediately; use a named variable"]
pub struct LabelGuard {
    prev: u32,
    active: bool,
}

impl Drop for LabelGuard {
    fn drop(&mut self) {
        if self.active {
            CURRENT.with(|c| c.set(self.prev));
            if self.prev == 0 {
                TRACK.with(|c| c.set(0));
            }
        }
    }
}

const INERT: LabelGuard = LabelGuard {
    prev: 0,
    active: false,
};

pub(crate) fn scoped<V: Display>(labels: &[(&str, V)]) -> LabelGuard {
    if !crate::enabled() || labels.is_empty() {
        return INERT;
    }
    let prev = current();
    let mut suffix = body(prev);
    for (k, v) in labels {
        if !suffix.is_empty() {
            suffix.push(',');
        }
        let _ = write!(suffix, "{k}={v}");
    }
    match intern(suffix) {
        Some(id) => {
            CURRENT.with(|c| c.set(id));
            if prev == 0 {
                TRACK.with(|c| c.set(id));
            }
            LabelGuard { prev, active: true }
        }
        None => INERT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_caps_cardinality() {
        // Use the interner directly, but hold the crate's test lock: other
        // tests' `obs::reset()` clears this interner mid-count.
        let _x = crate::tests::exclusive();
        reset();
        for i in 0..MAX_LABEL_SETS {
            assert!(intern(format!("k={i}")).is_some());
        }
        // Existing suffixes still resolve at the cap; new ones drop.
        assert!(intern("k=0".to_owned()).is_some());
        assert_eq!(intern("k=overflow".to_owned()), None);
        assert_eq!(dropped(), 1);
        reset();
        assert_eq!(dropped(), 0);
    }
}
