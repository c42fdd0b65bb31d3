//! Fixed-capacity ring-buffer event journal.
//!
//! Events carry a monotone sequence number, a static category and a
//! preformatted message. When full, the oldest event is overwritten; the
//! overwrite is *counted* ([`Journal::dropped`], surfaced as the
//! `obs.journal.dropped` counter in every snapshot) and remains visible in
//! the sequence numbers too (a snapshot whose first event has `seq > 0`
//! dropped exactly `seq` older events).
//!
//! The registry's journal holds [`DEFAULT_CAPACITY`] events.

use std::collections::VecDeque;

/// Default ring capacity. Big enough to hold the interesting tail of a run
/// (health transitions, scheduler decisions), small enough that an enabled
/// journal is a bounded cost.
pub(crate) const DEFAULT_CAPACITY: usize = 1024;

pub(crate) struct Event {
    pub seq: u64,
    pub category: &'static str,
    pub message: String,
}

pub(crate) struct Journal {
    capacity: usize,
    dropped: u64,
    next_seq: u64,
    events: VecDeque<Event>,
}

impl Journal {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        Journal {
            capacity,
            dropped: 0,
            next_seq: 0,
            events: VecDeque::new(),
        }
    }

    pub fn push(&mut self, category: &'static str, message: String) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event {
            seq: self.next_seq,
            category,
            message,
        });
        self.next_seq += 1;
    }

    /// How many events have been overwritten since the last clear.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn clear(&mut self) {
        self.events.clear();
        self.next_seq = 0;
        self.dropped = 0;
    }

    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_counts_overwrites() {
        let mut j = Journal::with_capacity(16);
        for i in 0..20 {
            j.push("t", format!("e{i}"));
        }
        assert_eq!(j.dropped(), 4);
        assert_eq!(j.iter().count(), 16);
        assert_eq!(j.iter().next().unwrap().seq, 4);
        j.clear();
        assert_eq!(j.dropped(), 0);
    }
}
