//! Resource slices: the minimal scheduling unit (paper §3.2).
//!
//! "The minimal resource scheduling unit assigned to a task would be a
//! slice of time, frequency, and space." A [`Slice`] is one cell of that
//! 3-D resource grid: a time slot within the schedule frame, a frequency
//! band index, and a surface. Multiple tasks may share a slice only as a
//! *multitask group* whose configuration is jointly optimized — the
//! paper's surface-wide configuration multiplexing.

use crate::task::TaskId;
use std::collections::BTreeMap;

/// One cell of the time × frequency × space resource grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slice {
    /// Time slot index within the schedule frame.
    pub slot: usize,
    /// Frequency band index (into the orchestrator's band list).
    pub band: usize,
    /// Surface index (into the simulator's surface list).
    pub surface: usize,
}

/// Tasks sharing one slice under joint optimization.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MultitaskGroup {
    /// Member tasks (sorted, deduplicated).
    pub tasks: Vec<TaskId>,
}

impl MultitaskGroup {
    /// A group of one.
    pub fn solo(task: TaskId) -> Self {
        MultitaskGroup { tasks: vec![task] }
    }

    /// Adds a task (keeps the list sorted and unique).
    pub fn add(&mut self, task: TaskId) {
        if let Err(pos) = self.tasks.binary_search(&task) {
            self.tasks.insert(pos, task);
        }
    }

    /// Removes a task; returns `true` if the group is now empty.
    pub fn remove(&mut self, task: TaskId) -> bool {
        if let Ok(pos) = self.tasks.binary_search(&task) {
            self.tasks.remove(pos);
        }
        self.tasks.is_empty()
    }

    /// Whether the task is a member.
    pub fn contains(&self, task: TaskId) -> bool {
        self.tasks.binary_search(&task).is_ok()
    }
}

/// The allocation state of the whole resource grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SliceMap {
    assignments: BTreeMap<Slice, MultitaskGroup>,
}

impl SliceMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The group holding a slice, if any.
    pub fn group(&self, slice: Slice) -> Option<&MultitaskGroup> {
        self.assignments.get(&slice)
    }

    /// Assigns a slice to a task, joining any existing group
    /// (joint-optimization sharing).
    pub fn assign(&mut self, slice: Slice, task: TaskId) {
        self.assignments.entry(slice).or_default().add(task);
    }

    /// Releases every slice held by a task. Returns the slices freed
    /// entirely (group became empty).
    pub fn release_task(&mut self, task: TaskId) -> Vec<Slice> {
        let mut freed = Vec::new();
        self.assignments.retain(|slice, group| {
            if group.contains(task) && group.remove(task) {
                freed.push(*slice);
                false
            } else {
                true
            }
        });
        freed
    }

    /// All slices a task holds.
    pub fn slices_of(&self, task: TaskId) -> Vec<Slice> {
        self.assignments
            .iter()
            .filter(|(_, g)| g.contains(task))
            .map(|(s, _)| *s)
            .collect()
    }

    /// All assigned slices with their groups.
    pub fn iter(&self) -> impl Iterator<Item = (&Slice, &MultitaskGroup)> {
        self.assignments.iter()
    }

    /// Number of assigned slices.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no slice is assigned.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Isolation invariant: every slice has exactly one group and no group
    /// is empty. (Multiple *tasks* per slice are legal only through a
    /// group; the map cannot represent two groups on one slice, so the
    /// check is that no empty group lingers.)
    pub fn check_isolation(&self) -> Result<(), String> {
        for (slice, group) in &self.assignments {
            if group.tasks.is_empty() {
                return Err(format!("empty group left on {slice:?}"));
            }
            let mut sorted = group.tasks.clone();
            sorted.dedup();
            if sorted.len() != group.tasks.len() {
                return Err(format!("duplicate task in group on {slice:?}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn s(slot: usize, band: usize, surface: usize) -> Slice {
        Slice {
            slot,
            band,
            surface,
        }
    }

    #[test]
    fn assign_and_lookup() {
        let mut m = SliceMap::new();
        m.assign(s(0, 0, 0), 7);
        assert!(m.group(s(0, 0, 0)).unwrap().contains(7));
        assert!(m.group(s(1, 0, 0)).is_none());
        assert_eq!(m.slices_of(7), vec![s(0, 0, 0)]);
    }

    #[test]
    fn sharing_builds_group() {
        let mut m = SliceMap::new();
        m.assign(s(0, 0, 0), 1);
        m.assign(s(0, 0, 0), 2);
        let g = m.group(s(0, 0, 0)).unwrap();
        assert_eq!(g.tasks, vec![1, 2]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn release_frees_only_emptied_slices() {
        let mut m = SliceMap::new();
        m.assign(s(0, 0, 0), 1);
        m.assign(s(0, 0, 0), 2);
        m.assign(s(1, 0, 0), 1);
        let freed = m.release_task(1);
        assert_eq!(freed, vec![s(1, 0, 0)]);
        assert_eq!(m.len(), 1);
        assert!(m.group(s(0, 0, 0)).unwrap().contains(2));
        assert!(!m.group(s(0, 0, 0)).unwrap().contains(1));
    }

    #[test]
    fn group_add_is_idempotent() {
        let mut g = MultitaskGroup::solo(3);
        g.add(3);
        g.add(1);
        assert_eq!(g.tasks, vec![1, 3]);
    }

    #[test]
    fn isolation_check_passes_normal_use() {
        let mut m = SliceMap::new();
        for task in 0..5 {
            for slot in 0..3 {
                m.assign(s(slot, 0, task as usize % 2), task);
            }
        }
        assert_eq!(m.check_isolation(), Ok(()));
    }

    proptest! {
        #[test]
        fn prop_assign_release_preserves_isolation(
            ops in prop::collection::vec(
                (0usize..4, 0usize..2, 0usize..3, 0u64..6, prop::bool::ANY),
                0..60
            )
        ) {
            let mut m = SliceMap::new();
            for (slot, band, surface, task, release) in ops {
                if release {
                    m.release_task(task);
                } else {
                    m.assign(s(slot, band, surface), task);
                }
                prop_assert_eq!(m.check_isolation(), Ok(()));
            }
        }

        #[test]
        fn prop_release_removes_all_traces(
            assigns in prop::collection::vec((0usize..4, 0usize..2, 0u64..5), 1..40),
            victim in 0u64..5,
        ) {
            let mut m = SliceMap::new();
            for (slot, band, task) in assigns {
                m.assign(s(slot, band, 0), task);
            }
            m.release_task(victim);
            prop_assert!(m.slices_of(victim).is_empty());
            for (_, g) in m.iter() {
                prop_assert!(!g.contains(victim));
            }
        }
    }
}
