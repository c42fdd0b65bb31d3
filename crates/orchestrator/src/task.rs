//! Tasks: the OS-process analogue for surface services (paper §3.2).

use crate::service::ServiceRequest;

/// Task identifier (monotonically assigned by the task table).
pub type TaskId = u64;

/// Lifecycle states. The transitions mirror a conventional process table:
/// `Pending → Running ↔ Idle → Completed`, with `Failed` reachable from
/// any live state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Admitted but not yet scheduled onto any slice.
    Pending,
    /// Holding slices and actively served.
    Running,
    /// Alive but not currently using its slices (resources reclaimable).
    Idle,
    /// Finished normally (duration elapsed or goal permanently met).
    Completed,
    /// Could not be (or no longer can be) served.
    Failed,
}

/// One task: an admitted service request plus its runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Identifier.
    pub id: TaskId,
    /// The request that created the task.
    pub request: ServiceRequest,
    /// Current state.
    pub state: TaskState,
    /// Simulation time the task was admitted, milliseconds.
    pub admitted_at_ms: u64,
    /// Most recent measured service metric (meaning depends on the goal:
    /// SNR dB, localization error m, delivered power dBm…).
    pub last_metric: Option<f64>,
}

impl Task {
    /// Time the task expires, if it has a duration.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.request
            .duration_s
            .map(|d| self.admitted_at_ms + (d * 1000.0) as u64)
    }

    /// Whether the task has outlived its requested duration at `now`.
    pub fn expired(&self, now_ms: u64) -> bool {
        self.deadline_ms().is_some_and(|d| now_ms >= d)
    }

    /// Whether the task currently holds (or may hold) resources.
    pub fn is_live(&self) -> bool {
        matches!(
            self.state,
            TaskState::Pending | TaskState::Running | TaskState::Idle
        )
    }
}

/// The task table: admission and lifecycle management.
#[derive(Debug, Default)]
pub struct TaskTable {
    tasks: Vec<Task>,
    next_id: TaskId,
}

impl TaskTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits a request; returns the new task's id.
    pub fn admit(&mut self, request: ServiceRequest, now_ms: u64) -> TaskId {
        let id = self.next_id;
        self.next_id += 1;
        self.tasks.push(Task {
            id,
            request,
            state: TaskState::Pending,
            admitted_at_ms: now_ms,
            last_metric: None,
        });
        id
    }

    /// Looks a task up.
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.tasks.iter_mut().find(|t| t.id == id)
    }

    /// All tasks.
    pub fn all(&self) -> &[Task] {
        &self.tasks
    }

    /// Live tasks (pending, running or idle), highest priority first;
    /// ties broken by admission order (earlier first).
    pub fn live_by_priority(&self) -> Vec<&Task> {
        let mut live: Vec<&Task> = self.tasks.iter().filter(|t| t.is_live()).collect();
        live.sort_by(|a, b| {
            b.request
                .priority
                .cmp(&a.request.priority)
                .then(a.id.cmp(&b.id))
        });
        live
    }

    /// Transitions a task's state.
    ///
    /// # Panics
    /// Panics on an illegal transition (e.g. reviving a completed task) —
    /// scheduler logic owns transitions, so an illegal one is a kernel bug.
    pub fn set_state(&mut self, id: TaskId, state: TaskState) {
        let task = self.get_mut(id).expect("unknown task id");
        let legal = match (task.state, state) {
            (a, b) if a == b => true,
            (TaskState::Pending, TaskState::Running | TaskState::Failed) => true,
            (
                TaskState::Running,
                TaskState::Idle | TaskState::Completed | TaskState::Failed | TaskState::Pending,
            ) => true,
            (TaskState::Idle, TaskState::Running | TaskState::Completed | TaskState::Failed) => {
                true
            }
            _ => false,
        };
        assert!(
            legal,
            "illegal task transition {:?} -> {:?} for task {}",
            task.state, state, id
        );
        task.state = state;
    }

    /// Marks expired tasks completed; returns their ids (the paper's
    /// "setting a task idle when not used and releasing resources" —
    /// expiry is the strongest form).
    pub fn reap_expired(&mut self, now_ms: u64) -> Vec<TaskId> {
        let mut reaped = Vec::new();
        for t in &mut self.tasks {
            if t.is_live() && t.expired(now_ms) {
                t.state = TaskState::Completed;
                reaped.push(t.id);
            }
        }
        reaped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceRequest;

    fn table() -> TaskTable {
        let mut t = TaskTable::new();
        t.admit(ServiceRequest::optimize_coverage("bedroom", 25.0), 0);
        t.admit(ServiceRequest::enhance_link("vr", 30.0, 10.0), 10);
        t.admit(ServiceRequest::enable_sensing("bedroom", 2.0), 20);
        t
    }

    #[test]
    fn ids_are_monotonic() {
        let t = table();
        let ids: Vec<TaskId> = t.all().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn priority_ordering() {
        let t = table();
        let order: Vec<TaskId> = t.live_by_priority().iter().map(|t| t.id).collect();
        // enhance_link (5) > sensing (4) > coverage (3)
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn priority_ties_broken_by_admission() {
        let mut t = TaskTable::new();
        let a = t.admit(ServiceRequest::optimize_coverage("a", 10.0), 0);
        let b = t.admit(ServiceRequest::optimize_coverage("b", 10.0), 5);
        let order: Vec<TaskId> = t.live_by_priority().iter().map(|t| t.id).collect();
        assert_eq!(order, vec![a, b]);
    }

    #[test]
    fn lifecycle_transitions() {
        let mut t = table();
        t.set_state(0, TaskState::Running);
        t.set_state(0, TaskState::Idle);
        t.set_state(0, TaskState::Running);
        t.set_state(0, TaskState::Completed);
        assert_eq!(t.get(0).unwrap().state, TaskState::Completed);
        assert!(!t.get(0).unwrap().is_live());
    }

    #[test]
    #[should_panic(expected = "illegal task transition")]
    fn cannot_revive_completed() {
        let mut t = table();
        t.set_state(0, TaskState::Running);
        t.set_state(0, TaskState::Completed);
        t.set_state(0, TaskState::Running);
    }

    #[test]
    fn expiry_reaping() {
        let mut t = table();
        // Task 2 (sensing) has a 2 s duration from t=20 ms.
        assert!(t.reap_expired(1000).is_empty());
        let reaped = t.reap_expired(2020);
        assert_eq!(reaped, vec![2]);
        assert_eq!(t.get(2).unwrap().state, TaskState::Completed);
        // Tasks without duration never expire.
        assert!(t.reap_expired(u64::MAX / 2).is_empty());
    }

    #[test]
    fn deadline_computation() {
        let t = table();
        assert_eq!(t.get(2).unwrap().deadline_ms(), Some(2020));
        assert_eq!(t.get(0).unwrap().deadline_ms(), None);
        assert!(t.get(2).unwrap().expired(2020));
        assert!(!t.get(2).unwrap().expired(2019));
    }
}
