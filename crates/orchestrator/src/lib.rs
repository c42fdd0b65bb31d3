//! # surfos-orchestrator
//!
//! The SurfOS **surface orchestrator** (paper §3.2): the universal central
//! control plane that turns service requests into scheduled tasks and
//! optimized surface configurations.
//!
//! - [`service`]: the service request APIs — `enhance_link()`,
//!   `optimize_coverage()`, `enable_sensing()`, `init_powering()`,
//!   `protect_link()` — environment-wide abstractions that never name
//!   hardware.
//! - [`task`]: tasks (the OS-process analogue) with states, priorities and
//!   lifecycles.
//! - [`mod@slice`]: the minimal resource unit — a slice of time × frequency ×
//!   space — and assignments of slices to tasks.
//! - [`scheduler`]: admission, priority scheduling, preemption, idle
//!   reclamation and isolation across slices.
//! - [`objective`]: differentiable service objectives over surface
//!   configurations (coverage capacity, localization cross-entropy,
//!   powering, weighted multitask sums).
//! - [`optimizer`]: the configuration optimizer — Adam gradient descent on
//!   analytic gradients, with random-search and greedy quantized
//!   coordinate-descent baselines, and granularity tying for column-/row-
//!   wise hardware.
//! - [`orchestrator`]: the facade that owns the channel simulator, task
//!   table and scheduler, and exposes the service API.

pub mod objective;
pub mod optimizer;
pub mod orchestrator;
#[cfg(test)]
mod reference;
pub mod scheduler;
pub mod service;
pub mod slice;
pub mod task;

pub use objective::{
    CoverageObjective, LocalizationObjective, MultiObjective, Objective, PoweringObjective,
};
pub use optimizer::{adam, greedy_quantized, random_search, AdamOptions, OptimizeResult};
pub use orchestrator::Orchestrator;
pub use scheduler::Scheduler;
pub use service::{ServiceGoal, ServiceKind, ServiceRequest};
pub use task::{Task, TaskId, TaskState};
