//! # SurfOS
//!
//! An operating system for programmable radio environments — a full
//! reproduction of the system proposed in *"SurfOS: Towards an Operating
//! System for Programmable Radio Environments"* (HotNets '24).
//!
//! Metasurfaces give wireless networks signal-level programmability:
//! boards of sub-wavelength elements that steer, focus, filter or block
//! electromagnetic waves under software control. SurfOS is the missing
//! system layer above them — it orchestrates heterogeneous surface
//! hardware and multiplexes connectivity, sensing, powering and security
//! services over it, the way an OS multiplexes processes over CPUs.
//!
//! ## Architecture (paper §3)
//!
//! ```text
//!   user space   │  apps, intents ("start VR gaming in this room")
//!                │      ↓ service broker (surfos-broker)
//!   "kernel"     │  surface orchestrator (surfos-orchestrator)
//!                │      ↓ unified driver APIs (surfos-hw)
//!   hardware     │  heterogeneous surfaces + APs + sensors
//!   substrate    │  channel simulator (surfos-channel) + geometry + EM
//! ```
//!
//! The [`SurfOS`] kernel ties the layers: it owns the device registry and
//! the orchestrator, grounds natural-language intents into service tasks,
//! and runs the schedule → optimize → actuate loop, pushing every
//! configuration through the real driver path (wire encoding, control
//! delays, granularity projection, phase quantization) before it takes
//! physical effect in the channel model.
//!
//! ## Quickstart
//!
//! ```
//! use surfos::SurfOS;
//! use surfos_channel::{ChannelSim, Endpoint};
//! use surfos_em::band::NamedBand;
//! use surfos_geometry::scenario::two_room_apartment;
//! use surfos_hw::{designs, ProgrammableDriver};
//!
//! let scen = two_room_apartment();
//! let sim = ChannelSim::new(scen.plan.clone(), NamedBand::MmWave28GHz.band());
//! let mut os = SurfOS::new(sim);
//!
//! // Deploy a published surface design at a mounting anchor.
//! let pose = *scen.anchor("bedroom-north").unwrap();
//! os.deploy_surface("wall0", Box::new(ProgrammableDriver::new(designs::nr_surface())), pose);
//!
//! // Register infrastructure and a user device.
//! os.add_endpoint(Endpoint::access_point("ap0", scen.ap_pose));
//! os.add_endpoint(Endpoint::client("laptop", surfos_geometry::Vec3::new(6.5, 1.5, 1.2)));
//!
//! // Ask for service in plain language, then run the kernel loop.
//! let tasks = os.handle_utterance("I want to watch a movie on my laptop");
//! assert!(!tasks.is_empty());
//! os.step(100);
//! ```

pub mod autodeploy;
pub mod daemon;
pub mod kernel;
pub mod rpc;
pub mod shard;
pub mod shell;
pub mod telemetry;

pub use kernel::SurfOS;
pub use shard::{ShardedKernel, Zone};
pub use telemetry::Telemetry;

/// Serializes this crate's tests that switch the process-global obs
/// registry on or off, or count what it records.
#[cfg(test)]
pub(crate) fn obs_exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

// Re-export the layer crates under one roof so applications can depend on
// `surfos` alone.
pub use surfos_broker as broker;
pub use surfos_channel as channel;
pub use surfos_em as em;
pub use surfos_geometry as geometry;
pub use surfos_hw as hw;
pub use surfos_obs as obs;
pub use surfos_orchestrator as orchestrator;
pub use surfos_sensing as sensing;
