//! The SurfOS kernel: the glue between broker, orchestrator, drivers and
//! the radio environment.
//!
//! The kernel's [`step`](SurfOS::step) loop is the system's heartbeat:
//!
//! 1. advance time — expired tasks are reaped and their slices freed;
//! 2. schedule the frame — live tasks get time × frequency × surface
//!    slices, shareable tasks grouped for joint optimization;
//! 3. optimize — each occupied time slot gets a jointly optimized
//!    multi-surface configuration (analytic-gradient Adam), or the one it
//!    got last time when none of Adam's inputs changed (an exact memo);
//! 4. actuate — configurations travel the *real* driver path: encoded to
//!    the binary wire format, decoded at the surface controller, written
//!    into the slot store after the design's control delay, projected to
//!    the hardware's granularity and quantization;
//! 5. sync — each surface's *realized* response (not the optimizer's
//!    ideal) becomes physical in the channel model, and the data plane
//!    picks the active slot locally from endpoint feedback.
//!
//! The gap between step 3's plan and step 5's reality is exactly the
//! hardware heterogeneity the paper's hardware manager exists to expose.

use crate::telemetry::Telemetry;
use surfos_broker::intent::{IntentContext, IntentTranslator, RuleBasedTranslator};
use surfos_broker::monitor::ServiceMonitor;
use surfos_channel::dynamics::Blocker;
use surfos_channel::feedback::{FeedbackBus, FeedbackReport};
use surfos_channel::{ChannelSim, Endpoint, IndexStats, OperationMode, SurfaceInstance};
use surfos_em::array::ArrayGeometry;
use surfos_hw::driver::TimeMs;
use surfos_hw::spec::SurfaceMode;
use surfos_hw::wire::{self, ConfigFrame};
use surfos_hw::{DeviceRegistry, DriverError, Reconfigurability, SurfaceConfig, SurfaceDriver};
use surfos_orchestrator::task::TaskId;
use surfos_orchestrator::{Orchestrator, ServiceGoal, ServiceRequest};

/// Fractional resonance width of frequency-control surfaces (Scrolls-
/// class): the Lorentzian half-width as a fraction of the centre.
const RESONANCE_WIDTH: f64 = 0.15;

/// What one kernel step did.
#[derive(Debug, Default)]
pub struct StepReport {
    /// Tasks completed by expiry this step.
    pub reaped: Vec<TaskId>,
    /// Tasks the scheduler could not admit this frame.
    pub rejected: Vec<TaskId>,
    /// Time slots configured this step, by a fresh joint optimization or
    /// its memoized equal.
    pub optimized_slots: Vec<usize>,
    /// Driver pushes that failed (surface id, error). Pushes to
    /// already-fabricated passive surfaces are expected and not listed.
    pub push_errors: Vec<(String, DriverError)>,
}

/// The SurfOS kernel.
pub struct SurfOS {
    orch: Orchestrator,
    registry: DeviceRegistry,
    /// driver id ↔ simulator surface index, in deployment order.
    bindings: Vec<(String, usize)>,
    translator: Box<dyn IntentTranslator>,
    feedback: FeedbackBus,
    telemetry: Telemetry,
    user_room: Option<String>,
    /// Non-AP endpoint ids, for grounding "my phone"-style references.
    known_devices: Vec<String>,
    /// Hash of the last wire image pushed per (surface, slot). Re-pushing
    /// an identical configuration would supersede the pending write and
    /// reset its control delay — a config slower than the frame period
    /// would then never commit — so unchanged configs are skipped.
    last_pushed: std::collections::HashMap<(String, usize), u64>,
    /// Per-task service health trackers, fed only while observability is
    /// enabled (measuring every service each step costs channel
    /// evaluations).
    monitors: std::collections::HashMap<TaskId, ServiceMonitor>,
    /// Simulator index counters at the last step boundary, so the
    /// telemetry deltas attribute rebuilds/refits to kernel steps.
    last_index_stats: IndexStats,
}

impl SurfOS {
    /// Boots a kernel over an environment model.
    pub fn new(sim: ChannelSim) -> Self {
        SurfOS {
            orch: Orchestrator::new(sim),
            registry: DeviceRegistry::new(),
            bindings: Vec::new(),
            translator: Box::new(RuleBasedTranslator),
            feedback: FeedbackBus::new(1024),
            telemetry: Telemetry::default(),
            user_room: None,
            known_devices: Vec::new(),
            last_pushed: std::collections::HashMap::new(),
            monitors: std::collections::HashMap::new(),
            last_index_stats: IndexStats::default(),
        }
    }

    /// Replaces the environment's blockers. A blocker-only mutation: the
    /// simulator refits its index and refreshes cached linearizations
    /// instead of rebuilding. Scripted walks are replayed by the campus
    /// coordinator ([`ShardedKernel::attach_walk`](crate::shard::ShardedKernel::attach_walk)),
    /// a 1-zone one for a flat deployment.
    pub fn set_blockers(&mut self, blockers: Vec<Blocker>) {
        self.orch.sim.set_blockers(blockers);
    }

    /// Replaces the intent backend (e.g. with an LLM client).
    pub fn set_translator(&mut self, translator: Box<dyn IntentTranslator>) {
        self.translator = translator;
    }

    /// Sets the room utterances like "this room" refer to.
    pub fn set_user_room(&mut self, room: impl Into<String>) {
        self.user_room = Some(room.into());
    }

    /// Deploys a surface: registers its driver and instantiates its
    /// physics in the channel model at `pose`. Returns the simulator
    /// surface index.
    ///
    /// # Panics
    /// Panics on duplicate ids (deployment bug).
    pub fn deploy_surface(
        &mut self,
        id: impl Into<String>,
        driver: Box<dyn SurfaceDriver>,
        pose: surfos_geometry::Pose,
    ) -> usize {
        let id = id.into();
        let spec = driver.spec().clone();
        let geometry = ArrayGeometry::new(spec.rows, spec.cols, spec.pitch_m, spec.pitch_m);
        let mode = match spec.mode {
            SurfaceMode::Reflective => OperationMode::Reflective,
            SurfaceMode::Transmissive => OperationMode::Transmissive,
            SurfaceMode::Transflective => OperationMode::Transflective,
        };
        let mut instance =
            SurfaceInstance::new(id.clone(), pose, geometry, mode).with_efficiency(spec.efficiency);
        // Frequency-control designs are resonant structures: their
        // scattering strength follows a Lorentzian around the (tunable)
        // resonance centre.
        if spec.supports("frequency") {
            instance = instance.with_resonance(spec.band.center_hz, RESONANCE_WIDTH);
        }
        let idx = self.orch.sim.add_surface(instance);

        // Wire the hardware's granularity into the optimizer.
        self.orch.tying.groups.push(None);
        match spec.reconfigurability {
            Reconfigurability::ColumnWise => self.orch.tying.tie_columns(idx, spec.rows, spec.cols),
            Reconfigurability::RowWise => self.orch.tying.tie_rows(idx, spec.rows, spec.cols),
            Reconfigurability::ElementWise | Reconfigurability::Passive => {}
        }

        // The physical surface starts in its driver's realized state.
        self.orch
            .sim
            .surface_mut(idx)
            .set_response(driver.realized_response());

        self.registry.register_surface(id.clone(), driver);
        self.bindings.push((id, idx));
        idx
    }

    /// Registers an endpoint (AP, client, tag).
    pub fn add_endpoint(&mut self, endpoint: Endpoint) {
        if endpoint.kind != surfos_channel::EndpointKind::AccessPoint {
            self.known_devices.push(endpoint.id.clone());
        }
        self.orch.add_endpoint(endpoint);
    }

    /// Translates an utterance into service tasks and admits them.
    pub fn handle_utterance(&mut self, utterance: &str) -> Vec<TaskId> {
        let context = self.intent_context();
        let requests = self.translator.translate(utterance, &context);
        requests.into_iter().map(|r| self.orch.submit(r)).collect()
    }

    fn intent_context(&self) -> IntentContext {
        let room = self
            .user_room
            .clone()
            .or_else(|| self.orch.sim.plan.rooms().first().map(|r| r.name.clone()))
            .unwrap_or_else(|| "here".to_string());
        IntentContext {
            room,
            devices: self.known_devices.clone(),
            bandwidth_hz: self.orch.sim.band.bandwidth_hz,
        }
    }

    /// Submits an explicit service request (surface-native applications).
    pub fn submit(&mut self, request: ServiceRequest) -> TaskId {
        self.orch.submit(request)
    }

    /// Ingests an endpoint feedback report (data-plane slot selection).
    pub fn ingest_feedback(&mut self, report: FeedbackReport) {
        self.feedback.publish(report);
    }

    /// One kernel heartbeat of `dt_ms` milliseconds.
    pub fn step(&mut self, dt_ms: u64) -> StepReport {
        let _step_span = surfos_obs::span!("kernel.step");
        let mut report = StepReport::default();
        self.telemetry.steps += 1;
        surfos_obs::add("kernel.steps", 1);

        // 1. Time & reaping.
        report.reaped = self.orch.tick(dt_ms);
        self.telemetry.tasks_reaped += report.reaped.len() as u64;
        surfos_obs::add("kernel.tasks_reaped", report.reaped.len() as u64);

        // 2. Schedule.
        let outcome = {
            let _span = surfos_obs::span!("kernel.schedule");
            self.orch.schedule_frame()
        };
        report.rejected = outcome.rejected;
        self.telemetry.frames_scheduled += 1;
        surfos_obs::add("kernel.frames_scheduled", 1);

        // 3. + 4. Optimize each occupied slot and push through drivers.
        let now: TimeMs = self.orch.now_ms();
        for slot in 0..self.orch.slots_per_frame {
            let optimized = {
                let _span = surfos_obs::span!("kernel.optimize");
                self.orch.optimize_slot(slot)
            };
            if optimized.is_none() {
                continue;
            }
            self.telemetry.optimizations += 1;
            surfos_obs::add("kernel.optimizations", 1);
            report.optimized_slots.push(slot);
            let _span = surfos_obs::span!("kernel.push");
            self.push_configs(slot, now, &mut report);
        }

        // Commit delayed writes.
        {
            let _span = surfos_obs::span!("kernel.commit");
            let committed = self.registry.tick_all(now) as u64;
            self.telemetry.writes_committed += committed;
            surfos_obs::add("kernel.writes_committed", committed);
        }

        // 5. Sync realized responses into the channel model.
        {
            let _span = surfos_obs::span!("kernel.sync");
            self.sync_realized();
        }

        // 6. Service health (observability only: no control decisions).
        if surfos_obs::enabled() {
            self.monitor_services();
        }

        // 7. Attribute the step's scene-index work: full rebuilds vs
        // blocker refits — the dashboard's view of how often the
        // incremental path carried a heartbeat.
        let ix = self.orch.sim.index_stats();
        let rebuilds = ix.builds - self.last_index_stats.builds;
        let refits = ix.refits - self.last_index_stats.refits;
        self.last_index_stats = ix;
        self.telemetry.index_rebuilds += rebuilds;
        surfos_obs::add("kernel.index_rebuilds", rebuilds);
        self.telemetry.index_refits += refits;
        surfos_obs::add("kernel.index_refits", refits);
        report
    }

    /// Pushes each surface's current (planned) phases as slot `slot`'s
    /// configuration, through the wire format and the driver.
    fn push_configs(&mut self, slot: usize, now: TimeMs, report: &mut StepReport) {
        for (id, idx) in &self.bindings {
            let phases: Vec<f64> = self.orch.sim.surfaces()[*idx]
                .response()
                .iter()
                .map(|r| r.arg())
                .collect();
            let driver = self.registry.surface_mut(id).expect("bound driver");
            let spec = driver.spec();
            let slot = slot.min(spec.config_slots - 1);
            let bits = spec.phase_bits().unwrap_or(8);

            // Control channel: encode, "transmit", decode, load.
            let frame = ConfigFrame {
                slot: slot as u16,
                config: SurfaceConfig::from_phases(&phases),
            };
            let bytes = wire::encode(&frame, bits, 0);
            let hash = {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for &b in bytes.iter() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                h
            };
            if self.last_pushed.get(&(id.clone(), slot)) == Some(&hash) {
                self.telemetry.configs_skipped += 1;
                surfos_obs::add("kernel.configs_skipped", 1);
                continue; // unchanged: leave any pending write to commit
            }
            self.last_pushed.insert((id.clone(), slot), hash);
            self.telemetry.wire_bytes += bytes.len() as u64;
            surfos_obs::add("kernel.wire_bytes", bytes.len() as u64);
            match wire::decode(bytes) {
                Ok((decoded, _, _)) => {
                    match driver.load_config(decoded.slot as usize, decoded.config, now) {
                        Ok(()) => {
                            self.telemetry.configs_pushed += 1;
                            surfos_obs::add("kernel.configs_pushed", 1);
                        }
                        Err(DriverError::AlreadyFabricated) => {} // frozen passive
                        Err(e) => report.push_errors.push((id.clone(), e)),
                    }
                }
                Err(e) => report.push_errors.push((id.clone(), e)),
            }
        }
    }

    /// Copies every driver's realized response into the channel model and
    /// lets the data plane pick the active slot from endpoint feedback.
    pub fn sync_realized(&mut self) {
        for (id, idx) in &self.bindings {
            let driver = self.registry.surface_mut(id).expect("bound driver");
            if let Some(best) = self.feedback.best_slot(id) {
                let best = best.min(driver.spec().config_slots - 1);
                driver.activate_slot(best).expect("slot clamped");
            }
            let response = driver.realized_response();
            let pol = driver.realized_polarization();
            let shift = driver.realized_frequency_shift();
            let has_freq = driver.spec().supports("frequency");
            let center = driver.spec().band.center_hz;
            // Responses are evaluation inputs — push them through the
            // cache-preserving setter; only touch geometry (and so
            // invalidate cached linearizations) when it actually changed.
            self.orch.sim.set_surface_response(*idx, response);
            let geometry_changed = {
                let surf = &self.orch.sim.surfaces()[*idx];
                surf.polarization_rot != pol
                    || (has_freq && surf.resonance != Some((center + shift, RESONANCE_WIDTH)))
            };
            if geometry_changed {
                let surf = self.orch.sim.surface_mut(*idx);
                surf.polarization_rot = pol;
                if has_freq {
                    surf.resonance = Some((center + shift, RESONANCE_WIDTH));
                }
            }
        }
    }

    /// Compares each live task's measured metric against its requested
    /// target and journals health transitions (`broker.monitor` events).
    /// Purely observational: the kernel makes no control decisions from
    /// health, and skips the whole pass when observability is off.
    fn monitor_services(&mut self) {
        let _span = surfos_obs::span!("kernel.monitor");
        let live: Vec<TaskId> = self
            .orch
            .tasks
            .live_by_priority()
            .iter()
            .map(|t| t.id)
            .collect();
        self.monitors.retain(|id, _| live.contains(id));
        for id in live {
            let Some(task) = self.orch.tasks.get(id) else {
                continue;
            };
            // (target, higher_is_better) per goal; localization has no
            // channel-level metric to compare against.
            let (target, higher_is_better) = match task.request.goal {
                ServiceGoal::LinkQuality { min_snr_db, .. } => (min_snr_db, true),
                ServiceGoal::AreaCoverage { median_snr_db } => (median_snr_db, true),
                ServiceGoal::DeliveredPower { min_power_dbm } => (min_power_dbm, true),
                ServiceGoal::Suppression { max_leak_dbm } => (max_leak_dbm, false),
                ServiceGoal::LocalizationAccuracy { .. } => continue,
            };
            let label = format!(
                "task#{id} {:?}({})",
                task.request.kind, task.request.subject
            );
            let Some(metric) = self.orch.measure(id) else {
                continue;
            };
            self.monitors
                .entry(id)
                .or_insert_with(|| ServiceMonitor::new(label, target, higher_is_better))
                .observe(metric);
        }
    }

    /// Current health of a monitored task, if observability has fed it.
    pub fn service_health(&self, task: TaskId) -> Option<surfos_broker::monitor::Health> {
        self.monitors.get(&task).map(|m| m.health())
    }

    /// The orchestrator (task table, slices, service API).
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orch
    }

    /// Mutable orchestrator access.
    pub fn orchestrator_mut(&mut self) -> &mut Orchestrator {
        &mut self.orch
    }

    /// The channel simulator (environment + surfaces).
    pub fn sim(&self) -> &ChannelSim {
        &self.orch.sim
    }

    /// The device registry.
    pub fn registry(&self) -> &DeviceRegistry {
        &self.registry
    }

    /// Mutable registry access (e.g. to fabricate passive surfaces).
    pub fn registry_mut(&mut self) -> &mut DeviceRegistry {
        &mut self.registry
    }

    /// Kernel counters.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry
    }

    /// Measured service metric for a task (see
    /// [`Orchestrator::measure`]).
    pub fn measure(&mut self, task: TaskId) -> Option<f64> {
        self.orch.measure(task)
    }

    /// The environment as seen by a *different* network at `band` — the
    /// paper's §2.1 interference check ("surfaces designed for 2.4 GHz may
    /// block 3 GHz cellular and 5 GHz Wi-Fi"). Every deployed surface
    /// appears as a partial obstruction whose transparency comes from its
    /// design's wideband frequency response; none of them scatters (their
    /// programmed behaviour is out of band).
    pub fn foreign_band_view(&self, band: surfos_em::band::Band) -> ChannelSim {
        let mut sim = ChannelSim::new(self.orch.sim.plan.clone(), band);
        for (id, idx) in &self.bindings {
            let spec = self.registry.surface(id).expect("bound driver").spec();
            let source = &self.orch.sim.surfaces()[*idx];
            let obstruction = SurfaceInstance::new(
                format!("{id}-offband"),
                source.pose,
                source.geometry,
                source.mode,
            )
            .with_efficiency(0.0) // no programmed scattering off-band
            .with_obstruction(spec.offband_transmission(band.center_hz));
            sim.add_surface(obstruction);
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_em::band::NamedBand;
    use surfos_geometry::scenario::two_room_apartment;
    use surfos_geometry::{Pose, Vec3};
    use surfos_hw::designs;
    use surfos_hw::driver::{PassiveDriver, ProgrammableDriver};
    use surfos_orchestrator::task::TaskState;

    /// A programmable 32×32 element-wise design for tests.
    fn prog_spec() -> surfos_hw::HardwareSpec {
        let mut s = designs::scatter_mimo();
        s.band = NamedBand::MmWave28GHz.band();
        s.rows = 32;
        s.cols = 32;
        s.pitch_m = 0.0053;
        s.control_delay_us = Some(1_000); // 1 ms
        s
    }

    fn boot() -> SurfOS {
        let scen = two_room_apartment();
        let sim = ChannelSim::new(scen.plan.clone(), NamedBand::MmWave28GHz.band());
        let mut os = SurfOS::new(sim);
        let pose = *scen.anchor("bedroom-north").unwrap();
        os.deploy_surface(
            "wall0",
            Box::new(ProgrammableDriver::new(prog_spec())),
            pose,
        );
        let ap = Endpoint::access_point(
            "ap0",
            Pose::wall_mounted(scen.ap_pose.position, pose.position - scen.ap_pose.position),
        );
        os.add_endpoint(ap);
        os.add_endpoint(Endpoint::client("laptop", Vec3::new(6.5, 1.5, 1.2)));
        os.add_endpoint(Endpoint::client("phone", Vec3::new(7.0, 2.5, 1.0)));
        os.orchestrator_mut().adam_options.iters = 50;
        os
    }

    #[test]
    fn deploy_binds_driver_and_physics() {
        let os = boot();
        assert_eq!(os.sim().surfaces().len(), 1);
        assert_eq!(os.registry().surface_count(), 1);
        let surf = &os.sim().surfaces()[0];
        assert_eq!(surf.len(), 1024);
        // Initial physical state is the driver's realized (specular) one.
        assert!(surf.response().iter().all(|r| (r.abs() - 1.0).abs() < 1e-9));
    }

    #[test]
    fn utterance_to_tasks() {
        let mut os = boot();
        os.set_user_room("bedroom");
        let tasks = os.handle_utterance("I want to start VR gaming in this room");
        assert!(tasks.len() >= 2, "got {}", tasks.len());
        // One of them is a coverage task on the bedroom.
        let orch = os.orchestrator();
        assert!(tasks.iter().any(|t| {
            let task = orch.tasks.get(*t).unwrap();
            task.request.subject == "bedroom"
        }));
    }

    #[test]
    fn step_loop_improves_service_end_to_end() {
        let mut os = boot();
        let task = os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));
        let before = os.measure(task).expect("measurable");
        let report = os.step(10);
        assert!(report.rejected.is_empty());
        assert!(!report.optimized_slots.is_empty());
        assert!(report.push_errors.is_empty(), "{:?}", report.push_errors);
        // The pushed write commits after its 1 ms control delay, i.e. on
        // the next heartbeat.
        os.step(10);
        let t = os.telemetry();
        assert!(t.writes_committed > 0);
        assert!(t.wire_bytes > 0);
        let after = os.measure(task).expect("measurable");
        assert!(
            after > before + 5.0,
            "realized (quantized) config should still add real SNR: before={before:.1} after={after:.1}"
        );
        assert_eq!(
            os.orchestrator().tasks.get(task).unwrap().state,
            TaskState::Running
        );
    }

    #[test]
    fn memo_hit_still_configures_a_steady_heartbeat() {
        let mut os = boot();
        os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));
        // The first configuration commits after its control delay and the
        // next heartbeat re-optimizes from the realized phases; after that
        // nothing Adam reads changes.
        for _ in 0..3 {
            os.step(10);
        }
        let before = os.telemetry();
        let report = os.step(10);
        assert_eq!(report.optimized_slots.len(), 1, "a hit still configures");
        let after = os.telemetry();
        assert_eq!(after.optimizations, before.optimizations + 1);
        assert_eq!(after.configs_pushed, before.configs_pushed, "same config");
    }

    #[test]
    fn kernel_ticks_reuse_scene_index() {
        let mut os = boot();
        os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));
        // The first step may legitimately touch geometry (resonance sync
        // from the driver); after that the loop is steady-state.
        os.step(10);
        let index = os.sim().scene_index();
        os.step(10);
        os.step(10);
        assert!(
            std::sync::Arc::ptr_eq(&index, &os.sim().scene_index()),
            "steady-state kernel ticks must not rebuild the scene index"
        );
    }

    #[test]
    fn walk_ticks_refit_not_rebuild() {
        let mut os = boot();
        os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));
        let walk = surfos_channel::dynamics::BlockerWalk::new(
            vec![Vec3::xy(5.5, 1.0), Vec3::xy(7.0, 2.5)],
            1.4,
        );
        // One walker tick: its person at the time the step advances to.
        let walk_step = |os: &mut SurfOS| {
            let t_s = (os.orchestrator().now_ms() + 10) as f64 / 1000.0;
            os.set_blockers(vec![walk.blocker_at(t_s)]);
            os.step(10);
        };
        // First step may touch geometry (resonance sync); settle first.
        walk_step(&mut os);
        walk_step(&mut os);
        let settled = os.telemetry();
        let structure = std::sync::Arc::clone(os.sim().scene_index().structure());
        for _ in 0..5 {
            walk_step(&mut os);
            assert!(
                std::sync::Arc::ptr_eq(&structure, os.sim().scene_index().structure()),
                "walk ticks must keep the wall BVH structure"
            );
        }
        let t = os.telemetry();
        assert_eq!(
            t.index_rebuilds, settled.index_rebuilds,
            "blocker-only steps must never rebuild the scene index"
        );
        assert!(
            t.index_refits >= settled.index_refits + 5,
            "each walk tick refits: {} -> {}",
            settled.index_refits,
            t.index_refits
        );
    }

    #[test]
    fn realized_response_is_quantized() {
        let mut os = boot();
        os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));
        os.step(10);
        let bits = os
            .registry()
            .surface("wall0")
            .unwrap()
            .spec()
            .phase_bits()
            .unwrap();
        for r in os.sim().surfaces()[0].response() {
            let phase = surfos_em::phase::wrap_phase(r.arg());
            let q = surfos_em::phase::quantize_phase(phase, bits);
            assert!(
                (phase - q).abs() < 1e-9 || (phase - q).abs() > std::f64::consts::TAU - 1e-9,
                "phase {phase} not on {bits}-bit lattice"
            );
        }
    }

    #[test]
    fn control_delay_defers_commit() {
        let scen = two_room_apartment();
        let sim = ChannelSim::new(scen.plan.clone(), NamedBand::MmWave28GHz.band());
        let mut os = SurfOS::new(sim);
        let mut spec = prog_spec();
        spec.control_delay_us = Some(50_000); // 50 ms
        let pose = *scen.anchor("bedroom-north").unwrap();
        os.deploy_surface("slow0", Box::new(ProgrammableDriver::new(spec)), pose);
        let ap = Endpoint::access_point(
            "ap0",
            Pose::wall_mounted(scen.ap_pose.position, pose.position - scen.ap_pose.position),
        );
        os.add_endpoint(ap);
        os.orchestrator_mut().adam_options.iters = 30;
        os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));

        // First step (10 ms): optimization pushed but not yet committed —
        // the physical surface still shows the specular state.
        os.step(10);
        assert_eq!(os.telemetry().writes_committed, 0);
        assert!(os.sim().surfaces()[0]
            .response()
            .iter()
            .all(|r| (r.abs() - 1.0).abs() < 1e-9 && r.arg().abs() < 1e-9));

        // After the delay elapses, the write lands.
        os.step(60);
        assert!(os.telemetry().writes_committed > 0);
    }

    #[test]
    fn fabricated_passive_surface_is_not_an_error() {
        let scen = two_room_apartment();
        let sim = ChannelSim::new(scen.plan.clone(), NamedBand::MmWave60GHz.band());
        let mut os = SurfOS::new(sim);
        let mut spec = designs::milli_mirror();
        spec.rows = 16;
        spec.cols = 16;
        let pose = *scen.anchor("bedroom-north").unwrap();
        os.deploy_surface("mirror0", Box::new(PassiveDriver::new(spec)), pose);
        let ap = Endpoint::access_point(
            "ap0",
            Pose::wall_mounted(scen.ap_pose.position, pose.position - scen.ap_pose.position),
        );
        os.add_endpoint(ap);
        os.orchestrator_mut().adam_options.iters = 20;
        os.submit(ServiceRequest::optimize_coverage("bedroom", 20.0));

        // First step configures the not-yet-fabricated pattern.
        let r1 = os.step(10);
        assert!(r1.push_errors.is_empty());
        // Freeze it.
        {
            let reg = os.registry_mut();
            let drv = reg.surface_mut("mirror0").unwrap();
            let passive = drv
                .as_any_mut()
                .downcast_mut::<PassiveDriver>()
                .expect("passive driver");
            passive.fabricate().unwrap();
        }
        // Subsequent pushes silently skip the frozen surface.
        let r2 = os.step(10);
        assert!(r2.push_errors.is_empty());
    }

    #[test]
    fn feedback_selects_active_slot() {
        let mut os = boot();
        os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));
        os.step(10);
        // Report that slot 2 serves the client best.
        for t in 0..3 {
            os.ingest_feedback(FeedbackReport {
                endpoint_id: "laptop".into(),
                surface_id: "wall0".into(),
                config_slot: 2,
                rss_dbm: -50.0,
                timestamp_ms: t,
            });
        }
        os.sync_realized();
        assert_eq!(os.registry().surface("wall0").unwrap().active_slot(), 2);
    }

    #[test]
    fn telemetry_accumulates() {
        let mut os = boot();
        os.submit(ServiceRequest::optimize_coverage("bedroom", 25.0));
        os.step(10);
        os.step(10);
        let t = os.telemetry();
        assert_eq!(t.steps, 2);
        assert_eq!(t.frames_scheduled, 2);
        assert!(t.optimizations >= 2);
        // The second step's configs are identical and deduplicated, so
        // exactly the first step's pushes are counted — and committed.
        assert!(t.configs_pushed >= 1);
        assert!(t.writes_committed >= 1);
    }

    #[test]
    fn foreign_band_view_exposes_crossband_blocking() {
        // A 2.4 GHz LAIA standing mid-path between a 3.5 GHz base station
        // and its user shows up as measurable attenuation in the foreign
        // band's view of the environment (§2.1).
        let sim = ChannelSim::new(
            surfos_geometry::FloorPlan::new(),
            NamedBand::Ism2_4GHz.band(),
        );
        let mut os = SurfOS::new(sim);
        let pose = Pose::wall_mounted(Vec3::new(3.0, 0.0, 1.5), Vec3::X);
        os.deploy_surface(
            "laia0",
            Box::new(ProgrammableDriver::new(designs::laia())),
            pose,
        );

        let foreign = os.foreign_band_view(NamedBand::Cellular3_5GHz.band());
        let mut tx = Endpoint::client("bs", Vec3::new(0.0, 0.0, 1.5));
        tx.pattern = surfos_em::antenna::ElementPattern::Isotropic;
        let mut rx = Endpoint::client("ue", Vec3::new(6.0, 0.0, 1.5));
        rx.pattern = surfos_em::antenna::ElementPattern::Isotropic;
        let obstructed = foreign.rss_dbm(&tx, &rx);

        let clear = ChannelSim::new(
            surfos_geometry::FloorPlan::new(),
            NamedBand::Cellular3_5GHz.band(),
        )
        .rss_dbm(&tx, &rx);
        let loss = clear - obstructed;
        assert!(
            loss > 0.4,
            "2.4 GHz surface must bother 3.5 GHz cellular: {loss:.2} dB"
        );

        // Far off-band (60 GHz) the same structure is essentially
        // transparent.
        let far = os.foreign_band_view(NamedBand::MmWave60GHz.band());
        let clear60 = ChannelSim::new(
            surfos_geometry::FloorPlan::new(),
            NamedBand::MmWave60GHz.band(),
        )
        .rss_dbm(&tx, &rx);
        let loss60 = clear60 - far.rss_dbm(&tx, &rx);
        assert!(loss60 < 0.2, "60 GHz barely affected: {loss60:.2} dB");
    }

    #[test]
    fn frequency_retuning_revives_detuned_surface() {
        // A Scrolls-class surface resonant at 3.45 GHz is weak in a
        // 2.44 GHz network until its resonance is rolled down to the
        // operating band — the paper's frequency-control primitive with
        // real channel consequences.
        let band = NamedBand::Ism2_4GHz.band();
        let sim = ChannelSim::new(surfos_geometry::FloorPlan::new(), band);
        let mut os = SurfOS::new(sim);
        let mut spec = designs::scrolls();
        spec.rows = 16;
        spec.cols = 16;
        spec.reconfigurability = Reconfigurability::ElementWise; // isolate the frequency effect
        let pose = Pose::wall_mounted(Vec3::new(0.0, 0.0, 1.5), Vec3::X);
        os.deploy_surface("scroll0", Box::new(ProgrammableDriver::new(spec)), pose);

        let mut tx = Endpoint::client("tx", Vec3::new(4.0, 3.0, 1.5));
        tx.pattern = surfos_em::antenna::ElementPattern::Isotropic;
        let mut rx = Endpoint::client("rx", Vec3::new(4.0, -3.0, 1.5));
        rx.pattern = surfos_em::antenna::ElementPattern::Isotropic;

        // Focus the surface on the link; measure its contribution detuned.
        let focus_and_measure = |os: &mut SurfOS| {
            let lin = os.sim().linearize(&tx, &rx);
            let term = lin.linear.iter().find(|t| t.surface == 0);
            term.map(|t| t.coeffs.iter().map(|c| c.abs()).sum::<f64>())
                .unwrap_or(0.0)
        };
        let detuned = focus_and_measure(&mut os);

        // Roll the resonance down to the operating band via the driver.
        {
            let drv = os.registry_mut().surface_mut("scroll0").unwrap();
            let shift = NamedBand::Ism2_4GHz.band().center_hz - drv.spec().band.center_hz;
            drv.set_frequency(0, shift, 0).unwrap();
            drv.tick(1_000_000); // mechanical rolling is slow; let it land
        }
        os.sync_realized();
        let tuned = focus_and_measure(&mut os);
        assert!(
            tuned > 3.0 * detuned,
            "retuning must strengthen the surface: detuned={detuned:.3e} tuned={tuned:.3e}"
        );
    }

    #[test]
    fn polarization_rotation_propagates_to_channel() {
        let band = NamedBand::Ism2_4GHz.band();
        let sim = ChannelSim::new(surfos_geometry::FloorPlan::new(), band);
        let mut os = SurfOS::new(sim);
        let mut spec = designs::llama();
        spec.rows = 8;
        spec.cols = 8;
        let pose = Pose::wall_mounted(Vec3::new(0.0, 0.0, 1.5), Vec3::X);
        os.deploy_surface("llama0", Box::new(ProgrammableDriver::new(spec)), pose);
        {
            let drv = os.registry_mut().surface_mut("llama0").unwrap();
            drv.set_polarization(0, std::f64::consts::FRAC_PI_2, 0)
                .unwrap();
            drv.tick(1_000_000);
        }
        os.sync_realized();
        assert!(
            (os.sim().surfaces()[0].polarization_rot - std::f64::consts::FRAC_PI_2).abs() < 1e-12
        );
    }

    #[test]
    fn expired_sensing_task_reaped_in_step() {
        let mut os = boot();
        let t = os.submit(ServiceRequest::enable_sensing("bedroom", 0.05));
        os.step(10); // schedules it
        assert_eq!(
            os.orchestrator().tasks.get(t).unwrap().state,
            TaskState::Running
        );
        let report = os.step(100); // 110 ms > 50 ms duration
        assert_eq!(report.reaped, vec![t]);
    }
}
