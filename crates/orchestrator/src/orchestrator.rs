//! The orchestrator facade: service calls in, scheduled tasks and
//! optimized configurations out.
//!
//! This type owns the channel simulator (the paper's "wireless channel
//! simulator to model the interactions between surfaces"), the task table
//! and the slice map, and drives the schedule → optimize → actuate loop.
//! Hardware drivers live one layer down (in `surfos-hw`, glued by the
//! `surfos` kernel crate); the orchestrator works on the *physical*
//! configurations the simulator understands.

use crate::objective::{
    CoverageObjective, LocalizationObjective, MultiObjective, Objective, PoweringObjective,
    SuppressionObjective,
};
use crate::optimizer::{adam, AdamOptions, Tying};
use crate::scheduler::{Requirement, ResourceModel, ScheduleOutcome, Scheduler};
use crate::service::{ServiceKind, ServiceRequest};
use crate::slice::SliceMap;
use crate::task::{TaskId, TaskState, TaskTable};
use std::collections::BTreeMap;
use surfos_channel::paths::surface_serves;
use surfos_channel::{ChannelSim, Endpoint};
use surfos_sensing::aoa::AngleGrid;

/// Evaluation-grid resolution for room-scoped objectives.
const ROOM_GRID: (usize, usize) = (6, 6);
/// Probe height for room grids (typical device height, metres).
const GRID_HEIGHT_M: f64 = 1.2;
/// Inset from walls for room grids (metres).
const GRID_MARGIN_M: f64 = 0.4;

/// Why a request that needs an access point cannot be served.
const NO_AP: &str = "no access point registered";

/// The central control plane.
pub struct Orchestrator {
    /// The environment + surface model.
    pub sim: ChannelSim,
    /// Admitted tasks.
    pub tasks: TaskTable,
    /// Current frame's slice assignments.
    pub slices: SliceMap,
    /// Time slots per schedule frame.
    pub slots_per_frame: usize,
    /// Optimizer options used by [`optimize_slot`](Self::optimize_slot).
    pub adam_options: AdamOptions,
    /// Granularity tying (set from hardware specs by the kernel layer).
    pub tying: Tying,
    endpoints: BTreeMap<String, Endpoint>,
    ap_id: Option<String>,
    now_ms: u64,
    /// The last optimization of each slot, keyed on its exact
    /// inputs (one entry per slot).
    memo: BTreeMap<usize, SlotMemo>,
}

impl Orchestrator {
    /// Creates an orchestrator over a simulator.
    pub fn new(sim: ChannelSim) -> Self {
        let n = sim.surfaces().len();
        Orchestrator {
            sim,
            tasks: TaskTable::new(),
            slices: SliceMap::new(),
            slots_per_frame: 4,
            adam_options: AdamOptions::default(),
            tying: Tying::element_wise(n),
            endpoints: BTreeMap::new(),
            ap_id: None,
            now_ms: 0,
            memo: BTreeMap::new(),
        }
    }

    /// Registers an endpoint. The first access point registered becomes
    /// the serving AP for coverage/sensing objectives.
    ///
    /// # Panics
    /// Panics on duplicate endpoint ids.
    pub fn add_endpoint(&mut self, endpoint: Endpoint) {
        assert!(
            !self.endpoints.contains_key(&endpoint.id),
            "duplicate endpoint id {:?}",
            endpoint.id
        );
        if self.ap_id.is_none() && endpoint.kind == surfos_channel::EndpointKind::AccessPoint {
            self.ap_id = Some(endpoint.id.clone());
        }
        self.endpoints.insert(endpoint.id.clone(), endpoint);
    }

    /// Looks up an endpoint.
    pub fn endpoint(&self, id: &str) -> Option<&Endpoint> {
        self.endpoints.get(id)
    }

    /// Looks up both ends of a link; the error names the first id that is
    /// not registered.
    pub fn endpoint_pair(&self, tx: &str, rx: &str) -> Result<(&Endpoint, &Endpoint), String> {
        let get = |id: &str| {
            self.endpoints
                .get(id)
                .ok_or_else(|| format!("unknown endpoint {id:?}"))
        };
        Ok((get(tx)?, get(rx)?))
    }

    /// Moves an endpoint (user mobility); returns false if unknown.
    pub fn move_endpoint(&mut self, id: &str, position: surfos_geometry::Vec3) -> bool {
        match self.endpoints.get_mut(id) {
            Some(e) => {
                e.pose.position = position;
                true
            }
            None => false,
        }
    }

    /// Current simulation time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// The serving access point.
    ///
    /// # Panics
    /// Panics when no AP has been registered — every service needs one.
    /// Front ends that take requests use [`try_ap`](Self::try_ap).
    pub fn ap(&self) -> &Endpoint {
        self.try_ap().expect(NO_AP)
    }

    /// The serving access point, or the "no access point registered" error
    /// text front ends answer with (the same text as
    /// [`admission_error`](Self::admission_error)).
    pub fn try_ap(&self) -> Result<&Endpoint, &'static str> {
        self.ap_id
            .as_ref()
            .map(|id| &self.endpoints[id])
            .ok_or(NO_AP)
    }

    // --- Service API (paper §3.2 / Figure 6) ---------------------------

    /// `enhance_link(device, snr, latency)`.
    pub fn enhance_link(&mut self, device: &str, snr_db: f64, latency_ms: f64) -> TaskId {
        self.submit(ServiceRequest::enhance_link(device, snr_db, latency_ms))
    }

    /// `optimize_coverage(room, median_snr)`.
    pub fn optimize_coverage(&mut self, room: &str, median_snr_db: f64) -> TaskId {
        self.submit(ServiceRequest::optimize_coverage(room, median_snr_db))
    }

    /// `enable_sensing(room, duration)`.
    pub fn enable_sensing(&mut self, room: &str, duration_s: f64) -> TaskId {
        self.submit(ServiceRequest::enable_sensing(room, duration_s))
    }

    /// `init_powering(device, duration)`.
    pub fn init_powering(&mut self, device: &str, duration_s: f64) -> TaskId {
        self.submit(ServiceRequest::init_powering(device, duration_s))
    }

    /// `protect_link(room, max_leak)`.
    pub fn protect_link(&mut self, room: &str, max_leak_dbm: f64) -> TaskId {
        self.submit(ServiceRequest::protect_link(room, max_leak_dbm))
    }

    /// Why this orchestrator cannot run any task, if it cannot: no
    /// surfaces deployed, a zero-slot frame, or no access point to serve
    /// from. Front ends refuse new work on `Some` instead of queueing
    /// tasks that would never run (or that would panic the next
    /// [`schedule_frame`](Self::schedule_frame) looking for an AP).
    pub fn admission_error(&self) -> Option<&'static str> {
        if self.sim.surfaces().is_empty() {
            Some("no surfaces deployed: the resource grid is empty")
        } else if self.slots_per_frame == 0 {
            Some("scheduler frame has zero slots")
        } else if self.ap_id.is_none() {
            Some(NO_AP)
        } else {
            None
        }
    }

    /// Admits an arbitrary request.
    pub fn submit(&mut self, request: ServiceRequest) -> TaskId {
        self.tasks.admit(request, self.now_ms)
    }

    // --- Scheduling -----------------------------------------------------

    /// The geometric target(s) of a task: the subject device's position or
    /// the subject room's centre. Empty when the subject doesn't exist.
    fn task_targets(&self, task: &crate::task::Task) -> Vec<surfos_geometry::Vec3> {
        match task.request.kind {
            ServiceKind::Connectivity | ServiceKind::Powering => {
                match self.endpoints.get(&task.request.subject) {
                    Some(e) => vec![e.position()],
                    None => Vec::new(),
                }
            }
            ServiceKind::Coverage | ServiceKind::Sensing | ServiceKind::Security => {
                match self.sim.plan.room(&task.request.subject) {
                    Some(room) => vec![room.center(GRID_HEIGHT_M)],
                    None => Vec::new(),
                }
            }
        }
    }

    /// Amplitude-scale score of how well an AP can reach a target, either
    /// directly or relayed through any one deployed surface (where the
    /// surface's element count stands in for its focusing gain).
    fn ap_score(&self, ap: &Endpoint, target: surfos_geometry::Vec3) -> f64 {
        let band = &self.sim.band;
        let d_direct = ap.position().distance(target).max(0.1);
        let direct = self
            .sim
            .plan
            .transmission_amplitude(ap.position(), target, band)
            / d_direct;
        let via_surface = self
            .sim
            .surfaces()
            .iter()
            .filter(|s| surface_serves(s, ap.position(), target))
            .map(|s| {
                let c = s.pose.position;
                let d1 = ap.position().distance(c).max(0.1);
                let d2 = c.distance(target).max(0.1);
                let t1 = self.sim.plan.transmission_amplitude(ap.position(), c, band);
                let t2 = self.sim.plan.transmission_amplitude(c, target, band);
                s.len() as f64 * s.element_area_m2() * t1 * t2 / (d1 * d2)
            })
            .fold(0.0f64, f64::max);
        direct.max(via_surface)
    }

    /// The access point that serves a task best (multi-AP deployments);
    /// falls back to the default AP when the task has no resolvable
    /// target. With a single AP this is always that AP.
    pub fn serving_ap_for(&self, task: TaskId) -> &Endpoint {
        let Some(task) = self.tasks.get(task) else {
            return self.ap();
        };
        let targets = self.task_targets(task);
        let Some(target) = targets.first().copied() else {
            return self.ap();
        };
        self.endpoints
            .values()
            .filter(|e| e.kind == surfos_channel::EndpointKind::AccessPoint)
            .max_by(|a, b| {
                self.ap_score(a, target)
                    .total_cmp(&self.ap_score(b, target))
            })
            .unwrap_or_else(|| self.ap())
    }

    /// Which surfaces can serve a task, from geometry and operation modes.
    pub fn servable_surfaces(&self, task: TaskId) -> Vec<usize> {
        let ap_pos = self.serving_ap_for(task).position();
        let Some(task) = self.tasks.get(task) else {
            return Vec::new();
        };
        let targets = self.task_targets(task);
        if targets.is_empty() {
            return Vec::new();
        }
        // A surface is servable when its operation mode covers the
        // geometry AND the whole relay path (AP → surface → target) is not
        // buried in walls: the product of the two legs' transmission
        // amplitudes must stay above ~40 dB of total penetration loss.
        const MIN_RELAY_AMPLITUDE: f64 = 1e-2;
        (0..self.sim.surfaces().len())
            .filter(|&s| {
                let surf = &self.sim.surfaces()[s];
                let t_ap = self.sim.plan.transmission_amplitude(
                    ap_pos,
                    surf.pose.position,
                    &self.sim.band,
                );
                targets.iter().all(|t| {
                    surface_serves(surf, ap_pos, *t)
                        && t_ap
                            * self.sim.plan.transmission_amplitude(
                                surf.pose.position,
                                *t,
                                &self.sim.band,
                            )
                            > MIN_RELAY_AMPLITUDE
                })
            })
            .collect()
    }

    /// Builds this frame's requirements and schedules it. Granted tasks
    /// move to `Running`; rejected or unservable tasks stay `Pending`.
    pub fn schedule_frame(&mut self) -> ScheduleOutcome {
        let model = ResourceModel {
            slots_per_frame: self.slots_per_frame,
            bands: 1,
            surfaces: self.sim.surfaces().len(),
        };
        let mut requirements = Vec::new();
        let live: Vec<TaskId> = self.tasks.live_by_priority().iter().map(|t| t.id).collect();
        for id in live {
            let surfaces = self.servable_surfaces(id);
            let task = self.tasks.get(id).expect("live task");
            if surfaces.is_empty() {
                continue; // unservable right now; stays pending
            }
            // Security tasks need exclusive control (nulls are fragile);
            // everything else can share via joint optimization.
            let shareable = task.request.kind != ServiceKind::Security;
            requirements.push(Requirement {
                task: id,
                priority: task.request.priority,
                band: 0,
                surfaces,
                min_slots: 1,
                shareable,
            });
        }
        let outcome = Scheduler::schedule(&requirements, &model);
        surfos_obs::add("orchestrator.frames", 1);
        surfos_obs::add(
            "orchestrator.tasks_granted",
            (requirements.len() - outcome.rejected.len()) as u64,
        );
        surfos_obs::add("orchestrator.tasks_rejected", outcome.rejected.len() as u64);

        // State transitions.
        for r in &requirements {
            let granted = !outcome.rejected.contains(&r.task);
            let state = if granted {
                TaskState::Running
            } else {
                TaskState::Pending
            };
            let current = self.tasks.get(r.task).expect("task exists").state;
            if current != state
                && matches!(
                    current,
                    TaskState::Pending | TaskState::Running | TaskState::Idle
                )
            {
                // Running → Pending is a preemption; Pending → Running a grant.
                surfos_obs::event!(
                    "scheduler",
                    "task {:?} {current:?} -> {state:?} (frame at {} ms)",
                    r.task,
                    self.now_ms
                );
                self.tasks.set_state(r.task, state);
            }
        }
        self.slices = outcome.map.clone();
        outcome
    }

    // --- Objectives and optimization -------------------------------------

    /// Builds the differentiable objective for one task, or `None` when
    /// the subject no longer exists.
    pub fn objective_for(&self, task: TaskId) -> Option<Box<dyn Objective>> {
        let ap = self.serving_ap_for(task).clone();
        let task = self.tasks.get(task)?;
        match task.request.kind {
            ServiceKind::Connectivity => {
                let device = self.endpoints.get(&task.request.subject)?;
                Some(Box::new(CoverageObjective::new(
                    &self.sim,
                    &ap,
                    &[device.position()],
                    device,
                )))
            }
            ServiceKind::Coverage => {
                let room = self.sim.plan.room(&task.request.subject)?;
                let grid = room.sample_grid(ROOM_GRID.0, ROOM_GRID.1, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                Some(Box::new(CoverageObjective::new(
                    &self.sim, &ap, &grid, &template,
                )))
            }
            ServiceKind::Sensing => {
                let room = self.sim.plan.room(&task.request.subject)?;
                let grid = room.sample_grid(4, 4, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                let surface = *self.servable_surfaces(task.id).first()?;
                Some(Box::new(LocalizationObjective::new(
                    &self.sim,
                    surface,
                    &ap,
                    &template,
                    &grid,
                    AngleGrid::uniform(41, 1.2),
                )))
            }
            ServiceKind::Powering => {
                let device = self.endpoints.get(&task.request.subject)?;
                Some(Box::new(PoweringObjective::new(&self.sim, &ap, device)))
            }
            ServiceKind::Security => {
                let room = self.sim.plan.room(&task.request.subject)?;
                let grid = room.sample_grid(4, 4, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                let mut obj = SuppressionObjective::new(&self.sim, &ap, &grid, &template);
                if let crate::service::ServiceGoal::Suppression { max_leak_dbm } = task.request.goal
                {
                    obj = obj.with_goal(max_leak_dbm, ap.tx_power_dbm);
                }
                Some(Box::new(obj))
            }
        }
    }

    /// The tasks scheduled in `slot`, in task-id order: the order their
    /// objectives are summed in.
    fn slot_tasks(&self, slot: usize) -> Vec<TaskId> {
        let mut task_ids: Vec<TaskId> = self
            .slices
            .iter()
            .filter(|(s, _)| s.slot == slot)
            .flat_map(|(_, g)| g.tasks.iter().copied())
            .collect();
        task_ids.sort_unstable();
        task_ids.dedup();
        task_ids
    }

    /// The part of a slot's memo key that does not depend on the starting
    /// phases or the tying: the text of every record the slot's
    /// objectives and `adam` read. Tasks enter by content (kind, subject,
    /// goal), not by id, in the order their objectives are summed, since
    /// a float sum depends on its order. `Debug` prints each `f64` in its
    /// shortest round-tripping form, so two texts are equal only when
    /// every field is bit-equal (NaN payloads aside).
    fn slot_inputs(&self, tasks: &[TaskId]) -> String {
        use std::fmt::Write;
        let sim = &self.sim;
        let mut text = format!(
            "{:?} {:?} {} {} {} {:?}",
            sim.epochs(),
            sim.band,
            sim.enable_wall_reflections,
            sim.enable_cascades,
            sim.plan.walls().len(),
            self.adam_options,
        );
        for surface in sim.surfaces() {
            let _ = write!(text, " {:?}", surface.id);
        }
        for &id in tasks {
            let Some(task) = self.tasks.get(id) else {
                continue;
            };
            let r = &task.request;
            let _ = write!(
                text,
                "\n{:?} {:?} {:?} ap={:?} ",
                r.kind,
                r.subject,
                r.goal,
                self.serving_ap_for(id)
            );
            let _ = match r.kind {
                ServiceKind::Connectivity | ServiceKind::Powering => {
                    write!(text, "{:?}", self.endpoints.get(&r.subject))
                }
                ServiceKind::Coverage | ServiceKind::Sensing | ServiceKind::Security => {
                    write!(text, "{:?}", sim.plan.room(&r.subject))
                }
            };
        }
        text
    }

    /// The slot's memo key: everything `adam` reads for it.
    fn slot_key(&self, tasks: &[TaskId]) -> SlotKey {
        SlotKey {
            inputs: self.slot_inputs(tasks),
            tying: self.tying.clone(),
            start: self
                .sim
                .surfaces()
                .iter()
                .flat_map(|s| s.response())
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect(),
        }
    }

    /// Jointly optimizes the configuration for all tasks scheduled in a
    /// time slot and applies it to the simulator's surfaces. Returns the
    /// achieved loss, or `None` when the slot is empty.
    ///
    /// The slot's last optimization is memoized on its exact inputs: when
    /// none of them changed, its phases are re-applied and its loss
    /// returned without building the objectives or running Adam
    /// (`orchestrator.slots_skipped`). Adam is deterministic, so a hit
    /// returns the bits a re-run would.
    pub fn optimize_slot(&mut self, slot: usize) -> Option<f64> {
        let _span = surfos_obs::span!("orchestrator.optimize_slot");
        let latency_t0 = surfos_obs::enabled().then(std::time::Instant::now);
        let task_ids = self.slot_tasks(slot);
        if task_ids.is_empty() {
            return None;
        }

        let key = self.slot_key(&task_ids);
        let memo = match self.memo.remove(&slot).filter(|m| m.key == key) {
            Some(hit) => {
                surfos_obs::add("orchestrator.slots_skipped", 1);
                hit
            }
            None => {
                let mut multi = MultiObjective::new();
                for id in &task_ids {
                    if let Some(obj) = self.objective_for(*id) {
                        multi = multi.with(obj, 1.0);
                    }
                }
                if multi.is_empty() {
                    return None;
                }

                let initial: Vec<Vec<f64>> = self
                    .sim
                    .surfaces()
                    .iter()
                    .map(|s| s.response().iter().map(|r| r.arg()).collect())
                    .collect();
                let result = adam(&multi, &initial, &self.tying, self.adam_options);
                SlotMemo {
                    key,
                    phases: result.phases,
                    loss: result.loss,
                }
            }
        };
        for (s, phases) in memo.phases.iter().enumerate() {
            self.sim.set_surface_phases(s, phases);
        }
        let loss = memo.loss;
        self.memo.insert(slot, memo);
        surfos_obs::gauge("orchestrator.slot.loss", loss);
        if let Some(t0) = latency_t0 {
            // Per-service-class latency: label by the slot's service kind
            // (or "mixed" for shared slots) so the HDR timer exposes e.g.
            // orchestrator.optimize.latency_ns{service=Coverage} p99.
            let mut kinds: Vec<&'static str> = task_ids
                .iter()
                .filter_map(|id| self.tasks.get(*id))
                .map(|t| kind_name(t.request.kind))
                .collect();
            kinds.sort_unstable();
            kinds.dedup();
            let label = if kinds.len() == 1 { kinds[0] } else { "mixed" };
            let _svc = surfos_obs::scoped(&[("service", label)]);
            surfos_obs::observe_ns(
                "orchestrator.optimize.latency_ns",
                t0.elapsed().as_nanos() as u64,
            );
        }
        Some(loss)
    }

    /// Advances time: reaps expired tasks and releases their slices.
    /// Returns the ids of tasks completed by expiry.
    pub fn tick(&mut self, dt_ms: u64) -> Vec<TaskId> {
        self.now_ms += dt_ms;
        let reaped = self.tasks.reap_expired(self.now_ms);
        for id in &reaped {
            self.slices.release_task(*id);
        }
        reaped
    }

    /// Marks a task idle, releasing its slices for reuse (the paper's
    /// "setting a task idle when not used and releasing resources").
    pub fn set_idle(&mut self, task: TaskId) {
        self.tasks.set_state(task, TaskState::Idle);
        self.slices.release_task(task);
    }

    /// Retires a task its client released: a running task goes idle first
    /// (freeing its slices) and completes, an idle one completes, a
    /// pending one fails. Finished or unknown tasks are left alone.
    pub fn retire(&mut self, task: TaskId) {
        match self.tasks.get(task).map(|t| t.state) {
            Some(TaskState::Running) => {
                self.set_idle(task);
                self.tasks.set_state(task, TaskState::Completed);
            }
            Some(TaskState::Idle) => self.tasks.set_state(task, TaskState::Completed),
            Some(TaskState::Pending) => self.tasks.set_state(task, TaskState::Failed),
            _ => {}
        }
    }

    /// Measured service metric for a task with the current configuration.
    pub fn measure(&mut self, task: TaskId) -> Option<f64> {
        let _span = surfos_obs::span!("orchestrator.measure");
        let ap = self.serving_ap_for(task).clone();
        let t = self.tasks.get(task)?;
        let metric = match t.request.kind {
            ServiceKind::Connectivity => {
                let device = self.endpoints.get(&t.request.subject)?;
                self.sim.link_budget(&ap, device).snr_db
            }
            ServiceKind::Powering => {
                // Delivered RF power at the device, dBm.
                let device = self.endpoints.get(&t.request.subject)?;
                self.sim.rss_dbm(&ap, device)
            }
            ServiceKind::Coverage => {
                let room = self.sim.plan.room(&t.request.subject)?;
                let grid = room.sample_grid(ROOM_GRID.0, ROOM_GRID.1, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                self.sim.snr_heatmap(&ap, &grid, &template).median()
            }
            ServiceKind::Security => {
                // Worst (highest) leaked RSS into the protected region,
                // dBm — lower is better.
                let room = self.sim.plan.room(&t.request.subject)?;
                let grid = room.sample_grid(ROOM_GRID.0, ROOM_GRID.1, GRID_HEIGHT_M, GRID_MARGIN_M);
                let template = Endpoint::client("probe", grid[0]);
                self.sim.rss_heatmap(&ap, &grid, &template).max()
            }
            ServiceKind::Sensing => {
                let obj = self.objective_for(task)?;
                let responses: Vec<Vec<surfos_em::complex::Complex>> = self
                    .sim
                    .surfaces()
                    .iter()
                    .map(|s| s.response().to_vec())
                    .collect();
                obj.loss(&responses)
            }
        };
        self.tasks.get_mut(task)?.last_metric = Some(metric);
        Some(metric)
    }
}

/// Exactly what `adam` read for one slot: a hit on an equal key returns
/// the bits a re-run would.
#[derive(Debug, PartialEq, Eq)]
struct SlotKey {
    /// [`Orchestrator::slot_inputs`].
    inputs: String,
    /// The granularity tying Adam optimized under.
    tying: Tying,
    /// Bit patterns of the starting responses, every surface in order.
    start: Vec<u64>,
}

/// One slot's last optimization: its key, and Adam's phases and loss.
#[derive(Debug)]
struct SlotMemo {
    key: SlotKey,
    phases: Vec<Vec<f64>>,
    loss: f64,
}

/// Static label value for a service kind — bounded, never formatted on the
/// hot path (see `surfos_obs::scoped`).
fn kind_name(kind: ServiceKind) -> &'static str {
    match kind {
        ServiceKind::Connectivity => "Connectivity",
        ServiceKind::Coverage => "Coverage",
        ServiceKind::Sensing => "Sensing",
        ServiceKind::Powering => "Powering",
        ServiceKind::Security => "Security",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_channel::{OperationMode, SurfaceInstance};
    use surfos_em::array::ArrayGeometry;
    use surfos_em::band::NamedBand;
    use surfos_geometry::scenario::two_room_apartment;
    use surfos_geometry::{Pose, Vec3};

    fn build() -> Orchestrator {
        let scen = two_room_apartment();
        let band = NamedBand::MmWave28GHz.band();
        let mut sim = ChannelSim::new(scen.plan.clone(), band);
        let pose = *scen.anchor("bedroom-north").unwrap();
        let geom = ArrayGeometry::half_wavelength(16, 16, band.wavelength_m());
        sim.add_surface(SurfaceInstance::new(
            "prog0",
            pose,
            geom,
            OperationMode::Reflective,
        ));
        let mut orch = Orchestrator::new(sim);
        // AP aimed at the surface.
        let ap = Endpoint::access_point(
            "ap0",
            Pose::wall_mounted(scen.ap_pose.position, pose.position - scen.ap_pose.position),
        );
        orch.add_endpoint(ap);
        orch.add_endpoint(Endpoint::client("laptop", Vec3::new(6.5, 1.5, 1.2)));
        orch.adam_options.iters = 60;
        orch
    }

    /// Every surface's current response.
    fn responses(o: &Orchestrator) -> Vec<Vec<surfos_em::complex::Complex>> {
        o.sim
            .surfaces()
            .iter()
            .map(|s| s.response().to_vec())
            .collect()
    }

    /// Puts every surface back to `start`.
    fn restore(o: &mut Orchestrator, start: &[Vec<surfos_em::complex::Complex>]) {
        for (s, r) in start.iter().enumerate() {
            o.sim.set_surface_response(s, r.clone());
        }
    }

    /// Bit patterns of every surface's current response.
    fn surface_bits(o: &Orchestrator) -> Vec<u64> {
        responses(o)
            .iter()
            .flatten()
            .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
            .collect()
    }

    /// Whether the memo answers `slot` from the orchestrator's state now.
    fn hits(o: &Orchestrator, slot: usize) -> bool {
        let tasks = o.slot_tasks(slot);
        o.memo
            .get(&slot)
            .is_some_and(|m| m.key == o.slot_key(&tasks))
    }

    /// One heartbeat's optimization over every slot. Returns whether the
    /// memo answered every occupied slot, and each configured slot's
    /// (slot, loss bits, phase bits, surface response bits after it).
    #[allow(clippy::type_complexity)]
    fn heartbeat(o: &mut Orchestrator) -> (bool, Vec<(usize, u64, Vec<u64>, Vec<u64>)>) {
        let mut settled = true;
        let mut configured = Vec::new();
        for slot in 0..o.slots_per_frame {
            let hit = hits(o, slot);
            let Some(loss) = o.optimize_slot(slot) else {
                continue;
            };
            settled &= hit;
            let phases = o.memo[&slot]
                .phases
                .iter()
                .flatten()
                .map(|p| p.to_bits())
                .collect();
            configured.push((slot, loss.to_bits(), phases, surface_bits(o)));
        }
        (settled, configured)
    }

    #[test]
    fn memo_hit_is_bit_identical_to_a_rerun() {
        let mut o = build();
        o.optimize_coverage("bedroom", 25.0);
        o.enhance_link("laptop", 20.0, 50.0);
        o.schedule_frame();
        let start = responses(&o);

        let (settled, first) = heartbeat(&mut o);
        assert!(!settled, "an empty memo cannot settle a heartbeat");
        assert_eq!(first.len(), 1, "both shareable tasks share one slot");

        restore(&mut o, &start);
        let (settled, hit) = heartbeat(&mut o);
        assert!(settled, "same inputs, same start: the memo answers");

        restore(&mut o, &start);
        o.memo.clear();
        let (settled, rerun) = heartbeat(&mut o);
        assert!(!settled);
        assert_eq!(hit, rerun, "a hit returns exactly what Adam returns");
        assert_eq!(first, rerun);
    }

    #[test]
    fn memo_two_slots_each_reapply_their_own_phases() {
        let mut o = build();
        o.optimize_coverage("bedroom", 25.0);
        o.protect_link("bedroom", -60.0); // exclusive: a slot of its own
        o.schedule_frame();
        let start = responses(&o);

        let (_, first) = heartbeat(&mut o);
        assert_eq!(first.len(), 2, "two occupied slots");
        assert_ne!(first[0].0, first[1].0);
        assert_ne!(first[0].2, first[1].2, "the slots optimize different goals");

        restore(&mut o, &start);
        let (settled, hit) = heartbeat(&mut o);
        assert!(
            settled,
            "the second slot starts where the first one's hit left it"
        );
        assert_eq!(hit, first);
        for (_, _, phases, after) in &hit {
            // Each slot programs its own phases.
            let programmed: Vec<u64> = phases
                .iter()
                .flat_map(|&p| {
                    let c = surfos_em::complex::Complex::cis(f64::from_bits(p));
                    [c.re.to_bits(), c.im.to_bits()]
                })
                .collect();
            assert_eq!(&programmed, after);
        }

        restore(&mut o, &start);
        o.memo.clear();
        let (_, rerun) = heartbeat(&mut o);
        assert_eq!(hit, rerun);
    }

    #[test]
    fn memo_misses_on_each_key_input() {
        type Change = fn(&mut Orchestrator, TaskId);
        let changes: [(&str, Change); 5] = [
            ("nothing", |_, _| {}),
            ("a moved subject", |o, _| {
                o.move_endpoint("laptop", Vec3::new(6.6, 1.5, 1.2));
            }),
            ("a new blocker epoch", |o, _| o.sim.set_blockers(Vec::new())),
            ("a changed goal", |o, t| {
                o.tasks.get_mut(t).unwrap().request.goal =
                    crate::service::ServiceGoal::LinkQuality {
                        min_snr_db: 21.0,
                        max_latency_ms: 50.0,
                    }
            }),
            ("a changed band", |o, _| {
                o.sim.band = surfos_em::band::Band::new(28.5e9, 400e6)
            }),
        ];
        for (what, change) in changes {
            let mut o = build();
            o.adam_options.iters = 5;
            let t = o.enhance_link("laptop", 20.0, 50.0);
            o.schedule_frame();
            let start = responses(&o);
            heartbeat(&mut o);
            restore(&mut o, &start);
            change(&mut o, t);
            let slot = (0..o.slots_per_frame)
                .find(|&s| !o.slot_tasks(s).is_empty())
                .expect("an occupied slot");
            assert_eq!(hits(&o, slot), what == "nothing", "after {what}");
        }
    }

    #[test]
    fn service_calls_admit_tasks() {
        let mut o = build();
        let a = o.optimize_coverage("bedroom", 25.0);
        let b = o.enhance_link("laptop", 20.0, 50.0);
        assert_ne!(a, b);
        assert_eq!(o.tasks.all().len(), 2);
        assert_eq!(o.tasks.get(a).unwrap().state, TaskState::Pending);
    }

    #[test]
    fn servable_surfaces_from_geometry() {
        let mut o = build();
        let t = o.optimize_coverage("bedroom", 25.0);
        assert_eq!(o.servable_surfaces(t), vec![0]);
        // A room that doesn't exist is unservable.
        let t2 = o.optimize_coverage("garage", 25.0);
        assert!(o.servable_surfaces(t2).is_empty());
    }

    #[test]
    fn schedule_grants_and_runs() {
        let mut o = build();
        let t = o.optimize_coverage("bedroom", 25.0);
        let out = o.schedule_frame();
        assert!(out.rejected.is_empty());
        assert_eq!(o.tasks.get(t).unwrap().state, TaskState::Running);
        assert!(!o.slices.slices_of(t).is_empty());
    }

    #[test]
    fn optimizing_coverage_slot_improves_room_snr() {
        let mut o = build();
        let t = o.optimize_coverage("bedroom", 25.0);
        o.schedule_frame();
        let before = o.measure(t).unwrap();
        let slot = o.slices.slices_of(t)[0].slot;
        let loss = o.optimize_slot(slot).expect("slot occupied");
        assert!(loss.is_finite());
        let after = o.measure(t).unwrap();
        assert!(
            after > before + 10.0,
            "optimization should add >10 dB median SNR: before={before:.1} after={after:.1}"
        );
    }

    #[test]
    fn joint_slot_shares_surface_between_tasks() {
        let mut o = build();
        let cov = o.optimize_coverage("bedroom", 25.0);
        let sense = o.enable_sensing("bedroom", 600.0);
        let out = o.schedule_frame();
        assert!(out.rejected.is_empty());
        // Both shareable tasks land on slot 0 of surface 0 together.
        let s_cov = o.slices.slices_of(cov);
        let s_sense = o.slices.slices_of(sense);
        assert!(s_cov.iter().any(|s| s_sense.contains(s)));
        let slot = s_cov[0].slot;
        assert!(o.optimize_slot(slot).is_some());
    }

    #[test]
    fn expiry_releases_slices() {
        let mut o = build();
        let t = o.enable_sensing("bedroom", 1.0); // 1 second
        o.schedule_frame();
        assert!(!o.slices.slices_of(t).is_empty());
        let reaped = o.tick(1500);
        assert_eq!(reaped, vec![t]);
        assert!(o.slices.slices_of(t).is_empty());
        assert_eq!(o.tasks.get(t).unwrap().state, TaskState::Completed);
    }

    #[test]
    fn idle_releases_but_keeps_task() {
        let mut o = build();
        let t = o.optimize_coverage("bedroom", 25.0);
        o.schedule_frame();
        o.set_idle(t);
        assert!(o.slices.slices_of(t).is_empty());
        assert_eq!(o.tasks.get(t).unwrap().state, TaskState::Idle);
        // Next frame it can be scheduled again.
        let out = o.schedule_frame();
        assert!(out.rejected.is_empty());
        assert_eq!(o.tasks.get(t).unwrap().state, TaskState::Running);
    }

    #[test]
    fn retire_follows_the_release_discipline_in_every_state() {
        let mut o = build();
        let running = o.optimize_coverage("bedroom", 25.0);
        let idle = o.enable_sensing("bedroom", 600.0);
        o.schedule_frame();
        o.set_idle(idle);
        let pending = o.optimize_coverage("bedroom", 20.0);
        assert!(!o.slices.slices_of(running).is_empty());

        o.retire(running);
        assert_eq!(o.tasks.get(running).unwrap().state, TaskState::Completed);
        assert!(o.slices.slices_of(running).is_empty(), "slices freed");
        o.retire(idle);
        assert_eq!(o.tasks.get(idle).unwrap().state, TaskState::Completed);
        o.retire(pending);
        assert_eq!(o.tasks.get(pending).unwrap().state, TaskState::Failed);

        // Completed and Failed are terminal: retiring again changes nothing,
        // and an unknown id is a no-op.
        o.retire(running);
        o.retire(pending);
        o.retire(999);
        assert_eq!(o.tasks.get(running).unwrap().state, TaskState::Completed);
        assert_eq!(o.tasks.get(pending).unwrap().state, TaskState::Failed);
    }

    #[test]
    fn admission_needs_a_surface_slots_and_an_access_point() {
        let scen = two_room_apartment();
        let bare = ChannelSim::new(scen.plan.clone(), NamedBand::MmWave28GHz.band());
        let mut o = Orchestrator::new(bare);
        o.add_endpoint(Endpoint::access_point("ap0", scen.ap_pose));
        assert_eq!(
            o.admission_error(),
            Some("no surfaces deployed: the resource grid is empty")
        );

        let mut o = build();
        assert_eq!(o.admission_error(), None);
        o.slots_per_frame = 0;
        assert_eq!(o.admission_error(), Some("scheduler frame has zero slots"));

        // Same surface, no endpoints at all.
        let o = Orchestrator::new(build().sim);
        assert_eq!(o.admission_error(), Some("no access point registered"));
    }

    #[test]
    fn endpoint_pair_names_the_missing_id() {
        let o = build();
        let (tx, rx) = o.endpoint_pair("ap0", "laptop").unwrap();
        assert_eq!((tx.id.as_str(), rx.id.as_str()), ("ap0", "laptop"));
        assert_eq!(
            o.endpoint_pair("ghost", "laptop").unwrap_err(),
            "unknown endpoint \"ghost\""
        );
        assert_eq!(
            o.endpoint_pair("ap0", "ghost").unwrap_err(),
            "unknown endpoint \"ghost\""
        );
    }

    #[test]
    fn multi_ap_serving_selection() {
        let mut o = build();
        // A second AP inside the bedroom, near the client.
        o.add_endpoint(Endpoint::access_point(
            "ap-bedroom",
            Pose::wall_mounted(Vec3::new(8.7, 2.0, 2.2), Vec3::new(-1.0, 0.0, 0.0)),
        ));
        // The default AP is still the first one registered.
        assert_eq!(o.ap().id, "ap0");

        // A bedroom link should be served by the bedroom AP (direct LOS
        // beats relaying through the doorway surface).
        let t = o.enhance_link("laptop", 20.0, 50.0);
        assert_eq!(o.serving_ap_for(t).id, "ap-bedroom");

        // A living-room client is served by the living-room AP.
        o.add_endpoint(Endpoint::client("desktop", Vec3::new(2.0, 1.5, 1.0)));
        let t2 = o.enhance_link("desktop", 20.0, 50.0);
        assert_eq!(o.serving_ap_for(t2).id, "ap0");

        // Unknown subjects fall back to the default AP.
        let t3 = o.enhance_link("ghost", 20.0, 50.0);
        assert_eq!(o.serving_ap_for(t3).id, "ap0");
    }

    #[test]
    fn measure_uses_serving_ap() {
        let mut o = build();
        o.add_endpoint(Endpoint::access_point(
            "ap-bedroom",
            Pose::wall_mounted(Vec3::new(8.7, 2.0, 2.2), Vec3::new(-1.0, 0.0, 0.0)),
        ));
        let t = o.enhance_link("laptop", 20.0, 50.0);
        // Direct bedroom AP → laptop link is strong without any surface.
        let snr = o.measure(t).unwrap();
        assert!(snr > 20.0, "bedroom AP should serve directly: {snr:.1}");
    }

    #[test]
    fn endpoint_mobility() {
        let mut o = build();
        assert!(o.move_endpoint("laptop", Vec3::new(7.0, 2.0, 1.2)));
        assert_eq!(
            o.endpoint("laptop").unwrap().position(),
            Vec3::new(7.0, 2.0, 1.2)
        );
        assert!(!o.move_endpoint("ghost", Vec3::ZERO));
    }

    #[test]
    #[should_panic(expected = "duplicate endpoint id")]
    fn duplicate_endpoint_rejected() {
        let mut o = build();
        o.add_endpoint(Endpoint::client("laptop", Vec3::ZERO));
    }
}
