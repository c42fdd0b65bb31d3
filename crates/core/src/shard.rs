//! The sharded kernel: one `SurfOS` instance per campus zone, run
//! concurrently in bulk-synchronous supersteps.
//!
//! The paper targets *dense, building-wide* deployments; a campus of
//! metal-shelled buildings is the natural scale-out unit because RF makes
//! it one: a bounce or relay path that enters one building and leaves
//! another crosses at least two metal shells (≥ 180 dB), which the channel
//! layer's uniform `TRANSMISSION_FLOOR` gate rounds to *exactly* zero.
//! Zones separated by such shells are therefore not approximately
//! independent but bit-exactly independent — a per-zone kernel computes
//! the same numbers the flat whole-campus kernel would, while touching a
//! fraction of the walls (see DESIGN §11 for the full argument).
//!
//! [`ShardedKernel`] owns one [`KernelShard`] per [`Zone`]. Each shard has
//! its own scene index, linearization cache, scheduler state and
//! orchestrator; shards never share a lock on the hot path. The coordinator
//! is the only owner of cross-zone state:
//!
//! - **Walkers**: the coordinator is the only place blocker motion is
//!   replayed; a flat deployment with walkers is a 1-zone kernel
//!   ([`Zone::all`]). Every [`BlockerWalk`] is kept with the zone that owns
//!   it. Each tick the coordinator moves every walker to the new global
//!   time, routes it to the zone containing it (a changed zone is a
//!   handoff) and gathers each shard's crowd in walker-id order. Positions
//!   are pure functions of global time, so a handoff moves ownership, never
//!   state — replay is bit-identical at any shard count.
//! - **The crowd rule**: a shard's blockers are replaced only when its new
//!   crowd differs from the blockers its simulator already holds. An equal
//!   crowd is an equal input, so skipping it changes no bit; re-setting it
//!   would bump the simulator's blocker epoch, which keys both the
//!   linearization cache and the heartbeat's slot memo. With the rule, a
//!   shard no walker is in keeps its epoch, its links hit the cache and its
//!   settled heartbeats hit the memo instead of re-running Adam.
//! - **Campus services**: a service spanning several zones submits one
//!   task to each zone's kernel; after each step the coordinator
//!   reconciles grants all-or-nothing and retires every part of a partial
//!   grant.
//!
//! Admission is not a cross-shard concern: each part of a campus service
//! is checked by its own shard's orchestrator
//! ([`Orchestrator::admission_error`](surfos_orchestrator::Orchestrator::admission_error)),
//! the same rule the daemon and the shell apply to a flat kernel.
//!
//! Determinism: a tick is one superstep — routing on the coordinator, then
//! one fan-out of the shards over the process-wide worker pool
//! ([`surfos_channel::par`]), which returns only after every shard has
//! finished, then reconciliation on the coordinator in service-id order.
//! Shards touch only their own state during the fan-out, so the outcome is
//! independent of thread count and identical to serial execution. The pool
//! is parked threads started once per process, so a tick pays a wake-up,
//! not a thread spawn; a tick issued while the pool is busy (another
//! kernel's fan-out) runs its shards inline, same bits. `SURFOS_THREADS=1`
//! (read once per process) pins the pool for CI.

use std::sync::Arc;

use crate::kernel::{StepReport, SurfOS};
use crate::telemetry::Telemetry;
use surfos_channel::dynamics::{Blocker, BlockerWalk};
use surfos_channel::{par, CacheStats, ChannelSim, Endpoint, Linearization, SurfaceInstance};
use surfos_em::band::Band;
use surfos_geometry::{FloorPlan, Pose, Room, Vec3, Wall};
use surfos_hw::SurfaceDriver;
use surfos_orchestrator::task::{TaskId, TaskState};
use surfos_orchestrator::ServiceRequest;

/// A half-open plan-view rectangle `[x0, x1) × [y0, y1)` owning one shard.
///
/// Zones must tile the plane (adjacent zones share a boundary line; the
/// outermost cells extend to ±∞) so every walker position has exactly one
/// owner. The half-open convention makes boundary points unambiguous.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zone {
    /// West edge (inclusive).
    pub x0: f64,
    /// South edge (inclusive).
    pub y0: f64,
    /// East edge (exclusive).
    pub x1: f64,
    /// North edge (exclusive).
    pub y1: f64,
}

impl Zone {
    /// A zone from its edges.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        Zone { x0, y0, x1, y1 }
    }

    /// The zone covering the whole plane — a 1-zone sharding is the flat
    /// kernel.
    pub fn all() -> Self {
        Zone::new(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        )
    }

    /// Whether the zone owns plan-view point `p` (half-open on the
    /// east/north edges).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.x0 && p.x < self.x1 && p.y >= self.y0 && p.y < self.y1
    }

    /// Squared plan-view distance from `p` to the zone rectangle (0 when
    /// inside) — the deterministic tie-breaker for points no zone
    /// contains.
    fn distance_sq(&self, p: Vec3) -> f64 {
        let dx = (self.x0 - p.x).max(p.x - self.x1).max(0.0);
        let dy = (self.y0 - p.y).max(p.y - self.y1).max(0.0);
        dx * dx + dy * dy
    }
}

/// The zone index owning `p`: the first zone containing it, else the
/// nearest by clamped distance (first minimum — deterministic).
fn route(zones: &[Zone], p: Vec3) -> usize {
    if let Some(i) = zones.iter().position(|z| z.contains(p)) {
        return i;
    }
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, z) in zones.iter().enumerate() {
        let d = z.distance_sq(p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Lifecycle of a multi-zone campus service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceStatus {
    /// Registered; grants not yet reconciled.
    Pending,
    /// Every zone's part is running.
    Granted,
    /// Admission failed (unknown zone, precheck or partial grant); all
    /// parts released.
    Rejected,
}

/// A campus service; its id is its index in [`ShardedKernel::services`].
#[derive(Debug)]
struct CampusService {
    /// Each part's shard and its task there (empty when rejected at
    /// submission).
    parts: Vec<(usize, TaskId)>,
    status: ServiceStatus,
}

/// One zone's kernel and the links it evaluates.
pub struct KernelShard {
    index: usize,
    kernel: SurfOS,
    /// Links this shard evaluates each replay tick, in registration order.
    links: Vec<(Endpoint, Endpoint)>,
    /// Last replay outputs, one per local link.
    lins: Vec<Arc<Linearization>>,
}

impl KernelShard {
    /// The shard's kernel (scheduler state, telemetry, simulator).
    pub fn kernel(&self) -> &SurfOS {
        &self.kernel
    }

    /// Evaluate every local link through the shard's linearization cache
    /// (hit / refresh / miss, exactly as the flat kernel would).
    fn eval_links(&mut self) {
        let sim = self.kernel.sim();
        self.lins = self
            .links
            .iter()
            .map(|(tx, rx)| sim.cached_linearization(tx, rx))
            .collect();
    }

    /// Freshly trace and linearize every local link (no cache).
    fn linearize_links(&self) -> Vec<Linearization> {
        let sim = self.kernel.sim();
        let pairs: Vec<(&Endpoint, &Endpoint)> =
            self.links.iter().map(|(tx, rx)| (tx, rx)).collect();
        sim.linearize_batch(&pairs)
    }
}

/// What one campus heartbeat did, across all shards.
#[derive(Debug, Default)]
pub struct CampusStepReport {
    /// Each shard's own step report, in shard order.
    pub per_shard: Vec<StepReport>,
    /// Campus services whose parts all ran this frame (newly granted).
    pub granted: Vec<u64>,
    /// Campus services rejected this frame (partial grants released).
    pub rejected: Vec<u64>,
    /// Walker handoffs that crossed a zone boundary this step.
    pub handoffs: u64,
}

/// A kernel-per-zone decomposition of one campus.
///
/// Construction partitions a flat [`FloorPlan`] by zone (global wall and
/// room order preserved within each shard; a wall straddling a boundary is
/// a construction bug and panics). Surfaces, endpoints, links, walks and
/// services route to the zone containing them; cross-zone links are
/// rejected — the geometry that justifies sharding also makes them dark.
pub struct ShardedKernel {
    shards: Vec<KernelShard>,
    zones: Vec<Zone>,
    band: Band,
    now_ms: u64,
    /// Chunk-count override for the shard fan-out (tests pin this;
    /// `None` → `SURFOS_THREADS` / hardware via
    /// [`par::configured_threads`]).
    threads: Option<usize>,
    /// Global link id → (shard, local index).
    links: Vec<(usize, usize)>,
    /// Global surface id → (shard, local index).
    surfaces: Vec<(usize, usize)>,
    /// Per shard: local surface index → global surface id.
    surface_globals: Vec<Vec<usize>>,
    /// Walker id → (trajectory, owning zone at the last tick).
    walkers: Vec<(BlockerWalk, usize)>,
    /// Lifetime count of walker handoffs.
    handoffs: u64,
    /// Service id → campus service.
    services: Vec<CampusService>,
}

impl ShardedKernel {
    /// Partitions `plan` into per-zone kernels.
    ///
    /// # Panics
    /// Panics when `zones` is empty or a wall's endpoints route to
    /// different zones (the plan was not cut along zone boundaries).
    pub fn new(plan: &FloorPlan, band: Band, zones: Vec<Zone>) -> Self {
        assert!(!zones.is_empty(), "at least one zone required");
        let n = zones.len();
        let mut local_plans: Vec<FloorPlan> = (0..n).map(|_| FloorPlan::new()).collect();
        for wall in plan.walls() {
            let owner = route(&zones, wall.a);
            assert_eq!(
                owner,
                route(&zones, wall.b),
                "wall straddles a zone boundary: {:?} -> {:?}",
                wall.a,
                wall.b
            );
            local_plans[owner].add_wall(Wall::new(wall.a, wall.b, wall.height, wall.material));
        }
        for room in plan.rooms() {
            let center = (room.min + room.max) * 0.5;
            local_plans[route(&zones, center)].add_room(Room::new(
                room.name.clone(),
                room.min,
                room.max,
            ));
        }
        let shards = local_plans
            .into_iter()
            .enumerate()
            .map(|(index, plan)| KernelShard {
                index,
                kernel: SurfOS::new(ChannelSim::new(plan, band)),
                links: Vec::new(),
                lins: Vec::new(),
            })
            .collect();

        ShardedKernel {
            shards,
            zones,
            band,
            now_ms: 0,
            threads: None,
            links: Vec::new(),
            surfaces: Vec::new(),
            surface_globals: vec![Vec::new(); n],
            walkers: Vec::new(),
            handoffs: 0,
            services: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning plan-view point `p`.
    pub fn zone_of(&self, p: Vec3) -> usize {
        route(&self.zones, p)
    }

    /// One shard, for inspection.
    pub fn shard(&self, index: usize) -> &KernelShard {
        &self.shards[index]
    }

    /// The operating band.
    pub fn band(&self) -> Band {
        self.band
    }

    /// Campus time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Pins how many chunks each superstep's shards split into (`Some(1)`
    /// forces serial supersteps); `None` restores the `SURFOS_THREADS` /
    /// hardware default. The chunks run on the shared pool, so more
    /// chunks than pool threads just queue. Thread count never changes
    /// results, only wall-clock.
    pub fn set_worker_threads(&mut self, threads: Option<usize>) {
        self.threads = threads;
    }

    fn worker_count(&self) -> usize {
        self.threads
            .unwrap_or_else(par::configured_threads)
            .min(self.shards.len())
    }

    /// Adds a bare surface instance to the zone containing its pose and
    /// returns its campus-wide index, with the same orchestrator wiring
    /// as the flat kernel (one tying group slot per surface).
    pub fn add_surface(&mut self, surface: SurfaceInstance) -> usize {
        let shard = route(&self.zones, surface.pose.position);
        let orch = self.shards[shard].kernel.orchestrator_mut();
        let local = orch.sim.add_surface(surface);
        orch.tying.groups.push(None);
        let global = self.surfaces.len();
        self.surfaces.push((shard, local));
        self.surface_globals[shard].push(global);
        global
    }

    /// Deploys a driver-backed surface into the zone containing `pose`
    /// (full driver path: wire encoding, control delays, quantization).
    /// Returns the campus-wide surface index.
    pub fn deploy_surface(
        &mut self,
        id: impl Into<String>,
        driver: Box<dyn SurfaceDriver>,
        pose: Pose,
    ) -> usize {
        let shard = route(&self.zones, pose.position);
        let local = self.shards[shard].kernel.deploy_surface(id, driver, pose);
        let global = self.surfaces.len();
        self.surfaces.push((shard, local));
        self.surface_globals[shard].push(global);
        global
    }

    /// Registers an endpoint in the zone containing it; returns the shard
    /// index.
    pub fn add_endpoint(&mut self, endpoint: Endpoint) -> usize {
        let shard = route(&self.zones, endpoint.position());
        self.shards[shard].kernel.add_endpoint(endpoint);
        shard
    }

    /// Registers a link the campus evaluates every replay tick. Both
    /// endpoints must live in the same zone: with zones cut along metal
    /// shells, a cross-zone link is below the channel floor by
    /// construction, so asking for one is a deployment error.
    pub fn add_link(&mut self, tx: Endpoint, rx: Endpoint) -> Result<u64, String> {
        let zt = route(&self.zones, tx.position());
        let zr = route(&self.zones, rx.position());
        if zt != zr {
            return Err(format!(
                "link {}→{} spans zones {zt} and {zr}: cross-zone links are RF-dark",
                tx.id, rx.id
            ));
        }
        // One endpoint may serve several links (an AP with many clients)
        // or be registered already by `add_endpoint`; register each id
        // with the shard kernel once.
        let shard = &mut self.shards[zt];
        for ep in [&tx, &rx] {
            if shard.kernel.orchestrator().endpoint(&ep.id).is_none() {
                shard.kernel.add_endpoint(ep.clone());
            }
        }
        let id = self.links.len() as u64;
        self.links.push((zt, shard.links.len()));
        shard.links.push((tx, rx));
        Ok(id)
    }

    /// Attaches a scripted walker; its owner is the zone containing its
    /// current position, re-routed every tick. Returns the campus-wide
    /// walker id.
    pub fn attach_walk(&mut self, walk: BlockerWalk) -> u64 {
        let t_s = self.now_ms as f64 / 1000.0;
        let zone = route(&self.zones, walk.position_at(t_s));
        self.walkers.push((walk, zone));
        self.walkers.len() as u64 - 1
    }

    /// Submits a campus service: one request per zone it spans. Each
    /// part's shard runs the orchestrator's admission check; a part naming
    /// no shard, or a shard with no surface, no slots or no access point,
    /// rejects the whole service immediately. Otherwise every part enters
    /// its shard's task table now and the grants are reconciled
    /// all-or-nothing after each step. Returns the campus-wide service id.
    pub fn submit_service(&mut self, parts: Vec<(usize, ServiceRequest)>) -> u64 {
        let id = self.services.len() as u64;
        let feasible = !parts.is_empty()
            && parts.iter().all(|(z, _)| {
                self.shards
                    .get(*z)
                    .is_some_and(|s| s.kernel.orchestrator().admission_error().is_none())
            });
        let (parts, status) = if feasible {
            let parts = parts
                .into_iter()
                .map(|(z, request)| {
                    let _obs = surfos_obs::scoped(&[("shard", z)]);
                    (z, self.shards[z].kernel.submit(request))
                })
                .collect();
            (parts, ServiceStatus::Pending)
        } else {
            surfos_obs::add("kernel.shard.rejects", 1);
            (Vec::new(), ServiceStatus::Rejected)
        };
        self.services.push(CampusService { parts, status });
        id
    }

    /// Lifecycle state of a campus service.
    pub fn service_status(&self, id: u64) -> Option<ServiceStatus> {
        let service = self.services.get(usize::try_from(id).ok()?)?;
        Some(service.status)
    }

    /// Advances campus time by `dt_ms` and runs one superstep: every
    /// walker moves to the zone containing it at the new time (a changed
    /// zone is a handoff), each shard whose crowd (its walkers in walker-id
    /// order) differs from its simulator's blockers gets the new crowd,
    /// then `phase` runs on every shard, in parallel, under the shard's
    /// `{shard=N}` label scope — so every counter and span a shard records
    /// also lands under its label, and its trace events on the `shard=N`
    /// track. Returns the outputs in shard order and this tick's handoffs.
    fn superstep<U, F>(&mut self, dt_ms: u64, phase: F) -> (Vec<U>, u64)
    where
        U: Send,
        F: Fn(&mut KernelShard) -> U + Sync,
    {
        self.now_ms += dt_ms;
        let t_s = self.now_ms as f64 / 1000.0;
        let mut crowds: Vec<Vec<Blocker>> = vec![Vec::new(); self.shards.len()];
        let mut handoffs = 0;
        for (walk, zone) in &mut self.walkers {
            let pos = walk.position_at(t_s);
            let owner = route(&self.zones, pos);
            if owner != *zone {
                handoffs += 1;
                *zone = owner;
            }
            crowds[owner].push(Blocker::person(pos));
        }
        self.handoffs += handoffs;
        let threads = self.worker_count();
        let mut work: Vec<_> = self.shards.iter_mut().zip(crowds).collect();
        let out = par::par_map_mut_with_threads(&mut work, threads, |(s, crowd)| {
            let _obs = surfos_obs::scoped(&[("shard", s.index)]);
            if s.kernel.sim().blockers() != crowd.as_slice() {
                s.kernel.set_blockers(std::mem::take(crowd));
            }
            phase(s)
        });
        (out, handoffs)
    }

    /// One campus heartbeat: one superstep running every shard's full
    /// kernel step, then multi-zone grant reconciliation and aggregate
    /// mirroring on the coordinator.
    pub fn step(&mut self, dt_ms: u64) -> CampusStepReport {
        let (per_shard, handoffs) = self.superstep(dt_ms, |s| s.kernel.step(dt_ms));
        let mut report = CampusStepReport {
            per_shard,
            handoffs,
            ..Default::default()
        };
        self.reconcile(&mut report);
        self.mirror_obs(handoffs);
        report
    }

    /// One replay tick: one superstep of per-shard blocker update and
    /// cached link evaluation — the walk-replay hot path, no scheduling or
    /// optimization. Results land in [`ShardedKernel::linearizations`].
    pub fn replay_tick(&mut self, dt_ms: u64) {
        let (_, handoffs) = self.superstep(dt_ms, |s| {
            let _span = surfos_obs::span!("kernel.shard.eval");
            s.eval_links();
        });
        self.mirror_obs(handoffs);
    }

    /// All-or-nothing grant reconciliation for pending campus services: a
    /// service whose parts all run is granted; one with only some parts
    /// running is rejected and every part retired now, so its slices are
    /// free before the next heartbeat.
    fn reconcile(&mut self, report: &mut CampusStepReport) {
        for (id, service) in self.services.iter_mut().enumerate() {
            if service.status != ServiceStatus::Pending {
                continue;
            }
            let running = service
                .parts
                .iter()
                .filter(|&&(z, task)| {
                    let tasks = &self.shards[z].kernel.orchestrator().tasks;
                    tasks.get(task).map(|t| t.state) == Some(TaskState::Running)
                })
                .count();
            if running == service.parts.len() {
                service.status = ServiceStatus::Granted;
                report.granted.push(id as u64);
                surfos_obs::add("kernel.shard.grants", 1);
            } else if running > 0 {
                for &(z, task) in &service.parts {
                    let _obs = surfos_obs::scoped(&[("shard", z)]);
                    self.shards[z].kernel.orchestrator_mut().retire(task);
                }
                service.status = ServiceStatus::Rejected;
                report.rejected.push(id as u64);
                surfos_obs::add("kernel.shard.rejects", 1);
            }
            // running == 0: stay pending, retry next frame.
        }
    }

    /// Mirrors campus aggregates into the obs registry under
    /// `kernel.shard.*` (gauges for lifetime stats, adds for flow).
    fn mirror_obs(&self, handoffs_delta: u64) {
        if !surfos_obs::enabled() {
            return;
        }
        surfos_obs::gauge("kernel.shard.count", self.shards.len() as f64);
        surfos_obs::add("kernel.shard.steps", 1);
        surfos_obs::add("kernel.shard.handoffs", handoffs_delta);
        let cs = self.cache_stats();
        surfos_obs::gauge("kernel.shard.lincache_hits", cs.hits as f64);
        surfos_obs::gauge("kernel.shard.lincache_misses", cs.misses as f64);
        surfos_obs::gauge("kernel.shard.lincache_refreshes", cs.refreshes as f64);
        surfos_obs::gauge("kernel.shard.lincache_evictions", cs.evictions as f64);
        surfos_obs::gauge("kernel.shard.lincache_len", cs.len as f64);
    }

    /// The last replay tick's linearizations in global link order, with
    /// surface indices remapped from shard-local to campus-global — the
    /// shape a flat single-scene evaluation of the same campus produces.
    pub fn linearizations(&self) -> Vec<Linearization> {
        self.links
            .iter()
            .map(|&(shard, local)| {
                remap(
                    &self.shards[shard].lins[local],
                    &self.surface_globals[shard],
                )
            })
            .collect()
    }

    /// Freshly traces and linearizes every registered link (batch path, no
    /// cache), shards in parallel, output in global link order with
    /// campus-global surface indices.
    pub fn linearize_links(&mut self) -> Vec<Linearization> {
        let threads = self.worker_count();
        let per_shard = par::par_map_mut_with_threads(&mut self.shards, threads, |s| {
            let _obs = surfos_obs::scoped(&[("shard", s.index)]);
            let _span = surfos_obs::span!("kernel.shard.linearize");
            s.linearize_links()
        });
        self.links
            .iter()
            .map(|&(shard, local)| remap(&per_shard[shard][local], &self.surface_globals[shard]))
            .collect()
    }

    /// Lifetime walker handoffs across zone boundaries.
    pub fn handoffs(&self) -> u64 {
        self.handoffs
    }

    /// Per-shard linearization-cache statistics, summed campus-wide
    /// (exposed as `kernel.shard.lincache_*` gauges when observability is
    /// on).
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let cs = shard.kernel.sim().cache_stats();
            total.hits += cs.hits;
            total.misses += cs.misses;
            total.refreshes += cs.refreshes;
            total.evictions += cs.evictions;
            total.len += cs.len;
        }
        total
    }

    /// Per-shard kernel counters, merged field-wise campus-wide.
    pub fn telemetry(&self) -> Telemetry {
        let mut total = Telemetry::default();
        for shard in &self.shards {
            total.merge(&shard.kernel.telemetry());
        }
        total
    }
}

/// Remaps a shard-local linearization's surface indices to campus-global
/// ones. Coefficients are untouched — only the labels change.
fn remap(lin: &Linearization, globals: &[usize]) -> Linearization {
    let mut out = lin.clone();
    for term in &mut out.linear {
        term.surface = globals[term.surface];
    }
    for term in &mut out.bilinear {
        term.first = globals[term.first];
        term.second = globals[term.second];
    }
    out
}

// --- Demo campus (shell `campus` command, core-level tests) -------------

/// Extra clearance of the demo metal shell beyond each building's walls.
const DEMO_SHELL_MARGIN: f64 = 0.6;
/// Street width between adjacent demo shells.
const DEMO_STREET_WIDTH: f64 = 6.0;

/// A small ready-made campus: `buildings` copies of the two-room
/// apartment in a row, each wrapped in a metal isolation shell, with an
/// AP + client + surface + link per building, one coverage service per
/// building, and one walker pacing the street across every zone boundary.
pub struct CampusDemo {
    /// The sharded kernel, one zone per building.
    pub kernel: ShardedKernel,
    /// Campus wall count (apartment walls + 4 shell walls per building).
    pub walls: usize,
    /// Campus service ids, one per building, in building order.
    pub services: Vec<u64>,
}

/// Builds [`CampusDemo`] with one zone per building. See
/// [`demo_campus_with_zones`] for custom shardings (e.g. the 1-zone flat
/// reference).
pub fn demo_campus(buildings: usize) -> CampusDemo {
    demo_campus_with_zones(buildings, None)
}

/// [`demo_campus`] with an explicit zone table (must tile the plane and
/// cut only along streets). `None` derives one zone per building.
pub fn demo_campus_with_zones(buildings: usize, zones: Option<Vec<Zone>>) -> CampusDemo {
    assert!(buildings > 0, "campus needs at least one building");
    let scen = surfos_geometry::scenario::two_room_apartment();
    let band = surfos_em::band::NamedBand::MmWave28GHz.band();

    // Apartment plan-view bounding box.
    let (mut min, mut max) = (
        Vec3::new(f64::INFINITY, f64::INFINITY, 0.0),
        Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0),
    );
    for w in scen.plan.walls() {
        for p in [w.a, w.b] {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
    }
    let shell_h = scen
        .plan
        .walls()
        .iter()
        .fold(0.0f64, |h, w| h.max(w.height))
        + 1.0;
    let pitch = (max.x - min.x) + 2.0 * DEMO_SHELL_MARGIN + DEMO_STREET_WIDTH;

    let mut plan = FloorPlan::new();
    let mut derived_zones = Vec::with_capacity(buildings);
    for b in 0..buildings {
        let origin = Vec3::xy(b as f64 * pitch, 0.0);
        // Metal shell first, then the translated apartment walls: the
        // per-building block stays contiguous in global wall order.
        let (sx0, sy0) = (min.x - DEMO_SHELL_MARGIN, min.y - DEMO_SHELL_MARGIN);
        let (sx1, sy1) = (max.x + DEMO_SHELL_MARGIN, max.y + DEMO_SHELL_MARGIN);
        let corners = [
            (Vec3::xy(sx0, sy0), Vec3::xy(sx1, sy0)),
            (Vec3::xy(sx1, sy0), Vec3::xy(sx1, sy1)),
            (Vec3::xy(sx1, sy1), Vec3::xy(sx0, sy1)),
            (Vec3::xy(sx0, sy1), Vec3::xy(sx0, sy0)),
        ];
        for (a, bb) in corners {
            plan.add_wall(Wall::new(
                a + origin,
                bb + origin,
                shell_h,
                surfos_geometry::Material::Metal,
            ));
        }
        for w in scen.plan.walls() {
            plan.add_wall(Wall::new(w.a + origin, w.b + origin, w.height, w.material));
        }
        for room in scen.plan.rooms() {
            plan.add_room(Room::new(
                format!("b{b}.{}", room.name),
                room.min + origin,
                room.max + origin,
            ));
        }
        // Zone cell: street midlines, outer edges open to ±∞.
        let x0 = if b == 0 {
            f64::NEG_INFINITY
        } else {
            b as f64 * pitch + min.x - DEMO_SHELL_MARGIN - DEMO_STREET_WIDTH / 2.0
        };
        let x1 = if b + 1 == buildings {
            f64::INFINITY
        } else {
            (b + 1) as f64 * pitch + min.x - DEMO_SHELL_MARGIN - DEMO_STREET_WIDTH / 2.0
        };
        derived_zones.push(Zone::new(x0, f64::NEG_INFINITY, x1, f64::INFINITY));
    }

    let walls = plan.walls().len();
    let zones = zones.unwrap_or(derived_zones);
    let mut kernel = ShardedKernel::new(&plan, band, zones);

    let anchor = *scen.anchor("bedroom-north").expect("apartment anchor");
    let geom = surfos_em::array::ArrayGeometry::half_wavelength(16, 16, band.wavelength_m());
    let mut services = Vec::with_capacity(buildings);
    for b in 0..buildings {
        let origin = Vec3::xy(b as f64 * pitch, 0.0);
        let mut pose = anchor;
        pose.position += origin;
        kernel.add_surface(SurfaceInstance::new(
            format!("b{b}-wall"),
            pose,
            geom,
            surfos_channel::OperationMode::Reflective,
        ));
        let mut ap_pose = scen.ap_pose;
        ap_pose.position += origin;
        let ap = Endpoint::access_point(format!("b{b}-ap"), ap_pose);
        let client = Endpoint::client(format!("b{b}-laptop"), Vec3::new(6.5, 1.5, 1.2) + origin);
        kernel
            .add_link(ap, client)
            .expect("in-building link routes to one zone");
        let zone = kernel.zone_of(origin);
        services.push(kernel.submit_service(vec![(
            zone,
            ServiceRequest::optimize_coverage(format!("b{b}.{}", scen.target_room), 25.0),
        )]));
    }

    // One walker pacing the south street end to end — every zone boundary
    // crossed twice per loop.
    let street_y = min.y - DEMO_SHELL_MARGIN - 1.0;
    kernel.attach_walk(BlockerWalk::new(
        vec![
            Vec3::xy(min.x, street_y),
            Vec3::xy((buildings - 1) as f64 * pitch + max.x, street_y),
        ],
        1.4,
    ));

    CampusDemo {
        kernel,
        walls,
        services,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shards move onto pool worker threads; everything they own must
    /// be `Send`.
    #[allow(dead_code)]
    fn assert_shard_is_send() {
        fn is_send<T: Send>() {}
        is_send::<KernelShard>();
        is_send::<ShardedKernel>();
    }

    #[test]
    fn zone_routing_is_total_and_deterministic() {
        let zones = vec![
            Zone::new(f64::NEG_INFINITY, f64::NEG_INFINITY, 10.0, f64::INFINITY),
            Zone::new(10.0, f64::NEG_INFINITY, f64::INFINITY, f64::INFINITY),
        ];
        assert_eq!(route(&zones, Vec3::xy(-100.0, 3.0)), 0);
        assert_eq!(route(&zones, Vec3::xy(9.999, 3.0)), 0);
        // Boundary point goes right (half-open).
        assert_eq!(route(&zones, Vec3::xy(10.0, 3.0)), 1);
        assert_eq!(route(&zones, Vec3::xy(1e6, -1e6)), 1);
        // Gap fallback: nearest zone, first minimum on ties.
        let gappy = vec![Zone::new(0.0, 0.0, 1.0, 1.0), Zone::new(3.0, 0.0, 4.0, 1.0)];
        assert_eq!(route(&gappy, Vec3::xy(1.5, 0.5)), 0);
        assert_eq!(route(&gappy, Vec3::xy(2.9, 0.5)), 1);
        assert_eq!(route(&gappy, Vec3::xy(2.0, 0.5)), 0); // equidistant → first
    }

    #[test]
    #[should_panic(expected = "straddles")]
    fn straddling_wall_is_rejected() {
        let mut plan = FloorPlan::new();
        plan.add_wall(Wall::new(
            Vec3::xy(5.0, 0.0),
            Vec3::xy(15.0, 0.0),
            3.0,
            surfos_geometry::Material::Concrete,
        ));
        let zones = vec![
            Zone::new(f64::NEG_INFINITY, f64::NEG_INFINITY, 10.0, f64::INFINITY),
            Zone::new(10.0, f64::NEG_INFINITY, f64::INFINITY, f64::INFINITY),
        ];
        ShardedKernel::new(&plan, surfos_em::band::NamedBand::MmWave28GHz.band(), zones);
    }

    #[test]
    fn link_to_a_registered_endpoint_registers_it_once() {
        let mut kernel = demo_campus(1).kernel;
        let ap = Endpoint::access_point(
            "x-ap",
            Pose::wall_mounted(Vec3::new(1.0, 3.0, 2.0), Vec3::X),
        );
        let client = Endpoint::client("x-laptop", Vec3::new(2.0, 1.5, 1.2));
        let zone = kernel.add_endpoint(ap.clone());
        let first = kernel.add_link(ap.clone(), client.clone()).unwrap();
        let second = kernel.add_link(ap, client).unwrap();
        assert_ne!(first, second);
        let orch = kernel.shard(zone).kernel().orchestrator();
        assert!(orch.endpoint("x-ap").is_some());
        assert!(orch.endpoint("x-laptop").is_some());
        // A loopback link names one endpoint twice.
        let probe = Endpoint::client("x-probe", Vec3::new(3.0, 1.5, 1.2));
        kernel.add_link(probe.clone(), probe).unwrap();
        kernel.replay_tick(10);
    }

    #[test]
    fn cross_zone_link_is_rejected() {
        let demo = demo_campus(2);
        let mut kernel = demo.kernel;
        let err = kernel
            .add_link(
                Endpoint::client("a", Vec3::new(1.0, 1.0, 1.2)),
                Endpoint::client("b", Vec3::new(30.0, 1.0, 1.2)),
            )
            .unwrap_err();
        assert!(err.contains("RF-dark"), "{err}");
    }

    #[test]
    fn demo_campus_steps_grants_and_hands_off() {
        let mut demo = demo_campus(2);
        assert_eq!(demo.kernel.shard_count(), 2);
        let surfaces: Vec<usize> = (0..2)
            .map(|i| demo.kernel.shard(i).kernel().sim().surfaces().len())
            .collect();
        assert_eq!(surfaces, [1, 1]);
        let mut granted = Vec::new();
        for _ in 0..3 {
            let report = demo.kernel.step(100);
            granted.extend(report.granted);
        }
        for s in &demo.services {
            assert_eq!(
                demo.kernel.service_status(*s),
                Some(ServiceStatus::Granted),
                "per-building coverage should be granted"
            );
        }
        assert!(granted.len() >= demo.services.len());
        // The street walker takes ~16 s per building pitch at 1.4 m/s;
        // run replay ticks until it crosses the midline.
        for _ in 0..400 {
            demo.kernel.replay_tick(100);
        }
        assert!(
            demo.kernel.handoffs() > 0,
            "street walker must cross the zone boundary"
        );
        // Telemetry merged across shards: both kernels stepped 3 times.
        assert_eq!(demo.kernel.telemetry().steps, 6);
        // Cache stats aggregate: replay ticks hit/refresh per shard.
        let cs = demo.kernel.cache_stats();
        assert!(cs.misses >= 2, "each link traced at least once: {cs:?}");
        assert!(
            cs.hits + cs.refreshes > 0,
            "replay ticks must reuse the cache: {cs:?}"
        );
    }

    /// Two zones split at x = 10 m; `FloorPlan::new()` holds no walls.
    fn split_at_ten() -> ShardedKernel {
        let zones = vec![
            Zone::new(f64::NEG_INFINITY, f64::NEG_INFINITY, 10.0, f64::INFINITY),
            Zone::new(10.0, f64::NEG_INFINITY, f64::INFINITY, f64::INFINITY),
        ];
        let band = surfos_em::band::NamedBand::MmWave28GHz.band();
        ShardedKernel::new(&FloorPlan::new(), band, zones)
    }

    #[test]
    fn a_walker_that_crosses_and_returns_hands_off_exactly_twice() {
        let mut kernel = split_at_ten();
        // 10 m out and 10 m back at 1 m/s: on the boundary (zone 1,
        // half-open) at t = 5 s, still there at t = 15 s, back in zone 0
        // at t = 16 s, home at t = 20 s.
        kernel.attach_walk(BlockerWalk::new(
            vec![Vec3::xy(5.0, 0.0), Vec3::xy(15.0, 0.0)],
            1.0,
        ));
        let mut reported = 0;
        for tick in 0..20 {
            if tick % 2 == 0 {
                reported += kernel.step(1000).handoffs;
            } else {
                let before = kernel.handoffs();
                kernel.replay_tick(1000);
                reported += kernel.handoffs() - before;
            }
        }
        assert_eq!(kernel.handoffs(), 2);
        assert_eq!(reported, 2);
    }

    #[test]
    fn service_naming_an_unknown_zone_is_rejected() {
        let mut kernel = demo_campus(2).kernel;
        let coverage = || ServiceRequest::optimize_coverage("b0.bedroom", 20.0);
        let ghost = kernel.submit_service(vec![(7, coverage())]);
        assert_eq!(kernel.service_status(ghost), Some(ServiceStatus::Rejected));
        // A valid part beside an unknown zone enters no task table either.
        let tasks_before = kernel.shard(0).kernel().orchestrator().tasks.all().len();
        let mixed = kernel.submit_service(vec![(0, coverage()), (2, coverage())]);
        assert_eq!(kernel.service_status(mixed), Some(ServiceStatus::Rejected));
        assert_eq!(
            kernel.shard(0).kernel().orchestrator().tasks.all().len(),
            tasks_before
        );
        let report = kernel.step(100);
        assert!(
            report.rejected.is_empty(),
            "rejected at submission, not now"
        );
        assert_eq!(kernel.service_status(ghost), Some(ServiceStatus::Rejected));
    }

    #[test]
    fn partial_grant_is_rejected_and_retired_in_the_same_step() {
        let mut demo = demo_campus(2);
        let service = demo.kernel.submit_service(vec![
            (0, ServiceRequest::optimize_coverage("b0.bedroom", 20.0)),
            (1, ServiceRequest::optimize_coverage("no-such-room", 20.0)),
        ]);
        let parts = demo.kernel.services[service as usize].parts.clone();
        assert_eq!(parts.iter().map(|p| p.0).collect::<Vec<_>>(), [0, 1]);
        let report = demo.kernel.step(100);
        assert_eq!(
            demo.kernel.service_status(service),
            Some(ServiceStatus::Rejected)
        );
        assert_eq!(report.rejected, [service]);
        let orch = |z: usize| demo.kernel.shard(z).kernel().orchestrator();
        let served = parts[0].1;
        assert_eq!(
            orch(0).tasks.get(served).map(|t| t.state),
            Some(TaskState::Completed)
        );
        assert!(orch(0).slices.slices_of(served).is_empty(), "slices freed");
        assert_eq!(
            orch(1).tasks.get(parts[1].1).map(|t| t.state),
            Some(TaskState::Failed)
        );
    }

    #[test]
    fn sharded_replay_matches_flat_bitwise() {
        // The core smoke version of the bench-level proptest: a 2-building
        // demo campus replayed sharded (2 zones, forced parallel) vs flat
        // (1 zone, serial) must produce bit-identical linearizations —
        // including ticks where the street walker changes owner.
        let mut sharded = demo_campus(2).kernel;
        sharded.set_worker_threads(Some(2));
        let mut flat = demo_campus_with_zones(2, Some(vec![Zone::all()])).kernel;
        flat.set_worker_threads(Some(1));
        assert_eq!(flat.shard_count(), 1);
        for tick in 0..40 {
            sharded.replay_tick(500);
            flat.replay_tick(500);
            let a = sharded.linearizations();
            let b = flat.linearizations();
            assert_eq!(a.len(), b.len());
            for (la, lb) in a.iter().zip(&b) {
                assert_eq!(
                    la.constant.re.to_bits(),
                    lb.constant.re.to_bits(),
                    "tick {tick}: constant diverged"
                );
                assert_eq!(la.constant.im.to_bits(), lb.constant.im.to_bits());
                assert_eq!(la.linear.len(), lb.linear.len());
                for (ta, tb) in la.linear.iter().zip(&lb.linear) {
                    assert_eq!(ta.surface, tb.surface);
                    for (ca, cb) in ta.coeffs.iter().zip(&tb.coeffs) {
                        assert_eq!(ca.re.to_bits(), cb.re.to_bits());
                        assert_eq!(ca.im.to_bits(), cb.im.to_bits());
                    }
                }
                assert_eq!(la.bilinear.len(), lb.bilinear.len());
            }
        }
        assert!(
            sharded.handoffs() > 0,
            "the replay window must include a handoff"
        );
    }

    #[test]
    fn memo_hits_in_walker_free_shards() {
        // The street walker stays in zone 0 for these 1.2 s. Zones 1 and 2
        // hold no walker, so their blocker epochs must never move. Zone 1's
        // configuration is a bit-exact fixed point of its heartbeat from
        // step 5, so from step 6 its slot memo answers every heartbeat.
        // Zone 2's never gets there (one element drifts by one ULP per
        // heartbeat), so it is not required to hit.
        let _obs = crate::obs_exclusive();
        surfos_obs::reset();
        surfos_obs::set_enabled(true);
        let mut kernel = demo_campus(3).kernel;
        let epochs: Vec<_> = kernel
            .shards
            .iter()
            .map(|s| s.kernel.sim().epochs())
            .collect();
        let skipped = |shard: usize| {
            let key = format!("orchestrator.slots_skipped{{shard={shard}}}");
            surfos_obs::snapshot()
                .counters
                .get(&key)
                .copied()
                .unwrap_or(0)
        };
        let mut last = [0; 3];
        for step in 1..=12 {
            kernel.step(100);
            for (shard, last) in last.iter_mut().enumerate() {
                let now = skipped(shard);
                let hits = now - *last;
                *last = now;
                if shard == 0 {
                    assert_eq!(hits, 0, "step {step}: the walker's shard re-optimizes");
                    continue;
                }
                assert_eq!(kernel.shards[shard].kernel.sim().epochs(), epochs[shard]);
                if shard == 1 && step >= 6 {
                    assert_eq!(hits, 1, "step {step}: shard 1 hits its memo");
                } else {
                    assert!(hits <= 1, "step {step}: shard {shard} has one slot");
                }
            }
        }
        surfos_obs::set_enabled(false);
        assert_eq!(kernel.walkers[0].1, 0);
        assert_eq!(kernel.handoffs(), 0, "the walker stays in zone 0");
    }

    #[test]
    fn memo_skipped_crowds_match_forced_resets_bitwise() {
        // Re-setting every shard's blockers before each heartbeat bumps
        // its blocker epoch, so its slot memo and linearization cache
        // miss. Skipping an equal crowd must give the same bits as those
        // forced misses. (The lock keeps these heartbeats out of the
        // counters the test above reads.)
        let _obs = crate::obs_exclusive();
        let mut skipping = demo_campus(3).kernel;
        let mut forced = demo_campus(3).kernel;
        for step in 0..12 {
            for s in &mut forced.shards {
                let crowd = s.kernel.sim().blockers().to_vec();
                s.kernel.set_blockers(crowd);
            }
            let a = skipping.step(100);
            let b = forced.step(100);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "step {step}");
            for (sa, sb) in skipping.shards.iter().zip(&forced.shards) {
                for (ra, rb) in sa
                    .kernel
                    .sim()
                    .surfaces()
                    .iter()
                    .zip(sb.kernel.sim().surfaces())
                {
                    for (ca, cb) in ra.response().iter().zip(rb.response()) {
                        assert_eq!(ca.re.to_bits(), cb.re.to_bits(), "step {step}");
                        assert_eq!(ca.im.to_bits(), cb.im.to_bits(), "step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn campus_admission_runs_on_each_parts_shard() {
        let mut kernel = split_at_ten();
        let band = kernel.band();
        let geom = surfos_em::array::ArrayGeometry::half_wavelength(8, 8, band.wavelength_m());
        for x in [2.0, 12.0] {
            kernel.add_surface(SurfaceInstance::new(
                format!("s{x}"),
                Pose::wall_mounted(Vec3::new(x, 0.0, 1.5), Vec3::Y),
                geom,
                surfos_channel::OperationMode::Reflective,
            ));
        }
        // Only zone 0 has an access point.
        kernel.add_endpoint(Endpoint::access_point(
            "ap0",
            Pose::wall_mounted(Vec3::new(1.0, 3.0, 2.0), Vec3::X),
        ));
        let request = || ServiceRequest::enhance_link("laptop", 20.0, 50.0);
        let ok = kernel.submit_service(vec![(0, request())]);
        let no_ap = kernel.submit_service(vec![(1, request())]);
        let spans_both = kernel.submit_service(vec![(0, request()), (1, request())]);
        assert_eq!(kernel.service_status(ok), Some(ServiceStatus::Pending));
        assert_eq!(kernel.service_status(no_ap), Some(ServiceStatus::Rejected));
        assert_eq!(
            kernel.service_status(spans_both),
            Some(ServiceStatus::Rejected)
        );
        // Nothing was queued on the AP-less shard, so stepping is safe.
        kernel.step(10);
        assert!(kernel
            .shard(1)
            .kernel()
            .orchestrator()
            .tasks
            .all()
            .is_empty());
    }

    #[test]
    fn multi_zone_service_reconciles_all_or_nothing() {
        let mut demo = demo_campus(2);
        // A campus service spanning both buildings: both zones have a
        // surface, so it should be granted.
        let span = demo.kernel.submit_service(vec![
            (0, ServiceRequest::optimize_coverage("b0.bedroom", 20.0)),
            (1, ServiceRequest::optimize_coverage("b1.bedroom", 20.0)),
        ]);
        demo.kernel.step(100);
        assert_eq!(
            demo.kernel.service_status(span),
            Some(ServiceStatus::Granted)
        );
        // Zone 0 can run tasks, so a service whose subject no surface
        // serves passes admission and waits.
        let hopeless = demo.kernel.submit_service(vec![(
            0,
            ServiceRequest::optimize_coverage("no-such-room", 20.0),
        )]);
        assert_eq!(
            demo.kernel.service_status(hopeless),
            Some(ServiceStatus::Pending)
        );
        // (Unservable subject: stays pending, never flip-flops.)
        demo.kernel.step(100);
        assert_ne!(
            demo.kernel.service_status(hopeless),
            Some(ServiceStatus::Granted)
        );
    }
}
