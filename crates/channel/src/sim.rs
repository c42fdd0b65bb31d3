//! The channel simulator facade.
//!
//! [`ChannelSim`] owns the environment (plan + blockers), the carrier band
//! and the deployed surfaces, and answers the questions the upper layers
//! ask: link gains, link budgets, heatmaps, and — crucially — channel
//! [`Linearization`]s for the orchestrator's optimizer.
//!
//! ## Evaluation engine
//!
//! Four mechanisms keep repeated queries cheap without changing a single
//! answer (see DESIGN.md, "Channel evaluation engine" and "Spatial
//! acceleration & caching"):
//!
//! - **Trace/evaluate split** — [`ChannelSim::trace`] enumerates a link's
//!   band-independent geometry once; re-phasing it at another carrier is
//!   `O(elements)`. [`ChannelSim::frequency_response`] is one trace plus
//!   N cheap evaluations instead of N full re-traces.
//! - **Two-epoch scene index** — every trace runs through a
//!   [`SceneIndex`] (wall BVH, blocker/aperture boxes, cached element
//!   positions) shared across links, batches and clones. Geometry
//!   mutations split into a *structure epoch* (walls, surfaces, band-free
//!   invalidation: full rebuild) and a *blocker epoch* (walk ticks:
//!   [`SceneIndex::refit_blockers`] recomputes only the `O(blockers)`
//!   boxes, the wall BVH and element positions stay shared). Culling is
//!   conservative, so indexed answers are bit-identical to the
//!   brute-force scan.
//! - **Epoch-keyed incremental linearization cache** — single-link
//!   queries ([`ChannelSim::gain`], [`ChannelSim::rss_dbm`],
//!   [`ChannelSim::link_budget`]) memoize a [`LinkState`] per endpoint
//!   pair, with LRU eviction past `CACHE_CAP` entries. Structure or
//!   band mutations empty the cache; a blocker-only mutation instead
//!   *refreshes* each entry on next use — diffing every path's
//!   blocker-crossing set and re-evaluating only the affected paths,
//!   bit-identical to a cold re-trace. Programming surface *responses*
//!   invalidates nothing, because responses are evaluation inputs, not
//!   geometry.
//! - **Deterministic fan-out** — heatmaps and the batch linearization
//!   APIs evaluate on scoped threads with chunk-ordered reassembly,
//!   bit-identical to serial.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::dynamics::Blocker;
use crate::endpoint::Endpoint;
use crate::heatmap::Heatmap;
use crate::incremental::LinkState;
use crate::index::SceneIndex;
use crate::linear::Linearization;
use crate::par;
use crate::paths::{self, Medium};
use crate::surface::SurfaceInstance;
use crate::trace::ChannelTrace;
use surfos_em::antenna::ElementPattern;
use surfos_em::band::Band;
use surfos_em::complex::Complex;
use surfos_em::noise;
use surfos_em::units::amplitude_to_db;
use surfos_geometry::{FloorPlan, Vec3};

/// Everything a service needs to know about one link's quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    /// Received signal strength in dBm.
    pub rss_dbm: f64,
    /// Noise power in dBm at the receiver over the band.
    pub noise_dbm: f64,
    /// Signal-to-noise ratio in dB.
    pub snr_db: f64,
    /// Shannon capacity in bits/s over the band.
    pub capacity_bps: f64,
}

/// One memoized link: its [`LinkState`] (trace + per-path values), the
/// assembled linearization, the blocker epoch the state is current at,
/// and the logical tick of its last use (for LRU eviction).
#[derive(Debug)]
struct CacheEntry {
    used: u64,
    blocker_epoch: u64,
    state: LinkState,
    lin: Arc<Linearization>,
}

/// Link states memoized under one structure stamp. Each entry carries
/// the logical tick of its last use, so eviction can drop the coldest
/// entries instead of wiping the map. Entries also carry the blocker
/// epoch they are current at: a blocker-only step leaves the map intact
/// and refreshes stale entries incrementally on next use.
#[derive(Debug, Default)]
struct LinCache {
    stamp: u64,
    /// Monotonic use counter; bumped on every hit, refresh and insert.
    tick: u64,
    map: HashMap<(u64, u64), CacheEntry>,
    /// Lifetime accounting (survives epoch invalidations; carried into
    /// clones).
    hits: u64,
    misses: u64,
    refreshes: u64,
    evictions: u64,
}

/// Lifetime statistics of one simulator's linearization cache. Hits,
/// misses, refreshes and evictions accumulate across geometry epochs (an
/// epoch bump empties the cache, it does not forget the history); `len` is
/// the current entry count. Cloning a [`ChannelSim`] carries the lifetime
/// counters into the clone — the entry map itself starts empty (entries
/// re-fill on first query) — so BENCH attachments built from a clone do
/// not under-report hit rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache unchanged.
    pub hits: u64,
    /// Queries that had to ray-trace (including the first after a
    /// structure-epoch bump).
    pub misses: u64,
    /// Queries answered by incrementally refreshing a cached entry after
    /// a blocker-only mutation (no re-trace).
    pub refreshes: u64,
    /// Entries dropped by LRU eviction at the capacity bound (epoch
    /// invalidations are not evictions).
    pub evictions: u64,
    /// Entries currently cached.
    pub len: usize,
}

/// Lifetime scene-index accounting of one simulator: full builds
/// (structure mutations) vs blocker-box refits (blocker-only mutations).
/// The kernel turns deltas of these into its refit-vs-rebuild telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Full [`SceneIndex::build`]s installed.
    pub builds: u64,
    /// Blocker-box [`SceneIndex::refit_blockers`] installs (structure
    /// shared, `O(blockers)` work).
    pub refits: u64,
}

/// Capacity bound on the linearization cache. A cache this large means the
/// caller is sweeping endpoints (a job for the heatmap / batch APIs, which
/// bypass it); past the cap the least-recently-used eighth is evicted so
/// persistent endpoints stay warm through the sweep.
const CACHE_CAP: usize = 4096;

/// The scene index memoized under one structure-only stamp plus the
/// blocker epoch it was last refit at (the band and enable flags don't
/// shape geometry, so band sweeps reuse the index). A structure-stamp
/// mismatch rebuilds; a blocker-epoch mismatch alone refits.
#[derive(Debug, Default)]
struct IndexCache {
    struct_stamp: u64,
    blocker_epoch: u64,
    index: Option<Arc<SceneIndex>>,
    /// Lifetime build/refit accounting (see [`IndexStats`]).
    builds: u64,
    refits: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_u64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
}

/// FNV-1a digest of every endpoint field the linearization depends on:
/// pose, antenna pattern and polarization. Power and noise figure are
/// per-query inputs, not geometry, and the id is ignored on purpose — two
/// probes at the same pose share a cache entry.
fn endpoint_fingerprint(e: &Endpoint) -> u64 {
    let mut h = FNV_OFFSET;
    for v in [e.pose.position, e.pose.normal, e.pose.up] {
        for c in [v.x, v.y, v.z] {
            fnv_u64(&mut h, c.to_bits());
        }
    }
    match e.pattern {
        ElementPattern::Isotropic => fnv_u64(&mut h, 1),
        ElementPattern::Cosine { exponent } => {
            fnv_u64(&mut h, 2);
            fnv_u64(&mut h, exponent.to_bits());
        }
        ElementPattern::Sector {
            gain_dbi,
            beamwidth_rad,
            floor_dbi,
        } => {
            fnv_u64(&mut h, 3);
            fnv_u64(&mut h, gain_dbi.to_bits());
            fnv_u64(&mut h, beamwidth_rad.to_bits());
            fnv_u64(&mut h, floor_dbi.to_bits());
        }
    }
    fnv_u64(&mut h, e.polarization_rad.to_bits());
    h
}

/// The ray-tracing channel simulator.
#[derive(Debug)]
pub struct ChannelSim {
    /// The static environment. Adding walls invalidates the linearization
    /// cache automatically; for in-place wall edits call
    /// [`ChannelSim::invalidate_cache`].
    pub plan: FloorPlan,
    /// Carrier band.
    pub band: Band,
    /// Include first-order wall reflections (default true).
    pub enable_wall_reflections: bool,
    /// Include two-hop surface cascades (default true).
    pub enable_cascades: bool,
    blockers: Vec<Blocker>,
    surfaces: Vec<SurfaceInstance>,
    /// Bumped on wall/surface mutations and explicit invalidation; keys
    /// the full-rebuild path (scene index and linearization cache).
    structure_epoch: u64,
    /// Bumped on blocker-only mutations (walk ticks); keys the
    /// refit/refresh fast path.
    blocker_epoch: u64,
    cache: Mutex<LinCache>,
    index: Mutex<IndexCache>,
}

impl Clone for ChannelSim {
    fn clone(&self) -> Self {
        // The clone's geometry is identical, so it shares the scene index
        // Arc (band-probe clones then skip the rebuild). The linearization cache's entry map starts empty
        // (link states are heavy; entries re-fill on first query) but the
        // lifetime counters carry over so accounting built from a clone
        // does not under-report.
        let index = {
            let ix = self.index.lock().unwrap();
            IndexCache {
                struct_stamp: ix.struct_stamp,
                blocker_epoch: ix.blocker_epoch,
                index: ix.index.clone(),
                builds: ix.builds,
                refits: ix.refits,
            }
        };
        let cache = {
            let c = self.cache.lock().unwrap();
            LinCache {
                hits: c.hits,
                misses: c.misses,
                refreshes: c.refreshes,
                evictions: c.evictions,
                ..LinCache::default()
            }
        };
        ChannelSim {
            plan: self.plan.clone(),
            band: self.band,
            enable_wall_reflections: self.enable_wall_reflections,
            enable_cascades: self.enable_cascades,
            blockers: self.blockers.clone(),
            surfaces: self.surfaces.clone(),
            structure_epoch: self.structure_epoch,
            blocker_epoch: self.blocker_epoch,
            cache: Mutex::new(cache),
            index: Mutex::new(index),
        }
    }
}

impl ChannelSim {
    /// Creates a simulator over an environment at a band, with no surfaces.
    pub fn new(plan: FloorPlan, band: Band) -> Self {
        ChannelSim {
            plan,
            band,
            blockers: Vec::new(),
            enable_wall_reflections: true,
            enable_cascades: true,
            surfaces: Vec::new(),
            structure_epoch: 0,
            blocker_epoch: 0,
            cache: Mutex::new(LinCache::default()),
            index: Mutex::new(IndexCache::default()),
        }
    }

    /// Deploys a surface; returns its index (used in [`Linearization`]s).
    ///
    /// # Panics
    /// Panics if a surface with the same id is already deployed.
    pub fn add_surface(&mut self, surface: SurfaceInstance) -> usize {
        assert!(
            self.surfaces.iter().all(|s| s.id != surface.id),
            "duplicate surface id {:?}",
            surface.id
        );
        self.structure_epoch += 1;
        self.surfaces.push(surface);
        self.surfaces.len() - 1
    }

    /// The deployed surfaces.
    pub fn surfaces(&self) -> &[SurfaceInstance] {
        &self.surfaces
    }

    /// Mutable access to a surface by index. Conservatively treated as a
    /// geometry mutation (the borrow can move or re-mode the surface); for
    /// the response-programming hot path use
    /// [`ChannelSim::set_surface_phases`] / [`ChannelSim::set_surface_response`],
    /// which keep the linearization cache warm.
    pub fn surface_mut(&mut self, index: usize) -> &mut SurfaceInstance {
        self.structure_epoch += 1;
        &mut self.surfaces[index]
    }

    /// Programs a surface's element phases (unit-amplitude response)
    /// *without* invalidating the linearization cache: the response is an
    /// input to [`Linearization::evaluate`], not part of the geometry.
    pub fn set_surface_phases(&mut self, index: usize, phases: &[f64]) {
        self.surfaces[index].set_phases(phases);
    }

    /// Programs a surface's complex element response without invalidating
    /// the linearization cache.
    pub fn set_surface_response(&mut self, index: usize, response: Vec<Complex>) {
        self.surfaces[index].set_response(response);
    }

    /// Finds a surface index by id.
    pub fn surface_index(&self, id: &str) -> Option<usize> {
        self.surfaces.iter().position(|s| s.id == id)
    }

    /// The dynamic obstructions.
    pub fn blockers(&self) -> &[Blocker] {
        &self.blockers
    }

    /// Adds a dynamic obstruction. A blocker-only mutation: the scene
    /// index refits instead of rebuilding, and cached link states refresh
    /// incrementally on next use.
    pub fn add_blocker(&mut self, blocker: Blocker) {
        self.blocker_epoch += 1;
        self.blockers.push(blocker);
    }

    /// Replaces the dynamic obstructions (e.g. one step of a walk). A
    /// blocker-only mutation — see [`ChannelSim::add_blocker`].
    pub fn set_blockers(&mut self, blockers: Vec<Blocker>) {
        self.blocker_epoch += 1;
        self.blockers = blockers;
    }

    /// Removes all dynamic obstructions. A blocker-only mutation — see
    /// [`ChannelSim::add_blocker`].
    pub fn clear_blockers(&mut self) {
        self.blocker_epoch += 1;
        self.blockers.clear();
    }

    /// Forces full invalidation (scene index rebuild, linearization cache
    /// empty) after an in-place mutation the simulator cannot observe
    /// (e.g. editing a wall through [`ChannelSim::plan`]).
    pub fn invalidate_cache(&mut self) {
        self.structure_epoch += 1;
    }

    /// The `(structure, blocker)` epoch pair — diagnostics and tests.
    pub fn epochs(&self) -> (u64, u64) {
        (self.structure_epoch, self.blocker_epoch)
    }

    /// Everything band-dependent that keys the linearization cache: the
    /// structure epoch, the band, the enable flags and the wall count (so
    /// `plan.add_wall` through the public field invalidates without an
    /// explicit call). The blocker epoch is deliberately excluded — a
    /// blocker step refreshes entries instead of dropping them.
    fn stamp(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv_u64(&mut h, self.structure_epoch);
        fnv_u64(&mut h, self.band.center_hz.to_bits());
        fnv_u64(&mut h, self.band.bandwidth_hz.to_bits());
        fnv_u64(&mut h, self.plan.walls().len() as u64);
        fnv_u64(
            &mut h,
            ((self.enable_wall_reflections as u64) << 1) | self.enable_cascades as u64,
        );
        h
    }

    /// The structure-only slice of [`ChannelSim::stamp`]: what the scene
    /// index's shared structure depends on. Band and enable flags are
    /// deliberately excluded — a band sweep reuses the same index.
    fn geometry_stamp(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv_u64(&mut h, self.structure_epoch);
        fnv_u64(&mut h, self.plan.walls().len() as u64);
        h
    }

    /// The scene's spatial index for the current epochs, built on first
    /// use and shared (via `Arc`) across every trace — single links,
    /// batches, heatmaps, kernel ticks. A structure mutation rebuilds it
    /// in full; a blocker-only mutation *refits* it: the new index shares
    /// the previous structure (wall BVH, aperture boxes, element
    /// positions) and only the `O(blockers)` padded blocker boxes are
    /// recomputed.
    pub fn scene_index(&self) -> Arc<SceneIndex> {
        let stamp = self.geometry_stamp();
        let bepoch = self.blocker_epoch;
        let base = {
            let ix = self.index.lock().unwrap();
            if ix.struct_stamp == stamp {
                if let Some(index) = &ix.index {
                    if ix.blocker_epoch == bepoch {
                        return Arc::clone(index);
                    }
                    // Structure intact, blockers moved: refit off this.
                    Some(Arc::clone(index))
                } else {
                    None
                }
            } else {
                None
            }
        };
        // Build/refit outside the lock; the epochs cannot change underneath
        // us (mutation needs `&mut self`). Concurrent misses may duplicate
        // the work but never block each other on it.
        let refit = base.is_some();
        let built = match base {
            Some(base) => {
                surfos_obs::add("channel.refits", 1);
                Arc::new(base.refit_blockers(&self.blockers))
            }
            None => {
                surfos_obs::add("channel.index.builds", 1);
                Arc::new(SceneIndex::build(
                    &self.plan,
                    &self.blockers,
                    &self.surfaces,
                ))
            }
        };
        let mut ix = self.index.lock().unwrap();
        if ix.struct_stamp == stamp && ix.blocker_epoch == bepoch {
            if let Some(existing) = &ix.index {
                // Another thread won the race; share its index so
                // `Arc::ptr_eq` holds across the whole epoch pair.
                return Arc::clone(existing);
            }
        }
        if refit {
            ix.refits += 1;
        } else {
            ix.builds += 1;
        }
        ix.struct_stamp = stamp;
        ix.blocker_epoch = bepoch;
        ix.index = Some(Arc::clone(&built));
        built
    }

    /// Lifetime scene-index build/refit counts. See [`IndexStats`].
    pub fn index_stats(&self) -> IndexStats {
        let ix = self.index.lock().unwrap();
        IndexStats {
            builds: ix.builds,
            refits: ix.refits,
        }
    }

    /// [`ChannelSim::trace`] through an already-resolved scene index. The
    /// batch APIs hoist [`ChannelSim::scene_index`] out of their loops and
    /// fan out through this.
    fn trace_with(&self, index: &SceneIndex, tx: &Endpoint, rx: &Endpoint) -> ChannelTrace {
        surfos_obs::add("channel.traces", 1);
        let medium =
            Medium::with_index(&self.plan, &self.blockers, &self.surfaces, self.band, index);
        paths::trace_channel(
            &medium,
            tx,
            rx,
            &self.surfaces,
            self.enable_wall_reflections,
            self.enable_cascades,
        )
    }

    /// Enumerates a link's complete band-independent path geometry. This is
    /// the expensive (ray-tracing) operation; everything downstream —
    /// [`ChannelSim::linearize`], [`ChannelSim::frequency_response`], the
    /// cache — replays it per band in `O(elements)`.
    pub fn trace(&self, tx: &Endpoint, rx: &Endpoint) -> ChannelTrace {
        let index = self.scene_index();
        self.trace_with(&index, tx, rx)
    }

    /// Builds the linearized channel for a link: one fresh trace, evaluated
    /// at the simulator's band.
    pub fn linearize(&self, tx: &Endpoint, rx: &Endpoint) -> Linearization {
        let _span = surfos_obs::span!("channel.linearize");
        self.trace(tx, rx).linearize_at(&self.band)
    }

    /// Linearizes many links in one call: the scene index and medium
    /// snapshot are resolved once, then the pairs fan out across scoped
    /// worker threads with chunk-ordered reassembly. Output order matches
    /// input order and every element is bit-identical to
    /// [`ChannelSim::linearize`] on the same pair.
    pub fn linearize_batch(&self, pairs: &[(&Endpoint, &Endpoint)]) -> Vec<Linearization> {
        // The span wraps the fan-out on the caller thread, so it nests
        // under whatever the caller has open (e.g. `kernel.step`).
        let _span = surfos_obs::span!("channel.linearize");
        surfos_obs::observe("channel.batch.width", pairs.len() as u64);
        let index = self.scene_index();
        par::par_map(pairs, |(tx, rx)| {
            self.trace_with(&index, tx, rx).linearize_at(&self.band)
        })
    }

    /// Traces `tx` against a probe placed at each of `points` (antenna and
    /// polarization follow `rx_template`), returning band-independent
    /// [`ChannelTrace`]s — the objective-sampling pattern. One scene
    /// index, one template clone per worker, and chunk-ordered fan-out:
    /// element `i` is bit-identical to moving the template to `points[i]`
    /// and calling [`ChannelSim::trace`]. Objectives build on this —
    /// trace the grid once, re-phase per band with
    /// [`ChannelTrace::linearize_at`].
    pub fn trace_sweep(
        &self,
        tx: &Endpoint,
        points: &[Vec3],
        rx_template: &Endpoint,
    ) -> Vec<ChannelTrace> {
        let _span = surfos_obs::span!("channel.linearize");
        surfos_obs::observe("channel.batch.width", points.len() as u64);
        let index = self.scene_index();
        par::par_map_with(
            points,
            || rx_template.clone(),
            |rx, p| {
                rx.pose.position = *p;
                self.trace_with(&index, tx, rx)
            },
        )
    }

    /// The linearization for a link, memoized per endpoint pair until the
    /// structure, band or enable flags change. Kernel-tick workloads that
    /// re-ask [`ChannelSim::link_budget`] over unchanged geometry hit this
    /// cache and skip ray tracing entirely.
    ///
    /// After a blocker-only mutation the entry is *refreshed*, not
    /// dropped: the stored [`LinkState`] diffs each path's
    /// blocker-crossing set against the new configuration and re-evaluates
    /// only the affected paths — bit-identical to a cold re-trace, and
    /// when no crossing changed the very same `Arc` is returned so
    /// unaffected links stay warm across walk ticks.
    pub fn cached_linearization(&self, tx: &Endpoint, rx: &Endpoint) -> Arc<Linearization> {
        // Lookup latency (hits, refreshes and misses alike) feeds the HDR
        // timer so cache pathologies show up as a fat p99, not just a
        // shifted hit rate.
        let lookup_t0 = surfos_obs::enabled().then(std::time::Instant::now);
        let timed = |lin: Arc<Linearization>| {
            if let Some(t0) = lookup_t0 {
                surfos_obs::observe_ns(
                    "channel.lincache.lookup_ns",
                    t0.elapsed().as_nanos() as u64,
                );
            }
            lin
        };
        let stamp = self.stamp();
        let bepoch = self.blocker_epoch;
        let key = (endpoint_fingerprint(tx), endpoint_fingerprint(rx));
        {
            let mut cache = self.cache.lock().unwrap();
            if cache.stamp != stamp {
                cache.map.clear();
                cache.stamp = stamp;
                cache.misses += 1;
            } else {
                match cache.map.get(&key).map(|e| e.blocker_epoch) {
                    None => cache.misses += 1,
                    Some(eb) if eb == bepoch => {
                        cache.tick += 1;
                        cache.hits += 1;
                        let tick = cache.tick;
                        let entry = cache.map.get_mut(&key).unwrap();
                        entry.used = tick;
                        let lin = Arc::clone(&entry.lin);
                        drop(cache);
                        surfos_obs::add("channel.lincache.hits", 1);
                        return timed(lin);
                    }
                    Some(_) => {
                        // Blocker-only step: refresh the stored link state
                        // in place. Resolving the scene index here nests
                        // the index lock inside the cache lock; no code
                        // path takes them in the other order.
                        cache.tick += 1;
                        cache.refreshes += 1;
                        let tick = cache.tick;
                        let index = self.scene_index();
                        let entry = cache.map.get_mut(&key).unwrap();
                        entry.used = tick;
                        let outcome = entry.state.refresh(&self.blockers, &index, &self.band);
                        if outcome.changed {
                            entry.lin = Arc::new(entry.state.assemble());
                        }
                        entry.blocker_epoch = bepoch;
                        let lin = Arc::clone(&entry.lin);
                        drop(cache);
                        surfos_obs::add("channel.lincache.refreshes", 1);
                        surfos_obs::add("channel.paths_patched", outcome.patched);
                        surfos_obs::add("channel.paths_retraced", outcome.retraced);
                        return timed(lin);
                    }
                }
            }
        }
        surfos_obs::add("channel.lincache.misses", 1);
        // Trace outside the lock; concurrent misses may duplicate work but
        // never block each other on ray tracing. The link state's assembly
        // is bit-identical to `linearize` on the same pair.
        let state = {
            let _span = surfos_obs::span!("channel.linearize");
            let index = self.scene_index();
            LinkState::new(self.trace_with(&index, tx, rx), &self.band)
        };
        let lin = Arc::new(state.assemble());
        let mut cache = self.cache.lock().unwrap();
        if cache.stamp == stamp {
            if cache.map.len() >= CACHE_CAP {
                // Evict the least-recently-used eighth (deterministically:
                // ticks are unique) so endpoints queried every tick survive
                // a probe sweep that overflows the cap.
                let mut ticks: Vec<u64> = cache.map.values().map(|e| e.used).collect();
                ticks.sort_unstable();
                let threshold = ticks[ticks.len() / 8];
                let before = cache.map.len();
                cache.map.retain(|_, e| e.used > threshold);
                let evicted = (before - cache.map.len()) as u64;
                cache.evictions += evicted;
                surfos_obs::add("channel.lincache.evictions", evicted);
            }
            cache.tick += 1;
            let tick = cache.tick;
            cache.map.insert(
                key,
                CacheEntry {
                    used: tick,
                    blocker_epoch: bepoch,
                    state,
                    lin: Arc::clone(&lin),
                },
            );
        }
        timed(lin)
    }

    /// Lifetime hit/miss/refresh/eviction statistics of the linearization
    /// cache, plus its current size. See [`CacheStats`].
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock().unwrap();
        CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            refreshes: cache.refreshes,
            evictions: cache.evictions,
            len: cache.map.len(),
        }
    }

    /// The per-surface response slices, in index order — the shape
    /// [`Linearization::evaluate`] expects.
    pub fn responses(&self) -> Vec<&[Complex]> {
        self.surfaces.iter().map(|s| s.response()).collect()
    }

    /// The complex channel gain with the surfaces' *current* responses.
    pub fn gain(&self, tx: &Endpoint, rx: &Endpoint) -> Complex {
        self.cached_linearization(tx, rx)
            .evaluate(&self.responses())
    }

    /// Received signal strength in dBm with current responses.
    pub fn rss_dbm(&self, tx: &Endpoint, rx: &Endpoint) -> f64 {
        tx.tx_power_dbm + amplitude_to_db(self.gain(tx, rx).abs())
    }

    /// The full link budget with current responses.
    pub fn link_budget(&self, tx: &Endpoint, rx: &Endpoint) -> LinkBudget {
        let rss_dbm = self.rss_dbm(tx, rx);
        let noise_dbm = noise::noise_power_dbm(self.band.bandwidth_hz, rx.noise_figure_db);
        let snr_db = noise::snr_db(rss_dbm, noise_dbm);
        LinkBudget {
            rss_dbm,
            noise_dbm,
            snr_db,
            capacity_bps: noise::shannon_capacity_bps(snr_db, self.band.bandwidth_hz),
        }
    }

    /// RSS heatmap over a set of receive points (a virtual client is placed
    /// at each point; its antenna/noise follow `rx_template`).
    ///
    /// Points are evaluated on scoped worker threads (one template clone
    /// per worker, not per point) with chunk-ordered reassembly, so the
    /// map is bit-identical to a serial sweep. Fresh traces bypass the
    /// linearization cache: a grid of one-shot probes would only thrash it.
    pub fn rss_heatmap(&self, tx: &Endpoint, points: &[Vec3], rx_template: &Endpoint) -> Heatmap {
        let _span = surfos_obs::span!("channel.heatmap");
        surfos_obs::observe("channel.batch.width", points.len() as u64);
        let responses = self.responses();
        let index = self.scene_index();
        let values = par::par_map_with(
            points,
            || rx_template.clone(),
            |rx, p| {
                rx.pose.position = *p;
                let lin = self.trace_with(&index, tx, rx).linearize_at(&self.band);
                tx.tx_power_dbm + amplitude_to_db(lin.evaluate(&responses).abs())
            },
        );
        Heatmap {
            points: points.to_vec(),
            values,
        }
    }

    /// The wideband frequency response of a link: the complex gain at
    /// `n_points` frequencies across the band, with the surfaces' current
    /// responses. Multipath makes this frequency-selective (notches where
    /// paths cancel); a single-path link is flat. This is the OFDM
    /// subcarrier view a wideband PHY would see.
    ///
    /// The environment is traced **once**; each sample then re-phases the
    /// band-independent path records at its own subcarrier, so the sweep
    /// costs one [`trace`](Self::trace) plus `n_points` cheap evaluations.
    ///
    /// # Panics
    /// Panics if `n_points < 2`.
    pub fn frequency_response(
        &self,
        tx: &Endpoint,
        rx: &Endpoint,
        n_points: usize,
    ) -> Vec<(f64, Complex)> {
        assert!(n_points >= 2, "a sweep needs at least two points");
        let lo = self.band.low_hz();
        let hi = self.band.high_hz();
        let trace = self.trace(tx, rx);
        let responses = self.responses();
        let freqs: Vec<f64> = (0..n_points)
            .map(|i| lo + (hi - lo) * i as f64 / (n_points - 1) as f64)
            .collect();
        // Narrowband probes at each subcarrier: only the centre frequency
        // matters for path phases. The grid is uniform, so the sweep
        // evaluator can rotate per-element phasors instead of re-phasing
        // from scratch at every point.
        let probes: Vec<Band> = freqs
            .iter()
            .map(|&f| Band::new(f, self.band.bandwidth_hz.min(f)))
            .collect();
        let gains = trace.sweep_evaluate(&probes, &responses);
        freqs.into_iter().zip(gains).collect()
    }

    /// Reference implementation of [`ChannelSim::frequency_response`] that
    /// re-traces the environment at every subcarrier. Test-only: the
    /// equivalence test pins the one-trace sweep against it.
    #[cfg(test)]
    pub(crate) fn frequency_response_naive(
        &self,
        tx: &Endpoint,
        rx: &Endpoint,
        n_points: usize,
    ) -> Vec<(f64, Complex)> {
        assert!(n_points >= 2, "a sweep needs at least two points");
        let lo = self.band.low_hz();
        let hi = self.band.high_hz();
        (0..n_points)
            .map(|i| {
                let f = lo + (hi - lo) * i as f64 / (n_points - 1) as f64;
                let mut probe = self.clone();
                probe.band = Band::new(f, self.band.bandwidth_hz.min(f));
                let gain = probe.linearize(tx, rx).evaluate(&probe.responses());
                (f, gain)
            })
            .collect()
    }

    /// SNR heatmap over receive points.
    pub fn snr_heatmap(&self, tx: &Endpoint, points: &[Vec3], rx_template: &Endpoint) -> Heatmap {
        let noise_dbm = noise::noise_power_dbm(self.band.bandwidth_hz, rx_template.noise_figure_db);
        let mut map = self.rss_heatmap(tx, points, rx_template);
        for v in &mut map.values {
            *v -= noise_dbm;
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::BlockerWalk;
    use crate::surface::OperationMode;
    use surfos_em::array::ArrayGeometry;
    use surfos_em::band::NamedBand;
    use surfos_geometry::scenario::two_room_apartment;
    use surfos_geometry::Pose;

    fn iso_client(id: &str, pos: Vec3) -> Endpoint {
        let mut e = Endpoint::client(id, pos);
        e.pattern = ElementPattern::Isotropic;
        e
    }

    fn apartment_sim() -> (ChannelSim, Endpoint) {
        let scen = two_room_apartment();
        let band = NamedBand::MmWave28GHz.band();
        let sim = ChannelSim::new(scen.plan.clone(), band);
        let ap = Endpoint::access_point("ap0", scen.ap_pose);
        (sim, ap)
    }

    #[test]
    fn bedroom_is_dead_without_surfaces() {
        let (sim, ap) = apartment_sim();
        // A sliver of energy leaks via the open doorway (real physics), but
        // the room as a whole must be unusable: median SNR below 0 dB and
        // even the doorway-leak spots only marginal.
        let scen = two_room_apartment();
        let grid = scen.target().sample_grid(8, 8, 1.2, 0.3);
        let template = iso_client("probe", Vec3::ZERO);
        let map = sim.snr_heatmap(&ap, &grid, &template);
        assert!(
            map.median() < 0.0,
            "median bedroom SNR should be <0 dB, got {:.1}",
            map.median()
        );
        let deep = iso_client("c", Vec3::new(7.5, 1.0, 1.2));
        let budget = sim.link_budget(&ap, &deep);
        assert!(
            budget.snr_db < 5.0,
            "deep bedroom should be (near) unusable, got {} dB",
            budget.snr_db
        );
    }

    #[test]
    fn living_room_is_covered() {
        let (sim, ap) = apartment_sim();
        let near = iso_client("c", Vec3::new(3.0, 1.5, 1.2));
        let budget = sim.link_budget(&ap, &near);
        assert!(
            budget.snr_db > 10.0,
            "living room should be covered, got {} dB",
            budget.snr_db
        );
    }

    #[test]
    fn surface_focusing_revives_bedroom() {
        let scen = two_room_apartment();
        let band = NamedBand::MmWave28GHz.band();
        let mut sim = ChannelSim::new(scen.plan.clone(), band);

        // A 32×32 programmable surface on the bedroom's north wall, seen by
        // the AP through the doorway; the AP aims its beam at it.
        let pose = *scen.anchor("bedroom-north").unwrap();
        let ap = Endpoint::access_point(
            "ap0",
            Pose::wall_mounted(scen.ap_pose.position, pose.position - scen.ap_pose.position),
        );
        let geom = ArrayGeometry::half_wavelength(32, 32, band.wavelength_m());
        let idx = sim.add_surface(SurfaceInstance::new(
            "prog0",
            pose,
            geom,
            OperationMode::Reflective,
        ));

        let rx = iso_client("c", Vec3::new(6.0, 1.0, 1.2));
        let before = sim.link_budget(&ap, &rx).snr_db;

        // Focus: phase-conjugate the surface coefficients for this link.
        let lin = sim.linearize(&ap, &rx);
        let term = lin
            .linear
            .iter()
            .find(|t| t.surface == idx)
            .expect("surface must serve the link");
        let phases: Vec<f64> = term.coeffs.iter().map(|c| -c.arg()).collect();
        sim.set_surface_phases(idx, &phases);

        let after = sim.link_budget(&ap, &rx).snr_db;
        assert!(
            after > before + 20.0,
            "focusing should add tens of dB: before={before:.1} after={after:.1}"
        );
        assert!(
            after > 5.0,
            "focused bedroom link should be usable: {after:.1}"
        );
    }

    #[test]
    fn gain_matches_linearize_evaluate() {
        let (mut sim, ap) = apartment_sim();
        let pose = Pose::wall_mounted(Vec3::new(4.9, 3.2, 1.5), Vec3::new(-1.0, 0.2, 0.0));
        let geom = ArrayGeometry::half_wavelength(8, 8, sim.band.wavelength_m());
        sim.add_surface(SurfaceInstance::new(
            "s0",
            pose,
            geom,
            OperationMode::Reflective,
        ));
        let rx = iso_client("c", Vec3::new(3.0, 2.0, 1.2));
        let g1 = sim.gain(&ap, &rx);
        let lin = sim.linearize(&ap, &rx);
        let g2 = lin.evaluate(&sim.responses());
        assert!((g1 - g2).abs() < 1e-15);
    }

    #[test]
    fn cache_stats_account_across_epoch_bump() {
        let (mut sim, ap) = apartment_sim();
        let rx = iso_client("c", Vec3::new(3.0, 1.5, 1.2));
        assert_eq!(sim.cache_stats(), CacheStats::default());

        sim.link_budget(&ap, &rx); // cold: miss + insert
        let s = sim.cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (0, 1, 0, 1));

        sim.link_budget(&ap, &rx); // warm
        sim.gain(&ap, &rx); // warm (same pair, different query)
        let s = sim.cache_stats();
        assert_eq!((s.hits, s.misses, s.len), (2, 1, 1));

        // An epoch bump empties the cache but keeps the lifetime history.
        sim.invalidate_cache();
        sim.link_budget(&ap, &rx); // cold again
        let s = sim.cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (2, 2, 0, 1));

        sim.link_budget(&ap, &rx); // warm again
        assert_eq!(sim.cache_stats().hits, 3);
    }

    #[test]
    fn duplicate_surface_id_rejected() {
        let (mut sim, _) = apartment_sim();
        let pose = Pose::wall_mounted(Vec3::new(1.0, 1.0, 1.5), Vec3::X);
        let geom = ArrayGeometry::new(2, 2, 0.005, 0.005);
        sim.add_surface(SurfaceInstance::new(
            "dup",
            pose,
            geom,
            OperationMode::Reflective,
        ));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.add_surface(SurfaceInstance::new(
                "dup",
                pose,
                geom,
                OperationMode::Reflective,
            ));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn blocker_cuts_link() {
        let (mut sim, ap) = apartment_sim();
        let rx = iso_client("c", Vec3::new(3.0, 1.1, 1.2));
        let before = sim.rss_dbm(&ap, &rx);
        // A person standing at the receiver blocks every incoming path
        // (direct and wall bounces all converge there).
        sim.add_blocker(Blocker::person(rx.position()));
        let after = sim.rss_dbm(&ap, &rx);
        assert!(
            before - after > 10.0,
            "blocker should cost >10 dB: before={before:.1} after={after:.1}"
        );
    }

    #[test]
    fn heatmap_covers_grid() {
        let (sim, ap) = apartment_sim();
        let scen = two_room_apartment();
        let grid = scen
            .plan
            .room("living-room")
            .unwrap()
            .sample_grid(5, 5, 1.2, 0.5);
        let template = iso_client("probe", Vec3::ZERO);
        let map = sim.rss_heatmap(&ap, &grid, &template);
        assert_eq!(map.values.len(), 25);
        assert!(map.values.iter().all(|v| v.is_finite()));
        // SNR map is RSS map shifted by the (constant) noise floor.
        let snr = sim.snr_heatmap(&ap, &grid, &template);
        let shift = map.values[0] - snr.values[0];
        for (r, s) in map.values.iter().zip(&snr.values) {
            assert!((r - s - shift).abs() < 1e-9);
        }
    }

    #[test]
    fn frequency_response_flat_for_single_path() {
        // Free space, one path: |H(f)| varies only by the slow Friis
        // factor across the band — no notches.
        let band = NamedBand::MmWave28GHz.band();
        let sim = ChannelSim::new(surfos_geometry::FloorPlan::new(), band);
        let tx = iso_client("tx", Vec3::new(0.0, 0.0, 1.5));
        let rx = iso_client("rx", Vec3::new(5.0, 0.0, 1.5));
        let sweep = sim.frequency_response(&tx, &rx, 32);
        assert_eq!(sweep.len(), 32);
        let mags: Vec<f64> = sweep.iter().map(|(_, g)| g.abs()).collect();
        let (lo, hi) = mags
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(l, h), &m| (l.min(m), h.max(m)));
        assert!(hi / lo < 1.05, "flat channel expected: ripple {}", hi / lo);
    }

    #[test]
    fn frequency_response_selective_under_multipath() {
        // A strong wall reflection alongside the direct path creates
        // frequency-selective fading: notches well below the peak.
        let mut plan = surfos_geometry::FloorPlan::new();
        plan.add_wall(surfos_geometry::Wall::new(
            Vec3::xy(0.0, 1.5),
            Vec3::xy(10.0, 1.5),
            3.0,
            surfos_geometry::Material::Metal,
        ));
        let band = NamedBand::MmWave28GHz.band();
        let sim = ChannelSim::new(plan, band);
        let tx = iso_client("tx", Vec3::new(1.0, 0.0, 1.5));
        let rx = iso_client("rx", Vec3::new(8.0, 0.0, 1.5));
        let sweep = sim.frequency_response(&tx, &rx, 128);
        let mags: Vec<f64> = sweep.iter().map(|(_, g)| g.abs()).collect();
        let (lo, hi) = mags
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(l, h), &m| (l.min(m), h.max(m)));
        assert!(
            hi / lo > 2.0,
            "two comparable paths must produce >6 dB ripple: {}",
            hi / lo
        );
    }

    #[test]
    fn offband_surface_obstructs_crossing_link() {
        // A foreign-band surface standing mid-path attenuates the link by
        // its obstruction factor; a transparent (in-band) one does not.
        let band = NamedBand::WiFi5GHz.band();
        let mut sim = ChannelSim::new(surfos_geometry::FloorPlan::new(), band);
        let tx = iso_client("tx", Vec3::new(0.0, 0.0, 1.5));
        let rx = iso_client("rx", Vec3::new(6.0, 0.0, 1.5));
        let clear = sim.rss_dbm(&tx, &rx);

        // A 2.4 GHz surface (large elements) right across the path,
        // blocking 50 % of the power (amplitude ~0.707).
        let geom = ArrayGeometry::new(10, 10, 0.06, 0.06);
        let pose = Pose::wall_mounted(Vec3::new(3.0, 0.0, 1.5), Vec3::X);
        sim.add_surface(
            SurfaceInstance::new("foreign", pose, geom, OperationMode::Transmissive)
                .with_obstruction(0.707),
        );
        let obstructed = sim.rss_dbm(&tx, &rx);
        assert!(
            (clear - obstructed - 3.0).abs() < 1.5,
            "expected ~3 dB blocking: clear={clear:.1} obstructed={obstructed:.1}"
        );

        // Transparent surfaces change nothing.
        sim.surface_mut(0).obstruction_amplitude = 1.0;
        let transparent = sim.rss_dbm(&tx, &rx);
        assert!(
            (transparent - clear).abs() < 0.75,
            "clear={clear:.1} transparent={transparent:.1}"
        );
    }

    #[test]
    fn surface_does_not_obstruct_its_own_paths() {
        // A reflective surface with a harsh obstruction factor still
        // serves its own bounce (legs terminate on its plane).
        let band = NamedBand::MmWave28GHz.band();
        let mut sim = ChannelSim::new(surfos_geometry::FloorPlan::new(), band);
        let geom = ArrayGeometry::half_wavelength(8, 8, band.wavelength_m());
        let pose = Pose::wall_mounted(Vec3::new(0.0, 0.0, 1.5), Vec3::X);
        let idx = sim.add_surface(
            SurfaceInstance::new("s", pose, geom, OperationMode::Reflective).with_obstruction(0.01),
        );
        let tx = iso_client("tx", Vec3::new(3.0, 2.0, 1.5));
        let rx = iso_client("rx", Vec3::new(3.0, -2.0, 1.5));
        let lin = sim.linearize(&tx, &rx);
        assert!(
            lin.linear.iter().any(|t| t.surface == idx),
            "surface path must survive its own obstruction factor"
        );
    }

    #[test]
    fn surface_lookup() {
        let (mut sim, _) = apartment_sim();
        let pose = Pose::wall_mounted(Vec3::new(1.0, 1.0, 1.5), Vec3::X);
        let geom = ArrayGeometry::new(2, 2, 0.005, 0.005);
        let idx = sim.add_surface(SurfaceInstance::new(
            "findme",
            pose,
            geom,
            OperationMode::Reflective,
        ));
        assert_eq!(sim.surface_index("findme"), Some(idx));
        assert_eq!(sim.surface_index("nope"), None);
    }

    // ── Evaluation-engine tests ────────────────────────────────────────

    /// A sim with enough structure that every path family is live: walls,
    /// a blocker off to the side, and two surfaces (so cascades exist).
    fn rich_sim() -> (ChannelSim, Endpoint, Endpoint) {
        let scen = two_room_apartment();
        let band = NamedBand::MmWave28GHz.band();
        let mut sim = ChannelSim::new(scen.plan.clone(), band);
        let geom = ArrayGeometry::half_wavelength(8, 8, band.wavelength_m());
        let pose = *scen.anchor("bedroom-north").unwrap();
        sim.add_surface(SurfaceInstance::new(
            "s0",
            pose,
            geom,
            OperationMode::Reflective,
        ));
        let pose2 = Pose::wall_mounted(Vec3::new(4.9, 3.2, 1.5), Vec3::new(-1.0, 0.2, 0.0));
        sim.add_surface(SurfaceInstance::new(
            "s1",
            pose2,
            geom,
            OperationMode::Reflective,
        ));
        sim.add_blocker(Blocker::person(Vec3::xy(2.0, 2.0)));
        let ap = Endpoint::access_point("ap0", scen.ap_pose);
        let rx = iso_client("c", Vec3::new(6.0, 1.0, 1.2));
        (sim, ap, rx)
    }

    #[test]
    fn trace_once_linearize_matches_direct_path_math() {
        // The trace/evaluate split must reproduce the fresh trace bit for
        // bit at the trace band.
        let (sim, ap, rx) = rich_sim();
        let fresh = sim.linearize(&ap, &rx);
        let replay = sim.trace(&ap, &rx).linearize_at(&sim.band);
        assert_eq!(fresh.constant, replay.constant);
        assert_eq!(fresh.linear.len(), replay.linear.len());
        for (a, b) in fresh.linear.iter().zip(&replay.linear) {
            assert_eq!(a.surface, b.surface);
            assert_eq!(a.coeffs, b.coeffs);
        }
        assert_eq!(fresh.bilinear.len(), replay.bilinear.len());
        for (a, b) in fresh.bilinear.iter().zip(&replay.bilinear) {
            assert_eq!((a.first, a.second), (b.first, b.second));
            assert_eq!(a.alpha, b.alpha);
            assert_eq!(a.beta, b.beta);
        }
    }

    #[test]
    fn frequency_response_matches_naive_retrace() {
        let (sim, ap, rx) = rich_sim();
        let fast = sim.frequency_response(&ap, &rx, 64);
        let naive = sim.frequency_response_naive(&ap, &rx, 64);
        assert_eq!(fast.len(), naive.len());
        let mut max_rel: f64 = 0.0;
        for ((f1, g1), (f2, g2)) in fast.iter().zip(&naive) {
            assert_eq!(f1, f2);
            let scale = g2.abs().max(1e-30);
            max_rel = max_rel.max((*g1 - *g2).abs() / scale);
        }
        // The sweep evaluator's phasor recurrence assumes an affine grid;
        // the FP rounding of each actual grid frequency (~µHz at 28 GHz,
        // over ~10 m paths) bounds the phase deviation near 1e-12 rad.
        assert!(max_rel < 1e-10, "max relative deviation {max_rel:.3e}");
    }

    #[test]
    fn sweep_soa_matches_scalar_reference_within_ulp_bound() {
        // The SoA sweep arm reassociates only the cross-element sums; every
        // per-element value is bit-identical to the scalar reference arm.
        // Bound the deviation per probe: components that don't cancel must
        // sit within a small ULP distance, and cancelled components (whose
        // ULPs overstate the error) within the kernels' absolute
        // reassociation bound `O(n·ε·Σ|termᵢ|)`, with `Σ|termᵢ|` proxied
        // by the probe's gain magnitude.
        use surfos_em::ulp::ulp_distance_f64;
        const MAX_ULPS: u64 = 1 << 14;

        // A corridor of metal walls: many specular bounces, no surfaces —
        // the building-bench path mix.
        let mut corridor = surfos_geometry::FloorPlan::new();
        for i in 0..6 {
            let y = -2.0 + 5.0 * i as f64;
            corridor.add_wall(surfos_geometry::Wall::new(
                Vec3::xy(0.0, y),
                Vec3::xy(30.0, y),
                3.0,
                surfos_geometry::Material::Metal,
            ));
        }
        let band = NamedBand::MmWave28GHz.band();
        let corridor_sim = ChannelSim::new(corridor, band);
        let corridor_tx = iso_client("tx", Vec3::new(1.0, 0.5, 1.5));
        let corridor_rx = iso_client("rx", Vec3::new(25.0, 1.0, 1.4));

        let (rich, rich_ap, rich_rx) = rich_sim();
        for (sim, tx, rx) in [
            (&rich, &rich_ap, &rich_rx),
            (&corridor_sim, &corridor_tx, &corridor_rx),
        ] {
            let trace = sim.trace(tx, rx);
            let responses = sim.responses();
            let (lo, hi) = (sim.band.low_hz(), sim.band.high_hz());
            let n = 64;
            let probes: Vec<Band> = (0..n)
                .map(|i| {
                    let f = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                    Band::new(f, sim.band.bandwidth_hz.min(f))
                })
                .collect();
            let soa = trace.sweep_evaluate(&probes, &responses);
            let scalar = trace.sweep_evaluate_scalar(&probes, &responses);
            assert_eq!(soa.len(), scalar.len());
            assert!(scalar.iter().any(|g| g.abs() > 0.0), "degenerate scene");
            for (i, (a, b)) in soa.iter().zip(&scalar).enumerate() {
                let scale = b.abs();
                for (x, y) in [(a.re, b.re), (a.im, b.im)] {
                    assert!(
                        ulp_distance_f64(x, y) <= MAX_ULPS || (x - y).abs() <= scale * 1e-11,
                        "probe {i}: {x:e} vs {y:e} (|h| = {scale:e})"
                    );
                }
            }
        }
    }

    #[test]
    fn heatmap_parallel_matches_serial_bitwise() {
        let (sim, ap, _) = rich_sim();
        let scen = two_room_apartment();
        let grid = scen.target().sample_grid(6, 6, 1.2, 0.3);
        let template = iso_client("probe", Vec3::ZERO);
        // Serial reference computed with the exact public per-point math.
        let responses = sim.responses();
        let serial: Vec<f64> = grid
            .iter()
            .map(|p| {
                let mut rx = template.clone();
                rx.pose.position = *p;
                ap.tx_power_dbm
                    + amplitude_to_db(sim.linearize(&ap, &rx).evaluate(&responses).abs())
            })
            .collect();
        let map = sim.rss_heatmap(&ap, &grid, &template);
        assert_eq!(
            serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            map.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "parallel heatmap must be bit-identical to serial"
        );
    }

    #[test]
    fn cache_hits_over_unchanged_geometry() {
        let (sim, ap, rx) = rich_sim();
        let first = sim.cached_linearization(&ap, &rx);
        let second = sim.cached_linearization(&ap, &rx);
        assert!(
            Arc::ptr_eq(&first, &second),
            "second query must reuse the cached linearization"
        );
        assert_eq!(
            sim.gain(&ap, &rx),
            sim.linearize(&ap, &rx).evaluate(&sim.responses())
        );
    }

    #[test]
    fn cache_invalidated_by_surface_mutation() {
        let (mut sim, ap, rx) = rich_sim();
        let before = sim.gain(&ap, &rx);
        sim.surface_mut(0).pose.position.z += 0.3;
        let after = sim.gain(&ap, &rx);
        assert_ne!(before, after, "moved surface must change the gain");
        assert_eq!(after, sim.linearize(&ap, &rx).evaluate(&sim.responses()));
    }

    #[test]
    fn cache_invalidated_by_blocker_mutation() {
        let (mut sim, ap, rx) = rich_sim();
        let before = sim.gain(&ap, &rx);
        sim.add_blocker(Blocker::person(rx.position()));
        let after = sim.gain(&ap, &rx);
        assert_ne!(before, after, "new blocker must change the gain");
        assert_eq!(after, sim.linearize(&ap, &rx).evaluate(&sim.responses()));
        sim.clear_blockers();
        sim.add_blocker(Blocker::person(Vec3::xy(2.0, 2.0)));
        assert_eq!(
            before,
            sim.gain(&ap, &rx),
            "original blockers, original gain"
        );
    }

    #[test]
    fn cache_invalidated_by_band_change() {
        let (mut sim, ap, rx) = rich_sim();
        let at_28 = sim.gain(&ap, &rx);
        sim.band = NamedBand::MmWave60GHz.band();
        let at_60 = sim.gain(&ap, &rx);
        assert_ne!(at_28, at_60, "band change must re-trace");
        assert_eq!(at_60, sim.linearize(&ap, &rx).evaluate(&sim.responses()));
        sim.band = NamedBand::MmWave28GHz.band();
        assert_eq!(at_28, sim.gain(&ap, &rx));
    }

    #[test]
    fn response_programming_keeps_cache_warm_and_correct() {
        let (mut sim, ap, rx) = rich_sim();
        let lin = sim.cached_linearization(&ap, &rx);
        let term = lin.linear.iter().find(|t| t.surface == 0).expect("serves");
        let phases: Vec<f64> = term.coeffs.iter().map(|c| -c.arg()).collect();
        sim.set_surface_phases(0, &phases);
        // Same Arc (no invalidation) …
        assert!(Arc::ptr_eq(&lin, &sim.cached_linearization(&ap, &rx)));
        // … and still the correct answer for the *new* responses.
        assert_eq!(
            sim.gain(&ap, &rx),
            sim.linearize(&ap, &rx).evaluate(&sim.responses())
        );
    }

    #[test]
    fn clone_carries_cache_stats_with_cold_entries() {
        let (sim, ap, rx) = rich_sim();
        let g = sim.gain(&ap, &rx);
        let g2 = sim.gain(&ap, &rx); // one hit on the original
        assert_eq!(g, g2);
        let stats = sim.cache_stats();
        let copy = sim.clone();
        let s = copy.cache_stats();
        assert_eq!(
            (s.hits, s.misses, s.refreshes, s.evictions),
            (stats.hits, stats.misses, stats.refreshes, stats.evictions),
            "lifetime counters must carry into the clone"
        );
        assert_eq!(s.len, 0, "entries themselves are not cloned");
        assert_eq!(g, copy.gain(&ap, &rx));
    }

    #[test]
    fn scene_index_shared_within_epoch_and_rebuilt_on_mutation() {
        let (mut sim, ap, rx) = rich_sim();
        let first = sim.scene_index();
        let _ = sim.gain(&ap, &rx);
        assert!(
            Arc::ptr_eq(&first, &sim.scene_index()),
            "unchanged geometry must reuse the index"
        );
        // Clones share it too.
        assert!(Arc::ptr_eq(&first, &sim.clone().scene_index()));
        // Band changes don't shape geometry.
        sim.band = NamedBand::MmWave60GHz.band();
        assert!(Arc::ptr_eq(&first, &sim.scene_index()));
        // Blocker mutations install a fresh (refit) index …
        sim.add_blocker(Blocker::person(Vec3::xy(1.0, 1.0)));
        let refitted = sim.scene_index();
        assert!(!Arc::ptr_eq(&first, &refitted));
        // … that shares the structure (walls, elements) untouched.
        assert!(
            Arc::ptr_eq(first.structure(), refitted.structure()),
            "blocker mutation must refit, not rebuild, the structure"
        );
        // Structure mutations rebuild everything.
        sim.invalidate_cache();
        let rebuilt = sim.scene_index();
        assert!(!Arc::ptr_eq(first.structure(), rebuilt.structure()));
    }

    #[test]
    fn blocker_step_refits_never_rebuilds() {
        let (mut sim, ap, rx) = rich_sim();
        let _ = sim.gain(&ap, &rx);
        let before = sim.index_stats();
        let (structure0, _) = sim.epochs();
        let walk = BlockerWalk::new(vec![Vec3::xy(1.0, 1.0), Vec3::xy(4.0, 2.5)], 1.4);
        let base = sim.scene_index();
        for k in 0..10 {
            sim.set_blockers(vec![walk.blocker_at(k as f64 * 0.1)]);
            let index = sim.scene_index();
            assert!(
                Arc::ptr_eq(base.structure(), index.structure()),
                "walk tick {k} must keep the wall BVH / structure Arc"
            );
            let _ = sim.gain(&ap, &rx);
        }
        let after = sim.index_stats();
        assert_eq!(after.builds, before.builds, "walk ticks must never rebuild");
        assert_eq!(after.refits, before.refits + 10, "each tick refits once");
        let (structure1, _) = sim.epochs();
        assert_eq!(
            structure0, structure1,
            "blocker-only steps must not bump the structure epoch"
        );
    }

    #[test]
    fn blocker_refresh_is_bit_identical_to_cold_retrace() {
        let (mut sim, ap, rx) = rich_sim();
        let _ = sim.cached_linearization(&ap, &rx); // populate
        for pos in [
            Vec3::xy(3.0, 1.1),
            Vec3::xy(5.5, 1.0),
            Vec3::xy(2.0, 2.0),
            Vec3::xy(7.0, 2.8),
        ] {
            sim.set_blockers(vec![Blocker::person(pos)]);
            let refreshed = sim.cached_linearization(&ap, &rx);
            let cold = sim.linearize(&ap, &rx);
            assert_eq!(refreshed.constant, cold.constant, "at {pos:?}");
            assert_eq!(refreshed.linear.len(), cold.linear.len());
            for (a, b) in refreshed.linear.iter().zip(&cold.linear) {
                assert_eq!(a.surface, b.surface);
                assert_eq!(a.coeffs, b.coeffs);
            }
            assert_eq!(refreshed.bilinear.len(), cold.bilinear.len());
            for (a, b) in refreshed.bilinear.iter().zip(&cold.bilinear) {
                assert_eq!((a.first, a.second), (b.first, b.second));
                assert_eq!(a.alpha, b.alpha);
                assert_eq!(a.beta, b.beta);
            }
        }
        let s = sim.cache_stats();
        assert_eq!(s.refreshes, 4, "each blocker step must refresh, not miss");
        assert_eq!(s.misses, 1, "only the initial population misses");
    }

    #[test]
    fn unaffected_link_keeps_linearization_arc_across_blocker_step() {
        // A blocker that never crosses any of the link's paths must leave
        // the cached Arc untouched (the link stays warm).
        let band = NamedBand::MmWave28GHz.band();
        let mut sim = ChannelSim::new(surfos_geometry::FloorPlan::new(), band);
        let tx = iso_client("tx", Vec3::new(0.0, 0.0, 1.5));
        let rx = iso_client("rx", Vec3::new(5.0, 0.0, 1.5));
        sim.add_blocker(Blocker::person(Vec3::xy(10.0, 10.0)));
        let first = sim.cached_linearization(&tx, &rx);
        sim.set_blockers(vec![Blocker::person(Vec3::xy(11.0, 10.0))]);
        let second = sim.cached_linearization(&tx, &rx);
        assert!(
            Arc::ptr_eq(&first, &second),
            "far-away blocker motion must not re-assemble the linearization"
        );
        // And a crossing blocker does change it.
        sim.set_blockers(vec![Blocker::person(Vec3::xy(2.5, 0.0))]);
        let third = sim.cached_linearization(&tx, &rx);
        assert!(!Arc::ptr_eq(&first, &third));
        let cold = sim.linearize(&tx, &rx);
        assert_eq!(third.constant, cold.constant);
    }

    #[test]
    fn trace_sweep_matches_serial() {
        let (sim, ap, _) = rich_sim();
        let template = iso_client("probe", Vec3::ZERO);
        let points = [
            Vec3::new(6.0, 1.0, 1.2),
            Vec3::new(2.5, 1.8, 1.2),
            Vec3::new(7.5, 2.5, 1.2),
        ];
        for (traced, p) in sim.trace_sweep(&ap, &points, &template).iter().zip(&points) {
            let mut probe = template.clone();
            probe.pose.position = *p;
            let lin = traced.linearize_at(&sim.band);
            let serial = sim.linearize(&ap, &probe);
            assert_eq!(lin.constant, serial.constant);
            assert_eq!(lin.linear.len(), serial.linear.len());
        }
    }

    #[test]
    fn response_programming_keeps_scene_index() {
        let (mut sim, _, _) = rich_sim();
        let first = sim.scene_index();
        sim.set_surface_phases(0, &vec![0.5; sim.surfaces()[0].len()]);
        assert!(
            Arc::ptr_eq(&first, &sim.scene_index()),
            "programming responses must not rebuild the index"
        );
    }

    #[test]
    fn linearize_batch_matches_serial_bitwise() {
        let (sim, ap, rx) = rich_sim();
        let rx2 = iso_client("c2", Vec3::new(2.5, 1.8, 1.2));
        let pairs = [(&ap, &rx), (&ap, &rx2), (&rx, &rx2)];
        let batch = sim.linearize_batch(&pairs);
        assert_eq!(batch.len(), pairs.len());
        for ((tx, rx), lin) in pairs.iter().zip(&batch) {
            let serial = sim.linearize(tx, rx);
            assert_eq!(serial.constant, lin.constant);
            assert_eq!(serial.linear.len(), lin.linear.len());
            for (a, b) in serial.linear.iter().zip(&lin.linear) {
                assert_eq!(a.surface, b.surface);
                assert_eq!(a.coeffs, b.coeffs);
            }
            assert_eq!(serial.bilinear.len(), lin.bilinear.len());
            for (a, b) in serial.bilinear.iter().zip(&lin.bilinear) {
                assert_eq!((a.first, a.second), (b.first, b.second));
                assert_eq!(a.alpha, b.alpha);
                assert_eq!(a.beta, b.beta);
            }
        }
    }

    #[test]
    fn lru_eviction_keeps_hot_endpoints() {
        // A probe sweep that overflows CACHE_CAP must not evict the pair
        // that is re-queried throughout the sweep.
        let band = NamedBand::WiFi5GHz.band();
        let sim = ChannelSim::new(surfos_geometry::FloorPlan::new(), band);
        let ap = iso_client("ap", Vec3::new(0.0, 0.0, 2.0));
        let hot = iso_client("hot", Vec3::new(3.0, 1.0, 1.2));
        let hot_lin = sim.cached_linearization(&ap, &hot);
        for i in 0..(CACHE_CAP + CACHE_CAP / 2) {
            let probe = iso_client("p", Vec3::new(1.0 + i as f64 * 1e-4, 2.0, 1.2));
            let _ = sim.cached_linearization(&ap, &probe);
            if i % 64 == 0 {
                let again = sim.cached_linearization(&ap, &hot);
                assert!(
                    Arc::ptr_eq(&hot_lin, &again),
                    "hot pair evicted at sweep step {i}"
                );
            }
        }
        assert!(
            Arc::ptr_eq(&hot_lin, &sim.cached_linearization(&ap, &hot)),
            "hot pair must survive the whole sweep"
        );
        let len = sim.cache.lock().unwrap().map.len();
        assert!(len <= CACHE_CAP, "cache exceeded its cap: {len}");
    }
}
