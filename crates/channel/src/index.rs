//! The scene index: every per-geometry precomputation path tracing reuses
//! across segments, links and endpoints.
//!
//! A [`SceneIndex`] bundles four things, all functions of geometry alone
//! (never of the band, endpoints or programmed responses):
//!
//! - a [`WallIndex`] (BVH) over the floor plan's walls,
//! - padded bounding boxes for the dynamic blockers,
//! - padded aperture boxes for the obstructing surfaces
//!   (`obstruction_amplitude < 1.0`), and
//! - the world positions of every surface element, so `trace_surface` /
//!   `trace_cascade` stop re-deriving thousands of pose transforms per link.
//!
//! The first, third and fourth are *structural*: they depend only on walls
//! and surfaces, which mutate rarely. They live behind one shared
//! [`SceneStructure`] `Arc`. The blocker boxes are the *dynamic* part —
//! people walk every tick — so a blocker-only mutation calls
//! [`SceneIndex::refit_blockers`], which recomputes just the `O(blockers)`
//! boxes and shares the structure untouched, instead of rebuilding the wall
//! BVH and re-deriving element positions.
//!
//! [`ChannelSim`](crate::sim::ChannelSim) builds one per structure epoch,
//! refits it per blocker epoch, and shares it (via `Arc`) across every
//! trace, batch fan-out and kernel tick. All culling through the index is
//! conservative — candidate supersets only — so indexed results are
//! bit-identical to the brute-force scan.

use std::sync::Arc;

use surfos_geometry::bvh::{Aabb, AabbBank};
use surfos_geometry::plan::WallIndex;
use surfos_geometry::{FloorPlan, Pose, Vec3};

use crate::dynamics::Blocker;
use crate::surface::SurfaceInstance;

/// Conservative padding on blocker and surface-aperture boxes. The exact
/// tests accept boundary hits (closest approach exactly at a blocker's
/// radius, crossings exactly on an aperture edge); 2 mm of slack keeps every
/// acceptable hit strictly inside its box, clear of face-equality rounding.
const PRIM_AABB_PAD: f64 = 2e-3;

/// Element positions cached for one surface, with the pose and count they
/// were derived from so lookups can reject a stale or mismatched surface.
#[derive(Debug)]
struct CachedElements {
    pose: Pose,
    positions: Vec<Vec3>,
}

/// The structural (walls + surfaces) slice of a [`SceneIndex`]: everything
/// that is invariant under blocker motion. Shared via `Arc` across blocker
/// refits, so a walk tick never rebuilds the wall BVH or re-derives element
/// positions.
#[derive(Debug)]
pub struct SceneStructure {
    walls: WallIndex,
    obstructing: Vec<(usize, Aabb)>,
    /// Eight-lane interval bank over the aperture boxes in `obstructing`
    /// (bank index `i` ↔ `obstructing[i]`), so per-segment aperture scans
    /// test eight boxes per vector step. Conservative: survivors re-run
    /// the exact box + aperture tests.
    aperture_bank: AabbBank,
    elements: Vec<CachedElements>,
}

/// Per-epoch spatial acceleration for one scene. See the module docs;
/// build with [`SceneIndex::build`], refit with
/// [`SceneIndex::refit_blockers`].
#[derive(Debug)]
pub struct SceneIndex {
    structure: Arc<SceneStructure>,
    blocker_boxes: Vec<Aabb>,
    /// Interval bank over `blocker_boxes` (same order); rebuilt with them
    /// on every [`SceneIndex::refit_blockers`].
    blocker_bank: AabbBank,
}

fn blocker_boxes(blockers: &[Blocker]) -> Vec<Aabb> {
    blockers
        .iter()
        .map(|b| b.aabb().grown(PRIM_AABB_PAD))
        .collect()
}

impl SceneIndex {
    /// Builds the index for a scene. Cost is `O(walls · log walls +
    /// blockers + Σ elements)` — paid once per structure epoch, not per
    /// link.
    pub fn build(plan: &FloorPlan, blockers: &[Blocker], surfaces: &[SurfaceInstance]) -> Self {
        let walls = plan.build_wall_index();
        // Size of the packed tree this index will traverse — building-scale
        // plans make this worth watching next to `nodes_visited`.
        surfos_obs::gauge("channel.index.bvh_nodes", walls.bvh().node_count() as f64);
        let obstructing: Vec<(usize, Aabb)> = surfaces
            .iter()
            .enumerate()
            .filter(|(_, s)| s.obstruction_amplitude < 1.0)
            .map(|(i, s)| (i, s.aperture_aabb().grown(PRIM_AABB_PAD)))
            .collect();
        let aperture_bank = AabbBank::new(&obstructing.iter().map(|&(_, b)| b).collect::<Vec<_>>());
        let boxes = blocker_boxes(blockers);
        let blocker_bank = AabbBank::new(&boxes);
        SceneIndex {
            structure: Arc::new(SceneStructure {
                walls,
                obstructing,
                aperture_bank,
                elements: surfaces
                    .iter()
                    .map(|s| CachedElements {
                        pose: s.pose,
                        positions: (0..s.len()).map(|e| s.element_world_position(e)).collect(),
                    })
                    .collect(),
            }),
            blocker_boxes: boxes,
            blocker_bank,
        }
    }

    /// A new index for the same walls and surfaces but a moved/changed
    /// blocker set: the structure `Arc` is shared untouched and only the
    /// `O(blockers)` padded boxes are recomputed. Bit-identical to a full
    /// [`SceneIndex::build`] for the same scene — the boxes come from the
    /// same expression — at a fraction of the cost.
    pub fn refit_blockers(&self, blockers: &[Blocker]) -> SceneIndex {
        let boxes = blocker_boxes(blockers);
        let blocker_bank = AabbBank::new(&boxes);
        SceneIndex {
            structure: Arc::clone(&self.structure),
            blocker_boxes: boxes,
            blocker_bank,
        }
    }

    /// The shared structural slice. Exposed so callers can assert (via
    /// `Arc::ptr_eq`) that blocker-only mutations never rebuild it.
    pub fn structure(&self) -> &Arc<SceneStructure> {
        &self.structure
    }

    /// The wall BVH.
    pub fn walls(&self) -> &WallIndex {
        &self.structure.walls
    }

    /// Padded blocker boxes, in blocker order (parallel to the scene's
    /// blocker slice).
    pub(crate) fn blocker_boxes(&self) -> &[Aabb] {
        &self.blocker_boxes
    }

    /// The 8-lane interval bank over [`Self::blocker_boxes`] (same order).
    /// Candidates are a conservative superset of the boxes the exact
    /// segment test accepts; callers re-run the exact test per survivor.
    pub(crate) fn blocker_bank(&self) -> &AabbBank {
        &self.blocker_bank
    }

    /// `(surface index, padded aperture box)` for each obstructing surface,
    /// in deployment order.
    pub(crate) fn obstructing(&self) -> &[(usize, Aabb)] {
        &self.structure.obstructing
    }

    /// The 8-lane interval bank over [`Self::obstructing`]'s aperture
    /// boxes (bank index `i` ↔ `obstructing()[i]`). Conservative, like
    /// [`Self::blocker_bank`].
    pub(crate) fn aperture_bank(&self) -> &AabbBank {
        &self.structure.aperture_bank
    }

    /// The cached element world positions of surface `index`, or `None` if
    /// the index is out of range or the surface does not match the one the
    /// cache was built from (pose or element count changed) — callers then
    /// fall back to computing positions directly. The positions are exactly
    /// what [`SurfaceInstance::element_world_position`] returns, bit for
    /// bit.
    pub(crate) fn element_positions(
        &self,
        index: usize,
        surface: &SurfaceInstance,
    ) -> Option<&[Vec3]> {
        let cached = self.structure.elements.get(index)?;
        (cached.positions.len() == surface.len() && cached.pose == surface.pose)
            .then_some(cached.positions.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surfos_geometry::scenario::two_room_apartment;

    #[test]
    fn refit_shares_structure_and_matches_full_build() {
        let scen = two_room_apartment();
        let blockers = [Blocker::person(Vec3::xy(2.0, 2.0))];
        let index = SceneIndex::build(&scen.plan, &blockers, &[]);
        let moved = [Blocker::person(Vec3::xy(3.5, 1.0))];
        let refitted = index.refit_blockers(&moved);
        assert!(
            Arc::ptr_eq(index.structure(), refitted.structure()),
            "refit must share the structure Arc"
        );
        let rebuilt = SceneIndex::build(&scen.plan, &moved, &[]);
        assert_eq!(refitted.blocker_boxes(), rebuilt.blocker_boxes());
    }

    #[test]
    fn refit_handles_count_changes() {
        let scen = two_room_apartment();
        let index = SceneIndex::build(&scen.plan, &[], &[]);
        let crowd = [
            Blocker::person(Vec3::xy(1.0, 1.0)),
            Blocker::person(Vec3::xy(2.0, 2.0)),
        ];
        let refitted = index.refit_blockers(&crowd);
        assert_eq!(refitted.blocker_boxes().len(), 2);
        assert!(Arc::ptr_eq(index.structure(), refitted.structure()));
        assert!(refitted.refit_blockers(&[]).blocker_boxes().is_empty());
    }
}
