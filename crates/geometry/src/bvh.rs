//! Axis-aligned bounding boxes and a packed, SAH-built bounding-volume
//! hierarchy for conservative segment queries.
//!
//! Ray tracing asks one geometric question over and over: *which primitives
//! might this segment touch?* A brute scan answers it in `O(n)` per segment;
//! the [`Bvh`] here answers it in `O(log n + hits)`. Queries are
//! **conservative**: they yield a superset of the truly-intersected
//! primitives (a candidate may still miss under the exact test), and never
//! drop a true hit — callers run the exact intersection test on each
//! candidate, so results are bit-identical to the brute scan.
//!
//! ## Construction: binned SAH, median fallback
//!
//! [`Bvh::build`] partitions with the **surface-area heuristic**: each
//! range's centroids are scattered into [`SAH_BINS`] equal-width bins along
//! the widest centroid axis, and the split plane minimizing
//! `C_trav + C_isect · (n_L·A_L + n_R·A_R) / A_parent` is chosen by a
//! prefix/suffix area sweep. SAH packs spatially coherent primitives under
//! tight boxes, which is what keeps traversal sublinear on building-scale
//! plans (1000s of walls) where the room/corridor structure is highly
//! non-uniform. When SAH degenerates — coincident centroids, every centroid
//! in one bin, a zero-area node, or a range deeper than the SAH depth
//! limit — the builder falls back to the median split, which always makes
//! progress. There is one builder: the tree's shape only decides traversal
//! cost, never which hits a query reports, so the brute scan is the
//! equivalence oracle, not a second tree.
//!
//! ## Layout: packed 32-byte nodes
//!
//! Nodes live in one contiguous `Vec` of 32-byte entries: bounds squeezed
//! to `6 × f32` (minima rounded down, maxima rounded up, so the packed box
//! never shrinks below the exact `f64` box — conservatism survives the
//! narrowing) plus one word packing the leaf count with the first-primitive
//! slot (leaf) or the left-child index (interior). Sibling children are
//! adjacent (`left`, `left + 1`), so a traversal that pops one sibling
//! prefetches the other and the whole pair spans a single 64-byte cache
//! line.

use crate::vec3::Vec3;
use surfos_em::simd::{Backend, F32x8, SimdF32x8, SimdMask8};

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// The empty box: unions as identity, intersects nothing.
    pub fn empty() -> Self {
        Aabb {
            min: Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
            max: Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// The box spanning two corners (normalized per axis).
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// The tightest box around a set of points.
    pub fn from_points(points: impl IntoIterator<Item = Vec3>) -> Self {
        let mut out = Self::empty();
        for p in points {
            out.min = out.min.min(p);
            out.max = out.max.max(p);
        }
        out
    }

    /// The union of two boxes.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// The box grown by `pad` on every face. Padding is how callers make
    /// queries conservative against exact-test tolerances (endpoint-graze
    /// margins, boundary `<=` comparisons).
    pub fn grown(&self, pad: f64) -> Aabb {
        let d = Vec3::new(pad, pad, pad);
        Aabb {
            min: self.min - d,
            max: self.max + d,
        }
    }

    /// The box centre.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Surface area `2·(wx·wy + wy·wz + wz·wx)` — the SAH cost weight.
    /// Zero for empty (inverted) boxes; degenerate flat boxes contribute
    /// their cross-section, which is exactly what the heuristic wants.
    pub fn surface_area(&self) -> f64 {
        let d = self.max - self.min;
        if d.x < 0.0 || d.y < 0.0 || d.z < 0.0 {
            return 0.0;
        }
        2.0 * (d.x * d.y + d.y * d.z + d.z * d.x)
    }

    fn axis(v: Vec3, axis: usize) -> f64 {
        match axis {
            0 => v.x,
            1 => v.y,
            _ => v.z,
        }
    }

    /// Slab test: does the closed segment `from → to` touch the box?
    ///
    /// Never returns a false negative for a segment that contains a point
    /// strictly inside the box — the property the conservative-culling
    /// contract rests on. Degenerate (axis-parallel) directions fall back to
    /// a containment check on that axis.
    pub fn intersects_segment(&self, from: Vec3, to: Vec3) -> bool {
        if self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z {
            return false; // empty (inverted) box: the slab swap would pass it
        }
        let mut t0 = 0.0f64;
        let mut t1 = 1.0f64;
        for axis in 0..3 {
            let o = Self::axis(from, axis);
            let d = Self::axis(to, axis) - o;
            let lo = Self::axis(self.min, axis);
            let hi = Self::axis(self.max, axis);
            if d.abs() < 1e-12 {
                if o < lo || o > hi {
                    return false;
                }
                continue;
            }
            let inv = 1.0 / d;
            let (mut a, mut b) = ((lo - o) * inv, (hi - o) * inv);
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            t0 = t0.max(a);
            t1 = t1.min(b);
            if t0 > t1 {
                return false;
            }
        }
        true
    }
}

/// The largest `f32` not above `v`: packed node *minima* round down so the
/// narrowed box never excludes a point the exact `f64` box contains.
fn round_down(v: f64) -> f32 {
    let f = v as f32;
    if (f as f64) > v {
        f.next_down()
    } else {
        f
    }
}

/// The smallest `f32` not below `v`: packed node *maxima* round up.
fn round_up(v: f64) -> f32 {
    let f = v as f32;
    if (f as f64) < v {
        f.next_up()
    } else {
        f
    }
}

/// Bits of `word` carrying the leaf start / left-child index.
const PAYLOAD_BITS: u32 = 27;
const PAYLOAD_MASK: u32 = (1 << PAYLOAD_BITS) - 1;

/// One node of the packed tree: bounds squeezed to `f32` (conservatively
/// rounded outward, see [`round_down`]/[`round_up`]) plus one word whose
/// top 5 bits hold the leaf count (0 marks an interior node) and whose low
/// 27 bits hold either the first primitive slot in `order` (leaf) or the
/// left-child index (interior; the right child is adjacent at `left + 1`).
/// `align(32)` pads the 28 content bytes to a 32-byte stride, so one
/// sibling pair spans a single 64-byte cache line.
#[repr(C, align(32))]
#[derive(Debug, Clone, Copy)]
struct PackedNode {
    min: [f32; 3],
    max: [f32; 3],
    word: u32,
}

impl PackedNode {
    const PLACEHOLDER: PackedNode = PackedNode {
        min: [0.0; 3],
        max: [0.0; 3],
        word: 0,
    };

    fn new(aabb: &Aabb, word: u32) -> Self {
        PackedNode {
            min: [
                round_down(aabb.min.x),
                round_down(aabb.min.y),
                round_down(aabb.min.z),
            ],
            max: [
                round_up(aabb.max.x),
                round_up(aabb.max.y),
                round_up(aabb.max.z),
            ],
            word,
        }
    }

    fn leaf_word(start: usize, count: usize) -> u32 {
        debug_assert!((1..=MAX_LEAF_SIZE).contains(&count));
        ((count as u32) << PAYLOAD_BITS) | start as u32
    }

    fn interior_word(left: usize) -> u32 {
        left as u32
    }

    /// Leaf primitive count; 0 for interior nodes.
    fn count(&self) -> usize {
        (self.word >> PAYLOAD_BITS) as usize
    }

    /// Leaf start slot or interior left-child index.
    fn payload(&self) -> usize {
        (self.word & PAYLOAD_MASK) as usize
    }

    /// The packed bounds widened back to `f64` (exact — every `f32` is a
    /// representable `f64`), a superset of the box the node was packed from.
    fn aabb(&self) -> Aabb {
        Aabb {
            min: Vec3::new(self.min[0] as f64, self.min[1] as f64, self.min[2] as f64),
            max: Vec3::new(self.max[0] as f64, self.max[1] as f64, self.max[2] as f64),
        }
    }
}

/// Primitives per leaf below which a range is never split: small enough to
/// cull well, large enough that the tree stays shallow.
const LEAF_SIZE: usize = 4;

/// SAH may terminate a range into a leaf up to this size when every
/// candidate split costs more than testing the primitives directly. Must
/// fit the 5 leaf-count bits (≤ 31).
const MAX_LEAF_SIZE: usize = 16;

/// Centroid bins per axis for the SAH sweep.
pub const SAH_BINS: usize = 16;

/// SAH cost of one traversal step, relative to [`COST_INTERSECT`].
const COST_TRAVERSAL: f64 = 0.5;

/// SAH cost of one exact primitive test.
const COST_INTERSECT: f64 = 1.0;

/// Below this depth SAH may pick arbitrarily lopsided splits; beyond it the
/// builder forces median splits (balanced halves), bounding total depth at
/// `SAH_DEPTH_LIMIT + ⌈log2 n⌉ < MAX_DEPTH` for any `n ≤ MAX_PRIMS`.
const SAH_DEPTH_LIMIT: usize = 32;

/// Traversal stack capacity; covers the depth bound above.
const MAX_DEPTH: usize = 64;

/// Capacity cap: payloads carry 27 bits and a tree over `n` primitives has
/// at most `2n − 1` nodes, so `n` is held one bit lower.
const MAX_PRIMS: usize = 1 << 26;

/// How a range of primitives gets divided (or not).
enum Split {
    /// SAH found a paying split; `order[lo..mid]` / `order[mid..hi]` are
    /// already partitioned.
    At(usize),
    /// Every candidate split costs more than a leaf of this range.
    Leaf,
    /// SAH degenerated (coincident centroids, one occupied bin, zero-area
    /// node) — divide at the centroid median instead.
    MedianFallback,
}

/// A primitive's own bounds in the packed `f32` layout (conservatively
/// rounded outward like node bounds), stored in *slot* order so packet
/// leaf loops stream through them. Leaf node boxes are unions of up to
/// [`MAX_LEAF_SIZE`] primitives; testing the per-primitive box culls the
/// union's slack before the (much costlier) exact per-candidate test.
#[derive(Debug, Clone, Copy)]
struct PrimBox {
    min: [f32; 3],
    max: [f32; 3],
}

impl PrimBox {
    fn new(aabb: &Aabb) -> Self {
        PrimBox {
            min: [
                round_down(aabb.min.x),
                round_down(aabb.min.y),
                round_down(aabb.min.z),
            ],
            max: [
                round_up(aabb.max.x),
                round_up(aabb.max.y),
                round_up(aabb.max.z),
            ],
        }
    }
}

/// A bounding-volume hierarchy over primitive bounding boxes.
///
/// The tree stores only indices into the caller's primitive array; callers
/// keep primitives in their original order, which is what makes index-order
/// tie-breaking (and thus bit-identical results) possible downstream.
#[derive(Debug, Clone, Default)]
pub struct Bvh {
    nodes: Vec<PackedNode>,
    order: Vec<u32>,
    prim_boxes: Vec<PrimBox>,
}

impl Bvh {
    /// Builds the hierarchy with binned-SAH partitioning (see the module
    /// docs). Deterministic: binning, the cost sweep and the side/index
    /// partition sort depend only on the input boxes.
    ///
    /// # Panics
    /// Panics when `boxes` exceeds the 2²⁶-primitive packing capacity.
    pub fn build(boxes: &[Aabb]) -> Self {
        assert!(
            boxes.len() <= MAX_PRIMS,
            "BVH capacity is {MAX_PRIMS} primitives"
        );
        let timer = surfos_obs::enabled().then(std::time::Instant::now);
        let mut bvh = Bvh {
            nodes: Vec::with_capacity(2 * boxes.len().max(1)),
            order: (0..boxes.len() as u32).collect(),
            prim_boxes: Vec::new(),
        };
        if !boxes.is_empty() {
            bvh.nodes.push(PackedNode::PLACEHOLDER);
            bvh.build_node(boxes, 0, 0, boxes.len(), 0);
            bvh.repack_prim_boxes(boxes);
        }
        if let Some(t0) = timer {
            surfos_obs::observe("geometry.bvh.build_ns", t0.elapsed().as_nanos() as u64);
            surfos_obs::observe("geometry.bvh.build_prims", boxes.len() as u64);
        }
        bvh
    }

    /// Number of indexed primitives.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no primitives are indexed (every query yields nothing).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of packed nodes (leaves + interiors) in the flat array.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn build_node(&mut self, boxes: &[Aabb], node: usize, lo: usize, hi: usize, depth: usize) {
        let mut aabb = Aabb::empty();
        for &i in &self.order[lo..hi] {
            aabb = aabb.union(&boxes[i as usize]);
        }
        let count = hi - lo;
        if count <= LEAF_SIZE {
            self.nodes[node] = PackedNode::new(&aabb, PackedNode::leaf_word(lo, count));
            return;
        }
        let split = if depth < SAH_DEPTH_LIMIT {
            self.sah_split(boxes, lo, hi, &aabb)
        } else {
            Split::MedianFallback
        };
        let mid = match split {
            Split::Leaf => {
                self.nodes[node] = PackedNode::new(&aabb, PackedNode::leaf_word(lo, count));
                return;
            }
            Split::At(mid) => {
                surfos_obs::add("geometry.bvh.sah_splits", 1);
                mid
            }
            Split::MedianFallback => {
                surfos_obs::add("geometry.bvh.median_fallbacks", 1);
                self.median_split(boxes, lo, hi)
            }
        };
        // Allocate the sibling pair adjacently, then recurse into each.
        let left = self.nodes.len();
        self.nodes.push(PackedNode::PLACEHOLDER);
        self.nodes.push(PackedNode::PLACEHOLDER);
        self.nodes[node] = PackedNode::new(&aabb, PackedNode::interior_word(left));
        self.build_node(boxes, left, lo, mid, depth + 1);
        self.build_node(boxes, left + 1, mid, hi, depth + 1);
    }

    /// The widest-axis centroid bounds of `order[lo..hi]`, shared by SAH
    /// and its median fallback.
    fn centroid_spread(&self, boxes: &[Aabb], lo: usize, hi: usize) -> (Aabb, usize) {
        let bounds = Aabb::from_points(
            self.order[lo..hi]
                .iter()
                .map(|&i| boxes[i as usize].center()),
        );
        let spread = bounds.max - bounds.min;
        let axis = if spread.x >= spread.y && spread.x >= spread.z {
            0
        } else if spread.y >= spread.z {
            1
        } else {
            2
        };
        (bounds, axis)
    }

    /// Binned SAH: scatter centroids into [`SAH_BINS`] bins on the widest
    /// centroid axis, sweep the `SAH_BINS − 1` bin boundaries for the
    /// minimum `C_trav + C_isect·(n_L·A_L + n_R·A_R)/A_parent`, and
    /// partition the range at the winner (stable on primitive index, so
    /// construction is deterministic). Degenerate inputs fall back to the
    /// median; ranges where no split beats a direct leaf become leaves.
    fn sah_split(&mut self, boxes: &[Aabb], lo: usize, hi: usize, node_aabb: &Aabb) -> Split {
        let count = hi - lo;
        let (centroid_bounds, axis) = self.centroid_spread(boxes, lo, hi);
        let extent = Aabb::axis(centroid_bounds.max - centroid_bounds.min, axis);
        let parent_area = node_aabb.surface_area();
        if extent < 1e-9 || parent_area <= 0.0 {
            // Coincident centroids (stacked walls, duplicate blockers) or a
            // zero-area node: SAH cannot rank splits, the median can.
            return Split::MedianFallback;
        }
        let origin = Aabb::axis(centroid_bounds.min, axis);
        let scale = SAH_BINS as f64 / extent;
        let bin_of = |b: &Aabb| {
            (((Aabb::axis(b.center(), axis) - origin) * scale) as usize).min(SAH_BINS - 1)
        };
        let mut counts = [0usize; SAH_BINS];
        let mut bounds = [Aabb::empty(); SAH_BINS];
        for &i in &self.order[lo..hi] {
            let b = bin_of(&boxes[i as usize]);
            counts[b] += 1;
            bounds[b] = bounds[b].union(&boxes[i as usize]);
        }
        // Suffix sweep: area/count of everything right of each boundary.
        let mut right_area = [0.0f64; SAH_BINS];
        let mut right_count = [0usize; SAH_BINS];
        let mut acc = Aabb::empty();
        let mut n_acc = 0usize;
        for k in (1..SAH_BINS).rev() {
            acc = acc.union(&bounds[k]);
            n_acc += counts[k];
            right_area[k] = acc.surface_area();
            right_count[k] = n_acc;
        }
        // Prefix sweep over boundaries; strict `<` keeps the leftmost
        // boundary on cost ties, so the choice is deterministic.
        let mut best: Option<(f64, usize, usize)> = None;
        let mut left_box = Aabb::empty();
        let mut left_n = 0usize;
        for k in 1..SAH_BINS {
            left_box = left_box.union(&bounds[k - 1]);
            left_n += counts[k - 1];
            if left_n == 0 || right_count[k] == 0 {
                continue;
            }
            let cost = COST_TRAVERSAL
                + COST_INTERSECT
                    * (left_n as f64 * left_box.surface_area()
                        + right_count[k] as f64 * right_area[k])
                    / parent_area;
            if best.is_none_or(|(c, _, _)| cost < c) {
                best = Some((cost, k, left_n));
            }
        }
        let Some((best_cost, best_k, best_left_n)) = best else {
            return Split::MedianFallback; // every centroid landed in one bin
        };
        if best_cost >= COST_INTERSECT * count as f64 && count <= MAX_LEAF_SIZE {
            return Split::Leaf;
        }
        self.order[lo..hi].sort_unstable_by_key(|&i| (bin_of(&boxes[i as usize]) >= best_k, i));
        Split::At(lo + best_left_n)
    }

    /// Splits at the median centroid along the widest centroid axis (equal
    /// centroids tie-break on primitive index). Always makes progress —
    /// even fully coincident centroids divide by index order — which is why
    /// it backs SAH up.
    fn median_split(&mut self, boxes: &[Aabb], lo: usize, hi: usize) -> usize {
        let (_, axis) = self.centroid_spread(boxes, lo, hi);
        self.order[lo..hi].sort_unstable_by(|&a, &b| {
            Aabb::axis(boxes[a as usize].center(), axis)
                .total_cmp(&Aabb::axis(boxes[b as usize].center(), axis))
                .then(a.cmp(&b))
        });
        lo + (hi - lo) / 2
    }

    /// Recomputes every node's bounds for updated primitive boxes without
    /// re-splitting: the topology and primitive order are kept, only the
    /// box unions are refreshed, bottom-up, in `O(nodes)`.
    ///
    /// This is the moving-primitive fast path — a scene where a few boxes
    /// shift per tick refits instead of rebuilding. Queries stay exactly as
    /// conservative as on a fresh build (every node bounds the union of its
    /// primitives' *current* boxes, re-rounded outward for the packed `f32`
    /// layout); only the split quality is frozen at build time, so
    /// refitting is for perturbations, not for a scene that has been wholly
    /// rearranged.
    ///
    /// # Panics
    /// Panics when `boxes` does not have one box per indexed primitive.
    pub fn refit(&mut self, boxes: &[Aabb]) {
        assert_eq!(
            boxes.len(),
            self.order.len(),
            "refit requires one box per indexed primitive"
        );
        surfos_obs::add("geometry.bvh.refits", 1);
        // The sibling pair is always allocated after its parent, so children
        // sit at higher indices and one reverse sweep sees every child
        // before its parent.
        for idx in (0..self.nodes.len()).rev() {
            let node = self.nodes[idx];
            let count = node.count();
            let aabb = if count > 0 {
                let start = node.payload();
                let mut aabb = Aabb::empty();
                for &i in &self.order[start..start + count] {
                    aabb = aabb.union(&boxes[i as usize]);
                }
                aabb
            } else {
                // Child bounds are already f32-exact, so this union (and
                // its re-pack below) is lossless.
                let left = node.payload();
                self.nodes[left].aabb().union(&self.nodes[left + 1].aabb())
            };
            self.nodes[idx] = PackedNode::new(&aabb, node.word);
        }
        self.repack_prim_boxes(boxes);
    }

    /// Refreshes the slot-ordered per-primitive `f32` boxes from the
    /// current primitive boxes (build and refit both end here).
    fn repack_prim_boxes(&mut self, boxes: &[Aabb]) {
        self.prim_boxes.clear();
        self.prim_boxes
            .extend(self.order.iter().map(|&i| PrimBox::new(&boxes[i as usize])));
    }

    /// Calls `visit` with the index of every primitive whose box the segment
    /// touches (a conservative superset of the exact hits). Visiting order
    /// is deterministic but *not* primitive order — callers that need
    /// ordered results sort by `(t, index)` afterwards.
    ///
    /// Returns early (and `true`) as soon as `visit` returns `true` —
    /// the any-hit fast path `has_los`-style queries use.
    pub fn segment_candidates_until(
        &self,
        from: Vec3,
        to: Vec3,
        mut visit: impl FnMut(usize) -> bool,
    ) -> bool {
        if self.nodes.is_empty() {
            return false;
        }
        let mut nodes_visited = 0u64;
        let mut candidates = 0u64;
        let mut hit = false;
        let mut stack = [0u32; MAX_DEPTH];
        let mut sp = 0usize;
        stack[sp] = 0;
        sp += 1;
        'traverse: while sp > 0 {
            sp -= 1;
            let node = &self.nodes[stack[sp] as usize];
            nodes_visited += 1;
            if !node.aabb().intersects_segment(from, to) {
                continue;
            }
            let count = node.count();
            if count > 0 {
                let start = node.payload();
                for &i in &self.order[start..start + count] {
                    candidates += 1;
                    if visit(i as usize) {
                        hit = true;
                        break 'traverse;
                    }
                }
            } else {
                // The sibling pair is adjacent; popping left first keeps the
                // walk linear through the packed array (a cache nicety, not
                // a correctness requirement).
                let left = node.payload();
                debug_assert!(sp + 2 <= MAX_DEPTH, "BVH deeper than traversal stack");
                stack[sp] = (left + 1) as u32;
                stack[sp + 1] = left as u32;
                sp += 2;
            }
        }
        if surfos_obs::enabled() {
            surfos_obs::add("geometry.bvh.queries", 1);
            surfos_obs::add("geometry.bvh.nodes_visited", nodes_visited);
            surfos_obs::add("geometry.bvh.candidates", candidates);
            // What a brute-force scan would have tested for this query.
            surfos_obs::add("geometry.bvh.brute_walls", self.order.len() as u64);
        }
        hit
    }

    /// Calls `visit` for every candidate primitive (no early exit).
    pub fn for_each_segment_candidate(&self, from: Vec3, to: Vec3, mut visit: impl FnMut(usize)) {
        self.segment_candidates_until(from, to, |i| {
            visit(i);
            false
        });
    }

    /// Collects candidate indices into a vector (convenience for tests).
    pub fn segment_candidates(&self, from: Vec3, to: Vec3) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_segment_candidate(from, to, |i| out.push(i));
        out
    }

    /// Packet analogue of [`Self::for_each_segment_candidate`]: walks the
    /// tree **once** for up to [`SegmentPacket::LANES`] segments, testing
    /// every packed node box against all lanes with one vectorized slab
    /// test and sharing the traversal stack.
    ///
    /// `visit(lane, slot, prim)` is called for every (lane, candidate)
    /// pair — `prim` is the caller's original primitive index, `slot` its
    /// position in the tree's internal order (stable for a given tree;
    /// callers keeping slot-ordered side tables get sequential reads
    /// inside each leaf). There is no early exit. Per lane, the candidate
    /// stream is the same conservative superset contract as the scalar
    /// traversal — a superset of the primitives the segment truly
    /// touches, in the same deterministic depth-first order — so callers
    /// that run the exact test per candidate and sort by `(t, index)` get
    /// results bit-identical to per-segment scalar queries.
    ///
    /// `#[inline(always)]` is load-bearing: AVX2 instantiations must
    /// inline into their caller's `#[target_feature(enable = "avx2")]`
    /// frame so the lane intrinsics compile to bare instructions.
    #[inline(always)]
    pub fn for_each_packet_candidate<V: SimdF32x8>(
        &self,
        packet: &SegmentPacket<V>,
        mut visit: impl FnMut(usize, usize, usize),
    ) {
        if self.nodes.is_empty() {
            return;
        }
        let obs_on = surfos_obs::enabled();
        let mut nodes_visited = 0u64;
        let mut candidates = 0u64;
        let mut stack_node = [0u32; MAX_DEPTH];
        let mut stack_mask = [0u8; MAX_DEPTH];
        let mut sp = 0usize;
        // A packet holds at least one segment, so the root mask is never
        // empty, and a child is pushed only with the nonzero mask of lanes
        // that hit its parent.
        stack_node[sp] = 0;
        stack_mask[sp] = packet.active_bitmask();
        sp += 1;
        while sp > 0 {
            sp -= 1;
            let m = stack_mask[sp];
            let node = &self.nodes[stack_node[sp] as usize];
            nodes_visited += 1;
            if obs_on {
                surfos_obs::observe(
                    "geometry.bvh.packet_lanes_active",
                    u64::from(m.count_ones()),
                );
            }
            let hit = packet.test_box(&node.min, &node.max) & m;
            if hit == 0 {
                continue;
            }
            let count = node.count();
            if count > 0 {
                let start = node.payload();
                for (slot, &prim) in self.order[start..start + count].iter().enumerate() {
                    // A leaf box is the union of its primitives; re-testing
                    // the primitive's own (conservatively rounded) box culls
                    // the union slack before the exact per-candidate test.
                    let pb = &self.prim_boxes[start + slot];
                    let mut lanes = packet.test_box(&pb.min, &pb.max) & hit;
                    while lanes != 0 {
                        let lane = lanes.trailing_zeros() as usize;
                        lanes &= lanes - 1;
                        candidates += 1;
                        visit(lane, start + slot, prim as usize);
                    }
                }
            } else {
                // Children inherit the lanes that hit this node; each is
                // re-tested against its own box when popped.
                let left = node.payload();
                debug_assert!(sp + 2 <= MAX_DEPTH, "BVH deeper than traversal stack");
                stack_node[sp] = (left + 1) as u32;
                stack_mask[sp] = hit;
                stack_node[sp + 1] = left as u32;
                stack_mask[sp + 1] = hit;
                sp += 2;
            }
        }
        if obs_on {
            let lanes = packet.len() as u64;
            surfos_obs::add("geometry.bvh.packet_traversals", 1);
            // Keep the scalar-era ratio metrics meaningful: a packet
            // serves `lanes` logical queries, visits each popped node
            // once for all of them, and a brute scan would have tested
            // every primitive per lane.
            surfos_obs::add("geometry.bvh.queries", lanes);
            surfos_obs::add("geometry.bvh.nodes_visited", nodes_visited);
            surfos_obs::add("geometry.bvh.candidates", candidates);
            surfos_obs::add("geometry.bvh.brute_walls", self.order.len() as u64 * lanes);
        }
    }

    /// The tree's internal primitive order: `order()[slot]` is the
    /// original index of the primitive stored at `slot`. Callers building
    /// slot-ordered side tables (so leaf-local candidate reads are
    /// sequential) key them with this.
    pub fn order(&self) -> &[u32] {
        &self.order
    }
}

/// Segment directions with an axis component below this are treated as
/// axis-parallel by the packet slab test and fall back to a (padded)
/// containment check on that axis — a far wider net than the scalar
/// `1e-12` threshold, because the `f32` lanes cannot resolve the huge
/// `1/d` magnitudes near-degenerate directions produce. Conservatism, not
/// accuracy: within `|d| < 1e-3` the segment moves less than a millimetre
/// along the axis, and the containment pad absorbs that.
const PACKET_D_EPS: f32 = 1e-3;

/// Up to eight segments bundled lane-per-segment in SoA form, with the
/// per-lane reciprocals, slab slacks and degenerate-axis masks hoisted so
/// the per-node work inside [`Bvh::for_each_packet_candidate`] is pure
/// vector arithmetic.
///
/// The slab test runs in `f32` against the packed node bounds. Every
/// quantity is padded by a per-packet error bound (`slack`, `pad`)
/// derived from the largest endpoint coordinate, so a lane never misses
/// a node box its exact-`f64` segment touches — the packet layer keeps
/// the tree's conservative-culling contract, and exactness is restored
/// by the caller's per-candidate test. Node boxes are assumed
/// non-inverted, which holds for every node of a built tree (built and
/// refitted boxes are unions of primitive boxes).
///
/// Generic over the 8-lane vector type `V` so the same traversal math
/// runs on the portable pair registers ([`F32x8`]) and the native AVX2
/// registers (`surfos_em::simd::avx2::F32x8A`); every [`SimdF32x8`]
/// implementor has bit-identical lane semantics, so the candidate sets
/// are identical whichever instantiation runs.
#[derive(Debug, Clone)]
pub struct SegmentPacket<V: SimdF32x8 = F32x8> {
    /// Per-axis lane origins.
    o: [V; 3],
    /// Per-axis lane reciprocal directions (`0.0` on degenerate lanes).
    inv: [V; 3],
    /// Per-axis conservative widening of the slab interval, in `t` units;
    /// `+∞` on parallel lanes, so their slab interval is `(-∞, +∞)` and
    /// never constrains `t` — no per-axis select needed.
    slack: [V; 3],
    /// Per-axis mask of lanes that are parallel to the axis.
    par: [V::Mask; 3],
    /// Whether any lane is parallel to any axis; when `false` the
    /// containment sweep in [`Self::test_box`] is skipped wholesale.
    has_par: bool,
    /// Containment pad for parallel-axis checks, in metres.
    pad: V,
    /// Mask of lanes holding real segments.
    active: V::Mask,
    /// Number of real segments (`1..=LANES`).
    len: usize,
}

impl<V: SimdF32x8> SegmentPacket<V> {
    /// Packet width.
    pub const LANES: usize = 8;

    /// Bundles `segments` (each `(from, to)`) into a packet. Unused
    /// lanes repeat the first segment so every vector is well-defined,
    /// and are masked out of traversal and visits.
    ///
    /// # Panics
    /// Panics if `segments` is empty or holds more than [`Self::LANES`].
    #[inline(always)]
    pub fn new(segments: &[(Vec3, Vec3)]) -> Self {
        let len = segments.len();
        assert!(
            (1..=Self::LANES).contains(&len),
            "packet holds 1..=8 segments, got {len}"
        );
        let seg = |lane: usize| segments[lane.min(len - 1)];

        // Error budget, from the largest coordinate magnitude in the
        // packet: converting an endpoint to f32 and subtracting it from a
        // node bound each lose at most ~mag·2⁻²⁴, and the slab product
        // loses ~|t|·2⁻²³ more. The generous constants below dominate
        // both terms; they widen candidate sets by micro-metres, which
        // the exact per-candidate test absorbs.
        let mut mag = 1.0f64;
        for &(from, to) in segments {
            for v in [from, to] {
                mag = mag.max(v.x.abs()).max(v.y.abs()).max(v.z.abs());
            }
        }
        let eps_pos = mag * 2.4e-7;
        let pad_scalar = ((PACKET_D_EPS as f64 + eps_pos) * 1.01) as f32;

        let mut o = [[0.0f32; 8]; 3];
        let mut inv = [[0.0f32; 8]; 3];
        let mut slack = [[0.0f32; 8]; 3];
        let mut par_abs_d = [[0.0f32; 8]; 3];
        for lane in 0..Self::LANES {
            let (from, to) = seg(lane);
            for (axis, (f, t)) in [(from.x, to.x), (from.y, to.y), (from.z, to.z)]
                .into_iter()
                .enumerate()
            {
                let of = f as f32;
                let df = (t - f) as f32;
                o[axis][lane] = of;
                par_abs_d[axis][lane] = df.abs();
                if df.abs() >= PACKET_D_EPS {
                    let inv_f = 1.0 / df;
                    inv[axis][lane] = inv_f;
                    slack[axis][lane] = ((eps_pos * (inv_f as f64).abs() + 1e-6) * 1.01) as f32;
                } else {
                    // Parallel lane: `inv` stays 0, so the slab products are
                    // 0 and an infinite slack makes the interval (-∞, +∞) —
                    // the axis never constrains `t` and the (cheap) slab
                    // math needs no per-axis select. Rejection on this axis
                    // is the padded containment check instead.
                    slack[axis][lane] = f32::INFINITY;
                }
            }
        }
        let d_eps = V::splat(PACKET_D_EPS);
        let par = par_abs_d.map(|d| V::from_array(d).simd_lt(d_eps));
        SegmentPacket {
            o: o.map(V::from_array),
            inv: inv.map(V::from_array),
            slack: slack.map(V::from_array),
            has_par: par.iter().any(|m| m.any()),
            par,
            pad: V::splat(pad_scalar),
            active: V::mask_first_n(len),
            len,
        }
    }

    /// Number of real segments in the packet.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `false` — a packet always holds at least one segment.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bitmask of lanes holding real segments (lane 0 in bit 0).
    pub fn active_bitmask(&self) -> u8 {
        self.active.bitmask()
    }

    /// The vectorized conservative slab test: one bit per lane whose
    /// segment may touch the box `[min, max]`.
    #[inline(always)]
    fn test_box(&self, min: &[f32; 3], max: &[f32; 3]) -> u8 {
        let mut t0 = V::splat(0.0);
        let mut t1 = V::splat(1.0);
        for axis in 0..3 {
            let lo = V::splat(min[axis]);
            let hi = V::splat(max[axis]);
            let o = self.o[axis];
            let inv = self.inv[axis];
            let a = lo.sub(o).mul(inv);
            let b = hi.sub(o).mul(inv);
            // Parallel lanes have `inv = 0` and `slack = +∞`: their slab
            // interval is (-∞, +∞) and never constrains `t` here.
            let slack = self.slack[axis];
            t0 = t0.max(a.min(b).sub(slack));
            t1 = t1.min(a.max(b).add(slack));
        }
        let mut hit = t0.simd_le(t1);
        // Parallel lanes pass an axis iff the origin sits inside the padded
        // slab; packets with no parallel lane (the common case for bounce
        // fans) skip the sweep entirely.
        if self.has_par {
            for axis in 0..3 {
                let lo = V::splat(min[axis]);
                let hi = V::splat(max[axis]);
                let o = self.o[axis];
                let par = self.par[axis];
                let inside = o.simd_ge(lo.sub(self.pad)).and(o.simd_le(hi.add(self.pad)));
                hit = hit.and(inside.or(par.not()));
            }
        }
        hit.bitmask()
    }
}

/// An 8-lane conservative interval bank over a *fixed set of boxes*:
/// the transpose of [`SegmentPacket`] — one segment tested against
/// eight boxes per step instead of eight segments against one box.
///
/// `surfos-channel` keeps one bank per blocker list and one per
/// doorway-aperture list, replacing the per-box scalar
/// [`Aabb::intersects_segment`] scan in the trace/transmission loops
/// with a vector sweep. The bank is **conservative by construction**
/// (mirroring the `SpecularBank` design): box bounds are rounded
/// outward to `f32`, and the per-segment slab parameters carry the
/// same error budget as [`SegmentPacket::new`], so no box the exact
/// `f64` test accepts is ever prefiltered out. Survivors are visited
/// in ascending index order and re-tested exactly by the caller, so
/// downstream results are bit-identical to the unfiltered scan.
///
/// Queries dispatch on [`surfos_em::simd::backend()`]: the AVX2 arm
/// sweeps native 256-bit lanes, the SSE2 arm the portable pair type,
/// and the scalar reference arm visits every index (the unfiltered
/// pre-bank behaviour).
#[derive(Debug, Clone, Default)]
pub struct AabbBank {
    /// Per-axis minima, rounded down to `f32`, padded to a multiple of
    /// 8 with never-visited rows.
    min: [Vec<f32>; 3],
    /// Per-axis maxima, rounded up to `f32`.
    max: [Vec<f32>; 3],
    /// Number of real boxes (the padding rows are dropped by the index
    /// bound check while visiting).
    len: usize,
}

impl AabbBank {
    /// Number of box lanes swept per step.
    pub const LANES: usize = 8;

    /// Builds a bank over `boxes` (index `i` in the bank is `boxes[i]`).
    pub fn new(boxes: &[Aabb]) -> Self {
        let padded = boxes.len().next_multiple_of(Self::LANES).max(Self::LANES);
        let mut min: [Vec<f32>; 3] = core::array::from_fn(|_| vec![0.0; padded]);
        let mut max: [Vec<f32>; 3] = core::array::from_fn(|_| vec![0.0; padded]);
        for (i, b) in boxes.iter().enumerate() {
            for axis in 0..3 {
                min[axis][i] = round_down(Aabb::axis(b.min, axis));
                max[axis][i] = round_up(Aabb::axis(b.max, axis));
            }
        }
        AabbBank {
            min,
            max,
            len: boxes.len(),
        }
    }

    /// Number of real boxes in the bank.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bank holds no boxes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calls `visit(i)`, in ascending index order, for every box the
    /// segment `from → to` *may* touch — a conservative superset of the
    /// boxes [`Aabb::intersects_segment`] accepts. Dispatches on the
    /// process-wide SIMD backend.
    #[inline]
    pub fn for_each_candidate(&self, from: Vec3, to: Vec3, visit: impl FnMut(usize)) {
        self.for_each_candidate_with(surfos_em::simd::backend(), from, to, visit);
    }

    /// [`Self::for_each_candidate`] with an explicit kernel arm, for
    /// benches and cross-backend equivalence tests.
    ///
    /// # Panics
    /// Panics if `Backend::Avx2` is forced on a host without AVX2+FMA.
    #[doc(hidden)]
    pub fn for_each_candidate_with(
        &self,
        backend: Backend,
        from: Vec3,
        to: Vec3,
        mut visit: impl FnMut(usize),
    ) {
        // Below one lane group the vector setup (segment splat + interval
        // reps) costs more than just exact-testing every box — and a
        // visit-all pass is trivially conservative. Keeps per-shard
        // blocker banks (a walker or two each) off the sweep entirely.
        if self.len <= Self::LANES {
            for i in 0..self.len {
                visit(i);
            }
            return;
        }
        match backend {
            // The scalar reference arm: no prefilter, every box goes to
            // the caller's exact test (the pre-bank behaviour).
            Backend::Scalar => {
                for i in 0..self.len {
                    visit(i);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                assert!(
                    surfos_em::simd::avx2_available(),
                    "Backend::Avx2 forced without AVX2+FMA support"
                );
                // SAFETY: avx2 presence asserted just above.
                unsafe { self.sweep_avx2(from, to, &mut visit) }
            }
            _ => self.sweep::<F32x8>(from, to, &mut visit),
        }
    }

    /// AVX2 entry point: compiles [`Self::sweep`] with 256-bit lanes.
    ///
    /// # Safety
    /// Requires the `avx2` CPU feature (the dispatch arm checks).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_avx2(&self, from: Vec3, to: Vec3, visit: &mut impl FnMut(usize)) {
        self.sweep::<surfos_em::simd::avx2::F32x8A>(from, to, visit);
    }

    /// The vector sweep: the [`SegmentPacket`] slab math transposed
    /// (segment parameters splat, box bounds loaded per lane), with the
    /// identical error budget, so the conservativeness argument carries
    /// over unchanged.
    #[inline(always)]
    fn sweep<V: SimdF32x8>(&self, from: Vec3, to: Vec3, visit: &mut impl FnMut(usize)) {
        // Per-segment scalar precompute, mirroring SegmentPacket::new.
        let mut mag = 1.0f64;
        for v in [from, to] {
            mag = mag.max(v.x.abs()).max(v.y.abs()).max(v.z.abs());
        }
        let eps_pos = mag * 2.4e-7;
        let pad = ((PACKET_D_EPS as f64 + eps_pos) * 1.01) as f32;
        let mut o = [0.0f32; 3];
        let mut inv = [0.0f32; 3];
        let mut slack = [0.0f32; 3];
        let mut par = [false; 3];
        for (axis, (f, t)) in [(from.x, to.x), (from.y, to.y), (from.z, to.z)]
            .into_iter()
            .enumerate()
        {
            o[axis] = f as f32;
            let df = (t - f) as f32;
            if df.abs() >= PACKET_D_EPS {
                let inv_f = 1.0 / df;
                inv[axis] = inv_f;
                slack[axis] = ((eps_pos * (inv_f as f64).abs() + 1e-6) * 1.01) as f32;
            } else {
                par[axis] = true;
            }
        }
        let mut base = 0;
        while base < self.min[0].len() {
            let mut t0 = V::splat(0.0);
            let mut t1 = V::splat(1.0);
            let mut ok = V::Mask::splat(true);
            for axis in 0..3 {
                let lo = V::from_array(self.min[axis][base..base + 8].try_into().unwrap());
                let hi = V::from_array(self.max[axis][base..base + 8].try_into().unwrap());
                let ov = V::splat(o[axis]);
                if par[axis] {
                    // Degenerate axis: padded containment, exactly as
                    // the packet layer handles parallel lanes.
                    let pv = V::splat(pad);
                    let inside = ov.simd_ge(lo.sub(pv)).and(ov.simd_le(hi.add(pv)));
                    ok = ok.and(inside);
                } else {
                    let iv = V::splat(inv[axis]);
                    let sv = V::splat(slack[axis]);
                    let a = lo.sub(ov).mul(iv);
                    let b = hi.sub(ov).mul(iv);
                    t0 = t0.max(a.min(b).sub(sv));
                    t1 = t1.min(a.max(b).add(sv));
                }
            }
            let mut bits = ok.and(t0.simd_le(t1)).bitmask();
            while bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let i = base + lane;
                if i < self.len {
                    visit(i);
                }
            }
            base += 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn packed_node_is_32_bytes() {
        assert_eq!(std::mem::size_of::<PackedNode>(), 32);
        assert_eq!(std::mem::align_of::<PackedNode>(), 32);
    }

    #[test]
    fn conservative_rounding_brackets_value() {
        for v in [
            0.1,
            1.0 / 3.0,
            -7.3e-9,
            1e300,
            -1e300,
            12345.6789,
            0.0,
            -0.0,
            2.0,
        ] {
            assert!(round_down(v) as f64 <= v, "round_down({v}) above value");
            assert!(round_up(v) as f64 >= v, "round_up({v}) below value");
        }
        // Infinities (the empty box) pass through unchanged.
        assert_eq!(round_down(f64::INFINITY), f32::INFINITY);
        assert_eq!(round_up(f64::NEG_INFINITY), f32::NEG_INFINITY);
    }

    #[test]
    fn empty_box_intersects_nothing() {
        let e = Aabb::empty();
        assert!(!e.intersects_segment(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0)));
        let b = Aabb::new(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(e.union(&b), b);
        assert_eq!(e.surface_area(), 0.0);
    }

    #[test]
    fn surface_area_matches_hand_value() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.surface_area(), 2.0 * (6.0 + 12.0 + 8.0));
        // A flat (zero-extent) box still has its cross-section.
        let flat = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 0.0));
        assert_eq!(flat.surface_area(), 2.0 * 6.0);
    }

    #[test]
    fn segment_through_box_hits() {
        let b = Aabb::new(Vec3::new(1.0, 1.0, 0.0), Vec3::new(2.0, 2.0, 3.0));
        assert!(b.intersects_segment(Vec3::new(0.0, 1.5, 1.0), Vec3::new(3.0, 1.5, 1.0)));
        assert!(!b.intersects_segment(Vec3::new(0.0, 3.0, 1.0), Vec3::new(3.0, 3.0, 1.0)));
        // Segment ending before the box: no hit.
        assert!(!b.intersects_segment(Vec3::new(0.0, 1.5, 1.0), Vec3::new(0.5, 1.5, 1.0)));
        // Axis-parallel segment inside the slab.
        assert!(b.intersects_segment(Vec3::new(1.5, 0.0, 1.0), Vec3::new(1.5, 3.0, 1.0)));
    }

    #[test]
    fn segment_fully_inside_box_hits() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(4.0, 4.0, 4.0));
        assert!(b.intersects_segment(Vec3::new(1.0, 1.0, 1.0), Vec3::new(2.0, 3.0, 2.0)));
    }

    #[test]
    fn empty_bvh_yields_nothing() {
        let bvh = Bvh::build(&[]);
        assert!(bvh.is_empty());
        assert_eq!(bvh.node_count(), 0);
        assert!(bvh
            .segment_candidates(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0))
            .is_empty());
    }

    #[test]
    fn single_box_found() {
        let boxes = [Aabb::new(
            Vec3::new(1.0, -1.0, 0.0),
            Vec3::new(2.0, 1.0, 3.0),
        )];
        let bvh = Bvh::build(&boxes);
        assert_eq!(bvh.len(), 1);
        assert_eq!(bvh.node_count(), 1);
        let c = bvh.segment_candidates(Vec3::new(0.0, 0.0, 1.0), Vec3::new(3.0, 0.0, 1.0));
        assert_eq!(c, vec![0]);
    }

    #[test]
    fn coincident_centroids_fall_back_to_median() {
        // 40 identical point boxes: zero centroid spread on every axis, the
        // exact input SAH binning cannot rank. The median fallback must
        // still build a working (index-ordered) tree.
        let boxes = vec![Aabb::new(Vec3::new(1.0, 1.0, 1.0), Vec3::new(1.0, 1.0, 1.0)); 40];
        let bvh = Bvh::build(&boxes);
        let mut c = bvh.segment_candidates(Vec3::ZERO, Vec3::new(2.0, 2.0, 2.0));
        c.sort_unstable();
        assert_eq!(c, (0..40).collect::<Vec<_>>());
        assert!(bvh
            .segment_candidates(Vec3::new(0.0, 5.0, 0.0), Vec3::new(2.0, 5.0, 0.0))
            .is_empty());
    }

    /// Deterministic pseudo-random boxes for the superset property.
    fn scene_boxes(seed: u64, n: usize) -> Vec<Aabb> {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|_| {
                let c = Vec3::new(next() * 20.0, next() * 20.0, next() * 4.0);
                let h = Vec3::new(
                    0.05 + next() * 2.0,
                    0.05 + next() * 2.0,
                    0.05 + next() * 2.0,
                );
                Aabb::new(c - h, c + h)
            })
            .collect()
    }

    /// Degenerate boxes: zero-extent "walls" (flat in one axis), point
    /// boxes, and clusters sharing one exact centroid — the inputs where
    /// SAH binning must fall back to the median split.
    fn degenerate_boxes(seed: u64, n: usize) -> Vec<Aabb> {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n)
            .map(|i| {
                let c = match i % 3 {
                    // A shared exact centroid: coincident on every axis.
                    0 => Vec3::new(5.0, 5.0, 1.0),
                    _ => Vec3::new(next() * 20.0, next() * 20.0, next() * 4.0),
                };
                match i % 3 {
                    // Varying halfwidths around the shared centroid.
                    0 => {
                        let h = next() * 1.5;
                        Aabb::new(c - Vec3::new(h, h, h), c + Vec3::new(h, h, h))
                    }
                    // Zero-extent wall: flat in x or y.
                    1 => {
                        let h = Vec3::new(
                            if i % 2 == 0 { 0.0 } else { 1.0 + next() },
                            if i % 2 == 0 { 1.0 + next() } else { 0.0 },
                            1.5,
                        );
                        Aabb::new(c - h, c + h)
                    }
                    // Point box.
                    _ => Aabb::new(c, c),
                }
            })
            .collect()
    }

    /// Deterministic segments for packet tests: a mix of general-position,
    /// axis-parallel (degenerate direction) and short segments.
    fn packet_segments(seed: u64, k: usize) -> Vec<(Vec3, Vec3)> {
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..k)
            .map(|i| {
                let from = Vec3::new(next() * 24.0 - 2.0, next() * 24.0 - 2.0, next() * 4.0);
                let to = match i % 4 {
                    // Axis-parallel in y and z: exercises the degenerate
                    // containment fallback lanes.
                    0 => Vec3::new(next() * 24.0 - 2.0, from.y, from.z),
                    // Fully degenerate z.
                    1 => Vec3::new(next() * 24.0 - 2.0, next() * 24.0 - 2.0, from.z),
                    // Short segment.
                    2 => from + Vec3::new(next() * 0.5, next() * 0.5, next() * 0.1),
                    _ => Vec3::new(next() * 24.0 - 2.0, next() * 24.0 - 2.0, next() * 4.0),
                };
                (from, to)
            })
            .collect()
    }

    #[test]
    fn packet_on_empty_tree_visits_nothing() {
        let bvh = Bvh::build(&[]);
        let packet = SegmentPacket::<F32x8>::new(&[(Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0))]);
        bvh.for_each_packet_candidate(&packet, |_, _, _| panic!("no candidates expected"));
    }

    #[test]
    #[should_panic(expected = "packet holds 1..=8 segments")]
    fn packet_rejects_empty_batch() {
        SegmentPacket::<F32x8>::new(&[]);
    }

    #[test]
    fn refit_with_unchanged_boxes_preserves_candidates() {
        let boxes = scene_boxes(7, 60);
        let built = Bvh::build(&boxes);
        let mut refitted = built.clone();
        refitted.refit(&boxes);
        for (from, to) in [
            (Vec3::new(-1.0, -1.0, 1.0), Vec3::new(21.0, 21.0, 2.0)),
            (Vec3::new(5.0, 0.0, 0.5), Vec3::new(5.0, 20.0, 3.5)),
        ] {
            assert_eq!(
                built.segment_candidates(from, to),
                refitted.segment_candidates(from, to)
            );
        }
    }

    #[test]
    #[should_panic(expected = "one box per indexed primitive")]
    fn refit_rejects_mismatched_box_count() {
        let boxes = scene_boxes(3, 10);
        let mut bvh = Bvh::build(&boxes);
        bvh.refit(&boxes[..9]);
    }

    /// Shared conservative-superset check: every brute box hit must appear
    /// among the tree's candidates.
    fn assert_superset(bvh: &Bvh, boxes: &[Aabb], from: Vec3, to: Vec3) -> Result<(), String> {
        let candidates = bvh.segment_candidates(from, to);
        for (i, b) in boxes.iter().enumerate() {
            if b.intersects_segment(from, to) && !candidates.contains(&i) {
                return Err(format!("dropped true hit {i}"));
            }
        }
        for &i in &candidates {
            if i >= boxes.len() {
                return Err(format!("fabricated candidate {i}"));
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_refit_stays_conservative_after_moves(
            seed in 0u64..100_000,
            n in 1usize..120,
            moved in 0usize..8,
            dx in -6.0..6.0f64, dy in -6.0..6.0f64,
        ) {
            // Build on the original boxes, move a few, refit, and check the
            // conservative-superset contract against the *moved* boxes.
            let mut boxes = scene_boxes(seed, n);
            let mut bvh = Bvh::build(&boxes);
            let delta = Vec3::new(dx, dy, 0.0);
            for b in boxes.iter_mut().take(moved.min(n)) {
                *b = Aabb::new(b.min + delta, b.max + delta);
            }
            bvh.refit(&boxes);
            let from = Vec3::new(-8.0, -8.0, 1.0);
            let to = Vec3::new(28.0, 28.0, 2.0);
            prop_assert!(assert_superset(&bvh, &boxes, from, to).is_ok());
        }

        #[test]
        fn prop_degenerate_boxes_build_and_refit_conservative(
            seed in 0u64..100_000,
            n in 1usize..90,
            moved in 0usize..8,
            dx in -4.0..4.0f64, dz in -1.0..1.0f64,
            x0 in -2.0..22.0f64, y0 in -2.0..22.0f64,
            x1 in -2.0..22.0f64, y1 in -2.0..22.0f64,
        ) {
            // Zero-extent walls, point boxes and coincident centroids:
            // exercise the SAH median fallback on build, then perturb and
            // refit — the conservative contract must hold throughout.
            let mut boxes = degenerate_boxes(seed, n);
            let mut sah = Bvh::build(&boxes);
            let from = Vec3::new(x0, y0, 0.5);
            let to = Vec3::new(x1, y1, 2.5);
            prop_assert!(assert_superset(&sah, &boxes, from, to).is_ok());

            let delta = Vec3::new(dx, 0.0, dz);
            for b in boxes.iter_mut().take(moved.min(n)) {
                *b = Aabb::new(b.min + delta, b.max + delta);
            }
            sah.refit(&boxes);
            prop_assert!(assert_superset(&sah, &boxes, from, to).is_ok());
        }

        #[test]
        fn prop_candidates_superset_of_brute_hits(
            seed in 0u64..1_000_000,
            n in 0usize..200,
            x0 in -2.0..22.0f64, y0 in -2.0..22.0f64, z0 in -1.0..5.0f64,
            x1 in -2.0..22.0f64, y1 in -2.0..22.0f64, z1 in -1.0..5.0f64,
        ) {
            let boxes = scene_boxes(seed, n);
            let from = Vec3::new(x0, y0, z0);
            let to = Vec3::new(x1, y1, z1);
            prop_assert!(assert_superset(&Bvh::build(&boxes), &boxes, from, to).is_ok());
        }

        #[test]
        fn prop_packet_candidates_conservative(
            seed in 0u64..100_000,
            n in 1usize..150,
            k in 1usize..=8,
            degenerate in 0usize..2,
        ) {
            // Packet traversal must uphold the same conservative-superset
            // contract per lane as the scalar walk, for every packet
            // width (including <8 remainder packets) and for degenerate
            // zero-extent / point boxes.
            let boxes = if degenerate == 1 {
                degenerate_boxes(seed, n)
            } else {
                scene_boxes(seed, n)
            };
            let segs = packet_segments(seed ^ 0xD1F7, k);
            let packet = SegmentPacket::<F32x8>::new(&segs);
            prop_assert_eq!(packet.len(), k);
            let bvh = Bvh::build(&boxes);
            // Indexing by lane also asserts no visit ever names an
            // inactive lane (lane >= k would panic).
            let mut per_lane: Vec<Vec<usize>> = vec![Vec::new(); k];
            let mut slot_pairs: Vec<(usize, usize)> = Vec::new();
            bvh.for_each_packet_candidate(&packet, |lane, slot, prim| {
                slot_pairs.push((slot, prim));
                per_lane[lane].push(prim);
            });
            for (slot, prim) in slot_pairs {
                prop_assert_eq!(bvh.order()[slot] as usize, prim, "slot/prim mismatch");
            }
            for (lane, &(from, to)) in segs.iter().enumerate() {
                for (i, b) in boxes.iter().enumerate() {
                    if b.intersects_segment(from, to) {
                        prop_assert!(
                            per_lane[lane].contains(&i),
                            "lane {} dropped true hit {}", lane, i
                        );
                    }
                }
                for &i in &per_lane[lane] {
                    prop_assert!(i < boxes.len(), "fabricated candidate {}", i);
                }
            }
        }

        #[test]
        fn prop_no_duplicate_candidates(seed in 0u64..100_000, n in 0usize..100) {
            let boxes = scene_boxes(seed, n);
            let bvh = Bvh::build(&boxes);
            let mut c = bvh.segment_candidates(
                Vec3::new(-1.0, -1.0, 1.0),
                Vec3::new(21.0, 21.0, 2.0),
            );
            let total = c.len();
            c.sort_unstable();
            c.dedup();
            prop_assert_eq!(total, c.len());
            // Leaves partition the primitive set: every primitive is in
            // exactly one leaf, so a full-cover query finds all of them.
            prop_assert!(bvh.len() == n);
        }
    }

    // ── AabbBank ───────────────────────────────────────────────────────

    /// The backends the host can actually run, scalar reference first.
    fn runnable_backends() -> Vec<surfos_em::simd::Backend> {
        use surfos_em::simd::Backend;
        let mut backends = vec![Backend::Scalar, Backend::Sse2];
        if surfos_em::simd::avx2_available() {
            backends.push(Backend::Avx2);
        }
        backends
    }

    #[test]
    fn aabb_bank_empty_visits_nothing() {
        let bank = AabbBank::new(&[]);
        assert!(bank.is_empty());
        assert_eq!(bank.len(), 0);
        for backend in runnable_backends() {
            bank.for_each_candidate_with(backend, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), |_| {
                panic!("empty bank produced a candidate")
            });
        }
    }

    #[test]
    fn aabb_bank_visits_hit_boxes_in_order() {
        let boxes = scene_boxes(3, 40);
        let bank = AabbBank::new(&boxes);
        assert_eq!(bank.len(), 40);
        let from = Vec3::new(-1.0, -1.0, 1.0);
        let to = Vec3::new(21.0, 21.0, 2.0);
        for backend in runnable_backends() {
            let mut got = Vec::new();
            bank.for_each_candidate_with(backend, from, to, |i| got.push(i));
            assert!(got.windows(2).all(|w| w[0] < w[1]), "{backend:?} unordered");
            for (i, b) in boxes.iter().enumerate() {
                if b.intersects_segment(from, to) {
                    assert!(got.contains(&i), "{backend:?} dropped hit box {i}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_aabb_bank_is_conservative_on_every_backend(
            seed in 0u64..100_000,
            n in 0usize..60,
            k in 1usize..8,
        ) {
            // The bank must never drop a box the exact f64 segment test
            // accepts — on any backend, including axis-parallel segments
            // (the padded-containment path) and degenerate boxes.
            let boxes = if seed % 2 == 0 {
                degenerate_boxes(seed, n)
            } else {
                scene_boxes(seed, n)
            };
            let bank = AabbBank::new(&boxes);
            for (from, to) in packet_segments(seed ^ 0x0BB5, k) {
                for backend in runnable_backends() {
                    let mut got = vec![false; n];
                    bank.for_each_candidate_with(backend, from, to, |i| got[i] = true);
                    for (i, b) in boxes.iter().enumerate() {
                        if b.intersects_segment(from, to) {
                            prop_assert!(
                                got[i],
                                "{:?} dropped intersected box {}", backend, i
                            );
                        }
                    }
                }
            }
        }
    }
}
