//! Runtime-dispatched SIMD substrate for the packet-tracing hot path.
//!
//! SurfOS vendors its dependencies, so rather than pull in `wide` or wait
//! for `std::simd` we expose the handful of lane operations the tracing
//! and re-phasing kernels actually need: splat/load, add/sub/mul,
//! `mul_add`, min/max, compares producing lane masks, mask boolean
//! algebra with `bitmask`/`any`/`all`, blend/`select`, and horizontal
//! reductions.
//!
//! # Backends
//!
//! Three kernel arms sit behind one API, selected **once per process**
//! by [`backend()`] (see [`Backend`] for the dispatch and override
//! rules):
//!
//! - **AVX2** ([`Backend::Avx2`], the default on capable hosts): native
//!   8-lane `f32` ([`avx2::F32x8A`]) and 4-lane `f64`
//!   ([`avx2::F64x4A`]) registers, selected at startup via
//!   `is_x86_feature_detected!("avx2")` + `"fma"`. Only the dispatched
//!   kernels (phasor sweep, packet traversal, interval banks, the
//!   `crossing_t` batch solve) change instruction sets; every lane
//!   *semantic* stays bit-identical to the portable arm except the
//!   phasor rotation, which is allowed to fuse (see [`phasor`]).
//! - **SSE2** ([`Backend::Sse2`]): the portable wide-lane arm.
//!   [`F32x4`] wraps a `__m128` using intrinsics in the x86_64 baseline
//!   — no runtime feature detection needed; [`F32x8`] / [`F64x4`] are
//!   pairs of baseline registers. On non-x86_64 targets (or with
//!   `--features scalar-fallback`) the same types compile to plain
//!   arrays with loops shaped so the results are **bit-identical**,
//!   including the SSE operand-order semantics of `min`/`max` under NaN
//!   and the fixed `(a[0]+a[2]) + (a[1]+a[3])` association of
//!   [`F32x4::reduce_sum`].
//! - **Scalar** ([`Backend::Scalar`]): the reference arm. Dispatched
//!   kernels fall back to their per-candidate scalar loops (no packets,
//!   no prefilter banks), which is what every wide arm is tested
//!   against.
//!
//! The only `unsafe` in the workspace is the audited `sse!` / `avx!`
//! wrappers around **value-based** intrinsics (no pointers) plus the
//! `#[target_feature]` kernel entry points in [`avx2`], each guarded by
//! the one-time CPU detection.
//!
//! `mul_add` is **not fused** on any backend (it is `a * b + c` with
//! both roundings) so all arms agree bit-for-bit; fused math is confined
//! to the AVX2 phasor kernel, which documents its ULP budget.
//!
//! # f64 lanes
//!
//! [`F64x2`] / [`F64x4`] (and the native [`avx2::F64x4A`]) carry the
//! *exact* path math: the `crossing_t` segment-intersection solve in
//! `surfos-geometry` runs four walls at a time with lane-wise IEEE
//! operations in the same order as the scalar solve, so accepted
//! crossings are bit-identical to the per-wall reference.
//!
//! The [`SimdF32x8`] / [`SimdF64x4`] traits let those kernels be written
//! once, generic over the portable pair types and the native AVX2
//! registers; the provided [`SimdF32x8::mask_first_n`] is
//! backend-generic (an index-compare, not a layout hack).
//!
//! The [`phasor`] submodule holds the structure-of-arrays complex
//! helpers used by `ChannelTrace::sweep_evaluate`; see its docs for the
//! reassociation / ULP policy.

#![allow(clippy::should_implement_trait)]

use core::sync::atomic::{AtomicU8, Ordering};

#[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
mod backend {
    use core::arch::x86_64::*;

    /// Wraps a value-based SSE intrinsic call.
    ///
    /// SAFETY: SSE and SSE2 are unconditionally part of the `x86_64`
    /// baseline target features, so the wrapped intrinsics (all
    /// value-based — no pointers) can never execute on a CPU that lacks
    /// them when this backend is compiled in.
    macro_rules! sse {
        ($e:expr) => {
            unsafe { $e }
        };
    }

    /// Four `f32` lanes in one SSE register.
    #[derive(Clone, Copy, Debug)]
    pub struct F32x4(pub(super) __m128);

    /// Lane mask for [`F32x4`]: each lane is all-ones (true) or all-zeros.
    #[derive(Clone, Copy, Debug)]
    pub struct Mask4(pub(super) __m128);

    /// Two `f64` lanes in one SSE2 register.
    #[derive(Clone, Copy, Debug)]
    pub struct F64x2(pub(super) __m128d);

    /// Lane mask for [`F64x2`]: each lane is all-ones (true) or all-zeros.
    #[derive(Clone, Copy, Debug)]
    pub struct MaskD2(pub(super) __m128d);

    #[inline]
    fn all_ones() -> __m128 {
        let z = sse!(_mm_setzero_ps());
        sse!(_mm_cmpeq_ps(z, z))
    }

    #[inline]
    fn all_ones_pd() -> __m128d {
        let z = sse!(_mm_setzero_pd());
        sse!(_mm_cmpeq_pd(z, z))
    }

    impl F32x4 {
        /// Broadcasts `v` to all lanes.
        #[inline]
        pub fn splat(v: f32) -> Self {
            F32x4(sse!(_mm_set1_ps(v)))
        }

        /// Loads the four lanes from an array (`a[0]` is lane 0).
        #[inline]
        pub fn from_array(a: [f32; 4]) -> Self {
            F32x4(sse!(_mm_setr_ps(a[0], a[1], a[2], a[3])))
        }

        /// Stores the four lanes to an array (`a[0]` is lane 0).
        #[inline]
        pub fn to_array(self) -> [f32; 4] {
            let v = self.0;
            [
                sse!(_mm_cvtss_f32(v)),
                sse!(_mm_cvtss_f32(_mm_shuffle_ps::<0b01_01_01_01>(v, v))),
                sse!(_mm_cvtss_f32(_mm_shuffle_ps::<0b10_10_10_10>(v, v))),
                sse!(_mm_cvtss_f32(_mm_shuffle_ps::<0b11_11_11_11>(v, v))),
            ]
        }

        /// Lane-wise `self + rhs`.
        #[inline]
        pub fn add(self, rhs: Self) -> Self {
            F32x4(sse!(_mm_add_ps(self.0, rhs.0)))
        }

        /// Lane-wise `self - rhs`.
        #[inline]
        pub fn sub(self, rhs: Self) -> Self {
            F32x4(sse!(_mm_sub_ps(self.0, rhs.0)))
        }

        /// Lane-wise `self * rhs`.
        #[inline]
        pub fn mul(self, rhs: Self) -> Self {
            F32x4(sse!(_mm_mul_ps(self.0, rhs.0)))
        }

        /// Lane-wise `self * b + c`, rounded twice (**not** fused; see
        /// module docs).
        #[inline]
        pub fn mul_add(self, b: Self, c: Self) -> Self {
            F32x4(sse!(_mm_add_ps(_mm_mul_ps(self.0, b.0), c.0)))
        }

        /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on
        /// `0/0`).
        #[inline]
        pub fn div(self, rhs: Self) -> Self {
            F32x4(sse!(_mm_div_ps(self.0, rhs.0)))
        }

        /// Lane-wise absolute value (clears the sign bit; `|NaN|` keeps
        /// its payload).
        #[inline]
        pub fn abs(self) -> Self {
            F32x4(sse!(_mm_andnot_ps(_mm_set1_ps(-0.0), self.0)))
        }

        /// Lane-wise minimum with SSE `minps` semantics: returns the
        /// *second* operand (`rhs`) when the lanes compare unordered
        /// (NaN) or equal.
        #[inline]
        pub fn min(self, rhs: Self) -> Self {
            F32x4(sse!(_mm_min_ps(self.0, rhs.0)))
        }

        /// Lane-wise maximum with SSE `maxps` semantics (see [`Self::min`]).
        #[inline]
        pub fn max(self, rhs: Self) -> Self {
            F32x4(sse!(_mm_max_ps(self.0, rhs.0)))
        }

        /// Lane-wise `self < rhs` (false on NaN).
        #[inline]
        pub fn simd_lt(self, rhs: Self) -> Mask4 {
            Mask4(sse!(_mm_cmplt_ps(self.0, rhs.0)))
        }

        /// Lane-wise `self <= rhs` (false on NaN).
        #[inline]
        pub fn simd_le(self, rhs: Self) -> Mask4 {
            Mask4(sse!(_mm_cmple_ps(self.0, rhs.0)))
        }

        /// Lane-wise `self >= rhs` (false on NaN).
        #[inline]
        pub fn simd_ge(self, rhs: Self) -> Mask4 {
            Mask4(sse!(_mm_cmpge_ps(self.0, rhs.0)))
        }

        /// Picks `self` where `mask` is true, `other` where false.
        #[inline]
        pub fn select(self, mask: Mask4, other: Self) -> Self {
            F32x4(sse!(_mm_or_ps(
                _mm_and_ps(mask.0, self.0),
                _mm_andnot_ps(mask.0, other.0),
            )))
        }

        /// Horizontal sum with the fixed association
        /// `(a[0] + a[2]) + (a[1] + a[3])`.
        #[inline]
        pub fn reduce_sum(self) -> f32 {
            let v = self.0;
            let hi = sse!(_mm_movehl_ps(v, v));
            let pair = sse!(_mm_add_ps(v, hi));
            let odd = sse!(_mm_shuffle_ps::<0b01>(pair, pair));
            sse!(_mm_cvtss_f32(_mm_add_ss(pair, odd)))
        }

        /// Horizontal minimum (SSE `minps` NaN semantics per step).
        #[inline]
        pub fn reduce_min(self) -> f32 {
            let v = self.0;
            let hi = sse!(_mm_movehl_ps(v, v));
            let pair = sse!(_mm_min_ps(v, hi));
            let odd = sse!(_mm_shuffle_ps::<0b01>(pair, pair));
            sse!(_mm_cvtss_f32(_mm_min_ss(pair, odd)))
        }

        /// Horizontal maximum (SSE `maxps` NaN semantics per step).
        #[inline]
        pub fn reduce_max(self) -> f32 {
            let v = self.0;
            let hi = sse!(_mm_movehl_ps(v, v));
            let pair = sse!(_mm_max_ps(v, hi));
            let odd = sse!(_mm_shuffle_ps::<0b01>(pair, pair));
            sse!(_mm_cvtss_f32(_mm_max_ss(pair, odd)))
        }
    }

    impl Mask4 {
        /// Mask with every lane set to `b`.
        #[inline]
        pub fn splat(b: bool) -> Self {
            if b {
                Mask4(all_ones())
            } else {
                Mask4(sse!(_mm_setzero_ps()))
            }
        }

        /// Lane-wise AND.
        #[inline]
        pub fn and(self, rhs: Self) -> Self {
            Mask4(sse!(_mm_and_ps(self.0, rhs.0)))
        }

        /// Lane-wise OR.
        #[inline]
        pub fn or(self, rhs: Self) -> Self {
            Mask4(sse!(_mm_or_ps(self.0, rhs.0)))
        }

        /// Lane-wise NOT.
        #[inline]
        pub fn not(self) -> Self {
            Mask4(sse!(_mm_andnot_ps(self.0, all_ones())))
        }

        /// One bit per lane, lane 0 in bit 0.
        #[inline]
        pub fn bitmask(self) -> u8 {
            (sse!(_mm_movemask_ps(self.0)) & 0xF) as u8
        }
    }

    impl F64x2 {
        /// Broadcasts `v` to both lanes.
        #[inline]
        pub fn splat(v: f64) -> Self {
            F64x2(sse!(_mm_set1_pd(v)))
        }

        /// Loads the two lanes from an array (`a[0]` is lane 0).
        #[inline]
        pub fn from_array(a: [f64; 2]) -> Self {
            F64x2(sse!(_mm_setr_pd(a[0], a[1])))
        }

        /// Stores the two lanes to an array (`a[0]` is lane 0).
        #[inline]
        pub fn to_array(self) -> [f64; 2] {
            let v = self.0;
            [
                sse!(_mm_cvtsd_f64(v)),
                sse!(_mm_cvtsd_f64(_mm_unpackhi_pd(v, v))),
            ]
        }

        /// Lane-wise `self + rhs`.
        #[inline]
        pub fn add(self, rhs: Self) -> Self {
            F64x2(sse!(_mm_add_pd(self.0, rhs.0)))
        }

        /// Lane-wise `self - rhs`.
        #[inline]
        pub fn sub(self, rhs: Self) -> Self {
            F64x2(sse!(_mm_sub_pd(self.0, rhs.0)))
        }

        /// Lane-wise `self * rhs`.
        #[inline]
        pub fn mul(self, rhs: Self) -> Self {
            F64x2(sse!(_mm_mul_pd(self.0, rhs.0)))
        }

        /// Lane-wise `self * b + c`, rounded twice (**not** fused; see
        /// module docs).
        #[inline]
        pub fn mul_add(self, b: Self, c: Self) -> Self {
            F64x2(sse!(_mm_add_pd(_mm_mul_pd(self.0, b.0), c.0)))
        }

        /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on
        /// `0/0`).
        #[inline]
        pub fn div(self, rhs: Self) -> Self {
            F64x2(sse!(_mm_div_pd(self.0, rhs.0)))
        }

        /// Lane-wise absolute value (clears the sign bit; `|NaN|` keeps
        /// its payload).
        #[inline]
        pub fn abs(self) -> Self {
            F64x2(sse!(_mm_andnot_pd(_mm_set1_pd(-0.0), self.0)))
        }

        /// Lane-wise minimum with SSE2 `minpd` semantics: returns the
        /// *second* operand (`rhs`) when the lanes compare unordered
        /// (NaN) or equal.
        #[inline]
        pub fn min(self, rhs: Self) -> Self {
            F64x2(sse!(_mm_min_pd(self.0, rhs.0)))
        }

        /// Lane-wise maximum with SSE2 `maxpd` semantics (see
        /// [`Self::min`]).
        #[inline]
        pub fn max(self, rhs: Self) -> Self {
            F64x2(sse!(_mm_max_pd(self.0, rhs.0)))
        }

        /// Lane-wise `self < rhs` (false on NaN).
        #[inline]
        pub fn simd_lt(self, rhs: Self) -> MaskD2 {
            MaskD2(sse!(_mm_cmplt_pd(self.0, rhs.0)))
        }

        /// Lane-wise `self <= rhs` (false on NaN).
        #[inline]
        pub fn simd_le(self, rhs: Self) -> MaskD2 {
            MaskD2(sse!(_mm_cmple_pd(self.0, rhs.0)))
        }

        /// Lane-wise `self >= rhs` (false on NaN).
        #[inline]
        pub fn simd_ge(self, rhs: Self) -> MaskD2 {
            MaskD2(sse!(_mm_cmpge_pd(self.0, rhs.0)))
        }

        /// Picks `self` where `mask` is true, `other` where false.
        #[inline]
        pub fn select(self, mask: MaskD2, other: Self) -> Self {
            F64x2(sse!(_mm_or_pd(
                _mm_and_pd(mask.0, self.0),
                _mm_andnot_pd(mask.0, other.0),
            )))
        }
    }

    impl MaskD2 {
        /// Mask with every lane set to `b`.
        #[inline]
        pub fn splat(b: bool) -> Self {
            if b {
                MaskD2(all_ones_pd())
            } else {
                MaskD2(sse!(_mm_setzero_pd()))
            }
        }

        /// Lane-wise AND.
        #[inline]
        pub fn and(self, rhs: Self) -> Self {
            MaskD2(sse!(_mm_and_pd(self.0, rhs.0)))
        }

        /// Lane-wise OR.
        #[inline]
        pub fn or(self, rhs: Self) -> Self {
            MaskD2(sse!(_mm_or_pd(self.0, rhs.0)))
        }

        /// Lane-wise NOT.
        #[inline]
        pub fn not(self) -> Self {
            MaskD2(sse!(_mm_andnot_pd(self.0, all_ones_pd())))
        }

        /// One bit per lane, lane 0 in bit 0.
        #[inline]
        pub fn bitmask(self) -> u8 {
            (sse!(_mm_movemask_pd(self.0)) & 0x3) as u8
        }
    }
}

#[cfg(any(not(target_arch = "x86_64"), feature = "scalar-fallback"))]
mod backend {
    /// Four `f32` lanes in a plain array (scalar fallback backend).
    #[derive(Clone, Copy, Debug)]
    pub struct F32x4(pub(super) [f32; 4]);

    /// Lane mask for [`F32x4`], one bit per lane (lane 0 in bit 0).
    #[derive(Clone, Copy, Debug)]
    pub struct Mask4(pub(super) u8);

    /// Two `f64` lanes in a plain array (scalar fallback backend).
    #[derive(Clone, Copy, Debug)]
    pub struct F64x2(pub(super) [f64; 2]);

    /// Lane mask for [`F64x2`], one bit per lane (lane 0 in bit 0).
    #[derive(Clone, Copy, Debug)]
    pub struct MaskD2(pub(super) u8);

    /// SSE `minps` semantics: second operand on unordered or equal.
    #[inline]
    fn min_sse(a: f32, b: f32) -> f32 {
        if a < b {
            a
        } else {
            b
        }
    }

    /// SSE `maxps` semantics: second operand on unordered or equal.
    #[inline]
    fn max_sse(a: f32, b: f32) -> f32 {
        if a > b {
            a
        } else {
            b
        }
    }

    /// SSE2 `minpd` semantics: second operand on unordered or equal.
    #[inline]
    fn min_sse_d(a: f64, b: f64) -> f64 {
        if a < b {
            a
        } else {
            b
        }
    }

    /// SSE2 `maxpd` semantics: second operand on unordered or equal.
    #[inline]
    fn max_sse_d(a: f64, b: f64) -> f64 {
        if a > b {
            a
        } else {
            b
        }
    }

    impl F32x4 {
        /// Broadcasts `v` to all lanes.
        #[inline]
        pub fn splat(v: f32) -> Self {
            F32x4([v; 4])
        }

        /// Loads the four lanes from an array (`a[0]` is lane 0).
        #[inline]
        pub fn from_array(a: [f32; 4]) -> Self {
            F32x4(a)
        }

        /// Stores the four lanes to an array (`a[0]` is lane 0).
        #[inline]
        pub fn to_array(self) -> [f32; 4] {
            self.0
        }

        /// Lane-wise `self + rhs`.
        #[inline]
        pub fn add(self, rhs: Self) -> Self {
            F32x4(core::array::from_fn(|i| self.0[i] + rhs.0[i]))
        }

        /// Lane-wise `self - rhs`.
        #[inline]
        pub fn sub(self, rhs: Self) -> Self {
            F32x4(core::array::from_fn(|i| self.0[i] - rhs.0[i]))
        }

        /// Lane-wise `self * rhs`.
        #[inline]
        pub fn mul(self, rhs: Self) -> Self {
            F32x4(core::array::from_fn(|i| self.0[i] * rhs.0[i]))
        }

        /// Lane-wise `self * b + c`, rounded twice (**not** fused; see
        /// module docs).
        #[inline]
        pub fn mul_add(self, b: Self, c: Self) -> Self {
            F32x4(core::array::from_fn(|i| self.0[i] * b.0[i] + c.0[i]))
        }

        /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on
        /// `0/0`).
        #[inline]
        pub fn div(self, rhs: Self) -> Self {
            F32x4(core::array::from_fn(|i| self.0[i] / rhs.0[i]))
        }

        /// Lane-wise absolute value (clears the sign bit; `|NaN|` keeps
        /// its payload).
        #[inline]
        pub fn abs(self) -> Self {
            F32x4(core::array::from_fn(|i| {
                f32::from_bits(self.0[i].to_bits() & 0x7fff_ffff)
            }))
        }

        /// Lane-wise minimum with SSE `minps` semantics (see the SSE
        /// backend's docs).
        #[inline]
        pub fn min(self, rhs: Self) -> Self {
            F32x4(core::array::from_fn(|i| min_sse(self.0[i], rhs.0[i])))
        }

        /// Lane-wise maximum with SSE `maxps` semantics.
        #[inline]
        pub fn max(self, rhs: Self) -> Self {
            F32x4(core::array::from_fn(|i| max_sse(self.0[i], rhs.0[i])))
        }

        /// Lane-wise `self < rhs` (false on NaN).
        #[inline]
        pub fn simd_lt(self, rhs: Self) -> Mask4 {
            let mut m = 0u8;
            for i in 0..4 {
                m |= u8::from(self.0[i] < rhs.0[i]) << i;
            }
            Mask4(m)
        }

        /// Lane-wise `self <= rhs` (false on NaN).
        #[inline]
        pub fn simd_le(self, rhs: Self) -> Mask4 {
            let mut m = 0u8;
            for i in 0..4 {
                m |= u8::from(self.0[i] <= rhs.0[i]) << i;
            }
            Mask4(m)
        }

        /// Lane-wise `self >= rhs` (false on NaN).
        #[inline]
        pub fn simd_ge(self, rhs: Self) -> Mask4 {
            let mut m = 0u8;
            for i in 0..4 {
                m |= u8::from(self.0[i] >= rhs.0[i]) << i;
            }
            Mask4(m)
        }

        /// Picks `self` where `mask` is true, `other` where false.
        #[inline]
        pub fn select(self, mask: Mask4, other: Self) -> Self {
            F32x4(core::array::from_fn(|i| {
                if mask.0 & (1 << i) != 0 {
                    self.0[i]
                } else {
                    other.0[i]
                }
            }))
        }

        /// Horizontal sum with the fixed association
        /// `(a[0] + a[2]) + (a[1] + a[3])` (matches the SSE backend).
        #[inline]
        pub fn reduce_sum(self) -> f32 {
            (self.0[0] + self.0[2]) + (self.0[1] + self.0[3])
        }

        /// Horizontal minimum (SSE `minps` NaN semantics per step).
        #[inline]
        pub fn reduce_min(self) -> f32 {
            min_sse(min_sse(self.0[0], self.0[2]), min_sse(self.0[1], self.0[3]))
        }

        /// Horizontal maximum (SSE `maxps` NaN semantics per step).
        #[inline]
        pub fn reduce_max(self) -> f32 {
            max_sse(max_sse(self.0[0], self.0[2]), max_sse(self.0[1], self.0[3]))
        }
    }

    impl Mask4 {
        /// Mask with every lane set to `b`.
        #[inline]
        pub fn splat(b: bool) -> Self {
            Mask4(if b { 0xF } else { 0 })
        }

        /// Lane-wise AND.
        #[inline]
        pub fn and(self, rhs: Self) -> Self {
            Mask4(self.0 & rhs.0)
        }

        /// Lane-wise OR.
        #[inline]
        pub fn or(self, rhs: Self) -> Self {
            Mask4(self.0 | rhs.0)
        }

        /// Lane-wise NOT.
        #[inline]
        pub fn not(self) -> Self {
            Mask4(!self.0 & 0xF)
        }

        /// One bit per lane, lane 0 in bit 0.
        #[inline]
        pub fn bitmask(self) -> u8 {
            self.0
        }
    }

    impl F64x2 {
        /// Broadcasts `v` to both lanes.
        #[inline]
        pub fn splat(v: f64) -> Self {
            F64x2([v; 2])
        }

        /// Loads the two lanes from an array (`a[0]` is lane 0).
        #[inline]
        pub fn from_array(a: [f64; 2]) -> Self {
            F64x2(a)
        }

        /// Stores the two lanes to an array (`a[0]` is lane 0).
        #[inline]
        pub fn to_array(self) -> [f64; 2] {
            self.0
        }

        /// Lane-wise `self + rhs`.
        #[inline]
        pub fn add(self, rhs: Self) -> Self {
            F64x2(core::array::from_fn(|i| self.0[i] + rhs.0[i]))
        }

        /// Lane-wise `self - rhs`.
        #[inline]
        pub fn sub(self, rhs: Self) -> Self {
            F64x2(core::array::from_fn(|i| self.0[i] - rhs.0[i]))
        }

        /// Lane-wise `self * rhs`.
        #[inline]
        pub fn mul(self, rhs: Self) -> Self {
            F64x2(core::array::from_fn(|i| self.0[i] * rhs.0[i]))
        }

        /// Lane-wise `self * b + c`, rounded twice (**not** fused; see
        /// module docs).
        #[inline]
        pub fn mul_add(self, b: Self, c: Self) -> Self {
            F64x2(core::array::from_fn(|i| self.0[i] * b.0[i] + c.0[i]))
        }

        /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on
        /// `0/0`).
        #[inline]
        pub fn div(self, rhs: Self) -> Self {
            F64x2(core::array::from_fn(|i| self.0[i] / rhs.0[i]))
        }

        /// Lane-wise absolute value (clears the sign bit; `|NaN|` keeps
        /// its payload).
        #[inline]
        pub fn abs(self) -> Self {
            F64x2(core::array::from_fn(|i| {
                f64::from_bits(self.0[i].to_bits() & 0x7fff_ffff_ffff_ffff)
            }))
        }

        /// Lane-wise minimum with SSE2 `minpd` semantics.
        #[inline]
        pub fn min(self, rhs: Self) -> Self {
            F64x2(core::array::from_fn(|i| min_sse_d(self.0[i], rhs.0[i])))
        }

        /// Lane-wise maximum with SSE2 `maxpd` semantics.
        #[inline]
        pub fn max(self, rhs: Self) -> Self {
            F64x2(core::array::from_fn(|i| max_sse_d(self.0[i], rhs.0[i])))
        }

        /// Lane-wise `self < rhs` (false on NaN).
        #[inline]
        pub fn simd_lt(self, rhs: Self) -> MaskD2 {
            let mut m = 0u8;
            for i in 0..2 {
                m |= u8::from(self.0[i] < rhs.0[i]) << i;
            }
            MaskD2(m)
        }

        /// Lane-wise `self <= rhs` (false on NaN).
        #[inline]
        pub fn simd_le(self, rhs: Self) -> MaskD2 {
            let mut m = 0u8;
            for i in 0..2 {
                m |= u8::from(self.0[i] <= rhs.0[i]) << i;
            }
            MaskD2(m)
        }

        /// Lane-wise `self >= rhs` (false on NaN).
        #[inline]
        pub fn simd_ge(self, rhs: Self) -> MaskD2 {
            let mut m = 0u8;
            for i in 0..2 {
                m |= u8::from(self.0[i] >= rhs.0[i]) << i;
            }
            MaskD2(m)
        }

        /// Picks `self` where `mask` is true, `other` where false.
        #[inline]
        pub fn select(self, mask: MaskD2, other: Self) -> Self {
            F64x2(core::array::from_fn(|i| {
                if mask.0 & (1 << i) != 0 {
                    self.0[i]
                } else {
                    other.0[i]
                }
            }))
        }
    }

    impl MaskD2 {
        /// Mask with every lane set to `b`.
        #[inline]
        pub fn splat(b: bool) -> Self {
            MaskD2(if b { 0x3 } else { 0 })
        }

        /// Lane-wise AND.
        #[inline]
        pub fn and(self, rhs: Self) -> Self {
            MaskD2(self.0 & rhs.0)
        }

        /// Lane-wise OR.
        #[inline]
        pub fn or(self, rhs: Self) -> Self {
            MaskD2(self.0 | rhs.0)
        }

        /// Lane-wise NOT.
        #[inline]
        pub fn not(self) -> Self {
            MaskD2(!self.0 & 0x3)
        }

        /// One bit per lane, lane 0 in bit 0.
        #[inline]
        pub fn bitmask(self) -> u8 {
            self.0
        }
    }
}

pub use backend::{F32x4, F64x2, Mask4, MaskD2};

#[cfg(target_arch = "x86_64")]
pub mod avx2;
pub mod phasor;

impl Mask4 {
    /// `true` if any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        self.bitmask() != 0
    }

    /// `true` if every lane is set.
    #[inline]
    pub fn all(self) -> bool {
        self.bitmask() == 0xF
    }
}

impl MaskD2 {
    /// `true` if any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        self.bitmask() != 0
    }

    /// `true` if every lane is set.
    #[inline]
    pub fn all(self) -> bool {
        self.bitmask() == 0x3
    }
}

/// Eight `f32` lanes as a pair of [`F32x4`] — the portable wide-lane arm
/// of the ray-packet width used by `surfos-geometry`'s packet traversal.
#[derive(Clone, Copy, Debug)]
pub struct F32x8(F32x4, F32x4);

/// Lane mask for [`F32x8`].
#[derive(Clone, Copy, Debug)]
pub struct Mask8(Mask4, Mask4);

impl F32x8 {
    /// Number of lanes.
    pub const LANES: usize = 8;

    /// Broadcasts `v` to all lanes.
    #[inline]
    pub fn splat(v: f32) -> Self {
        F32x8(F32x4::splat(v), F32x4::splat(v))
    }

    /// Loads the eight lanes from an array (`a[0]` is lane 0).
    #[inline]
    pub fn from_array(a: [f32; 8]) -> Self {
        F32x8(
            F32x4::from_array([a[0], a[1], a[2], a[3]]),
            F32x4::from_array([a[4], a[5], a[6], a[7]]),
        )
    }

    /// Stores the eight lanes to an array (`a[0]` is lane 0).
    #[inline]
    pub fn to_array(self) -> [f32; 8] {
        let lo = self.0.to_array();
        let hi = self.1.to_array();
        [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
    }

    /// Lane-wise `self + rhs`.
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        F32x8(self.0.add(rhs.0), self.1.add(rhs.1))
    }

    /// Lane-wise `self - rhs`.
    #[inline]
    pub fn sub(self, rhs: Self) -> Self {
        F32x8(self.0.sub(rhs.0), self.1.sub(rhs.1))
    }

    /// Lane-wise `self * rhs`.
    #[inline]
    pub fn mul(self, rhs: Self) -> Self {
        F32x8(self.0.mul(rhs.0), self.1.mul(rhs.1))
    }

    /// Lane-wise `self * b + c`, rounded twice (**not** fused).
    #[inline]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        F32x8(self.0.mul_add(b.0, c.0), self.1.mul_add(b.1, c.1))
    }

    /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on `0/0`).
    #[inline]
    pub fn div(self, rhs: Self) -> Self {
        F32x8(self.0.div(rhs.0), self.1.div(rhs.1))
    }

    /// Lane-wise absolute value (clears the sign bit; `|NaN|` keeps its payload).
    #[inline]
    pub fn abs(self) -> Self {
        F32x8(self.0.abs(), self.1.abs())
    }

    /// Lane-wise minimum with SSE `minps` semantics.
    #[inline]
    pub fn min(self, rhs: Self) -> Self {
        F32x8(self.0.min(rhs.0), self.1.min(rhs.1))
    }

    /// Lane-wise maximum with SSE `maxps` semantics.
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        F32x8(self.0.max(rhs.0), self.1.max(rhs.1))
    }

    /// Lane-wise `self < rhs` (false on NaN).
    #[inline]
    pub fn simd_lt(self, rhs: Self) -> Mask8 {
        Mask8(self.0.simd_lt(rhs.0), self.1.simd_lt(rhs.1))
    }

    /// Lane-wise `self <= rhs` (false on NaN).
    #[inline]
    pub fn simd_le(self, rhs: Self) -> Mask8 {
        Mask8(self.0.simd_le(rhs.0), self.1.simd_le(rhs.1))
    }

    /// Lane-wise `self >= rhs` (false on NaN).
    #[inline]
    pub fn simd_ge(self, rhs: Self) -> Mask8 {
        Mask8(self.0.simd_ge(rhs.0), self.1.simd_ge(rhs.1))
    }

    /// Picks `self` where `mask` is true, `other` where false.
    #[inline]
    pub fn select(self, mask: Mask8, other: Self) -> Self {
        F32x8(
            self.0.select(mask.0, other.0),
            self.1.select(mask.1, other.1),
        )
    }

    /// Horizontal sum: `lo.reduce_sum() + hi.reduce_sum()`.
    #[inline]
    pub fn reduce_sum(self) -> f32 {
        self.0.reduce_sum() + self.1.reduce_sum()
    }

    /// Horizontal minimum (SSE `minps` NaN semantics per step).
    #[inline]
    pub fn reduce_min(self) -> f32 {
        let a = self.0.reduce_min();
        let b = self.1.reduce_min();
        if a < b {
            a
        } else {
            b
        }
    }

    /// Horizontal maximum (SSE `maxps` NaN semantics per step).
    #[inline]
    pub fn reduce_max(self) -> f32 {
        let a = self.0.reduce_max();
        let b = self.1.reduce_max();
        if a > b {
            a
        } else {
            b
        }
    }
}

impl Mask8 {
    /// Mask with every lane set to `b`.
    #[inline]
    pub fn splat(b: bool) -> Self {
        Mask8(Mask4::splat(b), Mask4::splat(b))
    }

    /// Mask with the first `n` lanes set (`n` is clamped to 8) — the
    /// shape of a partially filled remainder packet. Delegates to the
    /// backend-generic [`SimdF32x8::mask_first_n`].
    #[inline]
    pub fn first_n(n: usize) -> Self {
        <F32x8 as SimdF32x8>::mask_first_n(n)
    }

    /// Lane-wise AND.
    #[inline]
    pub fn and(self, rhs: Self) -> Self {
        Mask8(self.0.and(rhs.0), self.1.and(rhs.1))
    }

    /// Lane-wise OR.
    #[inline]
    pub fn or(self, rhs: Self) -> Self {
        Mask8(self.0.or(rhs.0), self.1.or(rhs.1))
    }

    /// Lane-wise NOT.
    #[inline]
    pub fn not(self) -> Self {
        Mask8(self.0.not(), self.1.not())
    }

    /// One bit per lane, lane 0 in bit 0.
    #[inline]
    pub fn bitmask(self) -> u8 {
        self.0.bitmask() | (self.1.bitmask() << 4)
    }

    /// `true` if any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        self.bitmask() != 0
    }

    /// `true` if every lane is set.
    #[inline]
    pub fn all(self) -> bool {
        self.bitmask() == 0xFF
    }
}

/// Four `f64` lanes as a pair of [`F64x2`] — the portable wide-lane arm
/// of the exact `crossing_t` batch solve in `surfos-geometry`.
#[derive(Clone, Copy, Debug)]
pub struct F64x4(F64x2, F64x2);

/// Lane mask for [`F64x4`].
#[derive(Clone, Copy, Debug)]
pub struct MaskD4(MaskD2, MaskD2);

impl F64x4 {
    /// Number of lanes.
    pub const LANES: usize = 4;

    /// Broadcasts `v` to all lanes.
    #[inline]
    pub fn splat(v: f64) -> Self {
        F64x4(F64x2::splat(v), F64x2::splat(v))
    }

    /// Loads the four lanes from an array (`a[0]` is lane 0).
    #[inline]
    pub fn from_array(a: [f64; 4]) -> Self {
        F64x4(
            F64x2::from_array([a[0], a[1]]),
            F64x2::from_array([a[2], a[3]]),
        )
    }

    /// Stores the four lanes to an array (`a[0]` is lane 0).
    #[inline]
    pub fn to_array(self) -> [f64; 4] {
        let lo = self.0.to_array();
        let hi = self.1.to_array();
        [lo[0], lo[1], hi[0], hi[1]]
    }

    /// Lane-wise `self + rhs`.
    #[inline]
    pub fn add(self, rhs: Self) -> Self {
        F64x4(self.0.add(rhs.0), self.1.add(rhs.1))
    }

    /// Lane-wise `self - rhs`.
    #[inline]
    pub fn sub(self, rhs: Self) -> Self {
        F64x4(self.0.sub(rhs.0), self.1.sub(rhs.1))
    }

    /// Lane-wise `self * rhs`.
    #[inline]
    pub fn mul(self, rhs: Self) -> Self {
        F64x4(self.0.mul(rhs.0), self.1.mul(rhs.1))
    }

    /// Lane-wise `self * b + c`, rounded twice (**not** fused).
    #[inline]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        F64x4(self.0.mul_add(b.0, c.0), self.1.mul_add(b.1, c.1))
    }

    /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on `0/0`).
    #[inline]
    pub fn div(self, rhs: Self) -> Self {
        F64x4(self.0.div(rhs.0), self.1.div(rhs.1))
    }

    /// Lane-wise absolute value (clears the sign bit; `|NaN|` keeps its payload).
    #[inline]
    pub fn abs(self) -> Self {
        F64x4(self.0.abs(), self.1.abs())
    }

    /// Lane-wise minimum with SSE2 `minpd` semantics.
    #[inline]
    pub fn min(self, rhs: Self) -> Self {
        F64x4(self.0.min(rhs.0), self.1.min(rhs.1))
    }

    /// Lane-wise maximum with SSE2 `maxpd` semantics.
    #[inline]
    pub fn max(self, rhs: Self) -> Self {
        F64x4(self.0.max(rhs.0), self.1.max(rhs.1))
    }

    /// Lane-wise `self < rhs` (false on NaN).
    #[inline]
    pub fn simd_lt(self, rhs: Self) -> MaskD4 {
        MaskD4(self.0.simd_lt(rhs.0), self.1.simd_lt(rhs.1))
    }

    /// Lane-wise `self <= rhs` (false on NaN).
    #[inline]
    pub fn simd_le(self, rhs: Self) -> MaskD4 {
        MaskD4(self.0.simd_le(rhs.0), self.1.simd_le(rhs.1))
    }

    /// Lane-wise `self >= rhs` (false on NaN).
    #[inline]
    pub fn simd_ge(self, rhs: Self) -> MaskD4 {
        MaskD4(self.0.simd_ge(rhs.0), self.1.simd_ge(rhs.1))
    }

    /// Picks `self` where `mask` is true, `other` where false.
    #[inline]
    pub fn select(self, mask: MaskD4, other: Self) -> Self {
        F64x4(
            self.0.select(mask.0, other.0),
            self.1.select(mask.1, other.1),
        )
    }
}

impl MaskD4 {
    /// Mask with every lane set to `b`.
    #[inline]
    pub fn splat(b: bool) -> Self {
        MaskD4(MaskD2::splat(b), MaskD2::splat(b))
    }

    /// Lane-wise AND.
    #[inline]
    pub fn and(self, rhs: Self) -> Self {
        MaskD4(self.0.and(rhs.0), self.1.and(rhs.1))
    }

    /// Lane-wise OR.
    #[inline]
    pub fn or(self, rhs: Self) -> Self {
        MaskD4(self.0.or(rhs.0), self.1.or(rhs.1))
    }

    /// Lane-wise NOT.
    #[inline]
    pub fn not(self) -> Self {
        MaskD4(self.0.not(), self.1.not())
    }

    /// One bit per lane, lane 0 in bit 0.
    #[inline]
    pub fn bitmask(self) -> u8 {
        self.0.bitmask() | (self.1.bitmask() << 2)
    }

    /// `true` if any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        self.bitmask() != 0
    }

    /// `true` if every lane is set.
    #[inline]
    pub fn all(self) -> bool {
        self.bitmask() == 0xF
    }
}

/// Eight-lane `f32` vector abstraction: lets packet-traversal and
/// prefilter kernels be written once, generic over the portable
/// [`F32x8`] pair type and the native AVX2 [`avx2::F32x8A`] register.
///
/// Every operation has identical lane semantics on every implementor
/// (IEEE lane-wise math, SSE operand-order `min`/`max` under NaN,
/// compares false on NaN, **unfused** `mul_add`, and the fixed
/// `reduce_sum` association), so a generic kernel produces bit-identical
/// results regardless of which implementor it is instantiated with.
pub trait SimdF32x8: Copy + core::fmt::Debug {
    /// The mask type produced by this vector's compares.
    type Mask: SimdMask8;

    /// Number of lanes.
    const LANES: usize = 8;

    /// Broadcasts `v` to all lanes.
    fn splat(v: f32) -> Self;
    /// Loads the eight lanes from an array (`a[0]` is lane 0).
    fn from_array(a: [f32; 8]) -> Self;
    /// Stores the eight lanes to an array (`a[0]` is lane 0).
    fn to_array(self) -> [f32; 8];
    /// Lane-wise `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise `self - rhs`.
    fn sub(self, rhs: Self) -> Self;
    /// Lane-wise `self * rhs`.
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise `self * b + c`, rounded twice (**not** fused).
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on `0/0`).
    fn div(self, rhs: Self) -> Self;
    /// Lane-wise absolute value (clears the sign bit).
    fn abs(self) -> Self;
    /// Lane-wise minimum with SSE `minps` operand-order semantics.
    fn min(self, rhs: Self) -> Self;
    /// Lane-wise maximum with SSE `maxps` operand-order semantics.
    fn max(self, rhs: Self) -> Self;
    /// Lane-wise `self < rhs` (false on NaN).
    fn simd_lt(self, rhs: Self) -> Self::Mask;
    /// Lane-wise `self <= rhs` (false on NaN).
    fn simd_le(self, rhs: Self) -> Self::Mask;
    /// Lane-wise `self >= rhs` (false on NaN).
    fn simd_ge(self, rhs: Self) -> Self::Mask;
    /// Picks `self` where `mask` is true, `other` where false.
    fn select(self, mask: Self::Mask, other: Self) -> Self;
    /// Horizontal sum with the fixed
    /// `((a0+a2)+(a1+a3)) + ((a4+a6)+(a5+a7))` association.
    fn reduce_sum(self) -> f32;

    /// Mask with the first `n` lanes set (`n` clamped to the lane
    /// count) — the shape of a partially filled remainder packet.
    ///
    /// Backend-generic by construction: an index-compare against the
    /// splat of `n`, with no assumption about the register layout.
    #[inline]
    fn mask_first_n(n: usize) -> Self::Mask {
        let lanes = Self::from_array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        lanes.simd_lt(Self::splat(n.min(Self::LANES) as f32))
    }
}

/// Mask abstraction paired with [`SimdF32x8`].
pub trait SimdMask8: Copy + core::fmt::Debug {
    /// Mask with every lane set to `b`.
    fn splat(b: bool) -> Self;
    /// Lane-wise AND.
    fn and(self, rhs: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, rhs: Self) -> Self;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// One bit per lane, lane 0 in bit 0.
    fn bitmask(self) -> u8;

    /// `true` if any lane is set.
    #[inline]
    fn any(self) -> bool {
        self.bitmask() != 0
    }

    /// `true` if every lane is set.
    #[inline]
    fn all(self) -> bool {
        self.bitmask() == 0xFF
    }
}

/// Four-lane `f64` vector abstraction for the exact path math (the
/// `crossing_t` batch solve); implemented by the portable [`F64x4`]
/// pair type and the native AVX2 [`avx2::F64x4A`]. Same bit-identical
/// lane-semantics contract as [`SimdF32x8`].
pub trait SimdF64x4: Copy + core::fmt::Debug {
    /// The mask type produced by this vector's compares.
    type Mask: SimdMaskD4;

    /// Number of lanes.
    const LANES: usize = 4;

    /// Broadcasts `v` to all lanes.
    fn splat(v: f64) -> Self;
    /// Loads the four lanes from an array (`a[0]` is lane 0).
    fn from_array(a: [f64; 4]) -> Self;
    /// Stores the four lanes to an array (`a[0]` is lane 0).
    fn to_array(self) -> [f64; 4];
    /// Lane-wise `self + rhs`.
    fn add(self, rhs: Self) -> Self;
    /// Lane-wise `self - rhs`.
    fn sub(self, rhs: Self) -> Self;
    /// Lane-wise `self * rhs`.
    fn mul(self, rhs: Self) -> Self;
    /// Lane-wise `self * b + c`, rounded twice (**not** fused).
    fn mul_add(self, b: Self, c: Self) -> Self;
    /// Lane-wise `self / rhs` (IEEE: `±∞` on zero divisors, NaN on `0/0`).
    fn div(self, rhs: Self) -> Self;
    /// Lane-wise absolute value (clears the sign bit).
    fn abs(self) -> Self;
    /// Lane-wise minimum with SSE2 `minpd` operand-order semantics.
    fn min(self, rhs: Self) -> Self;
    /// Lane-wise maximum with SSE2 `maxpd` operand-order semantics.
    fn max(self, rhs: Self) -> Self;
    /// Lane-wise `self < rhs` (false on NaN).
    fn simd_lt(self, rhs: Self) -> Self::Mask;
    /// Lane-wise `self <= rhs` (false on NaN).
    fn simd_le(self, rhs: Self) -> Self::Mask;
    /// Lane-wise `self >= rhs` (false on NaN).
    fn simd_ge(self, rhs: Self) -> Self::Mask;
    /// Picks `self` where `mask` is true, `other` where false.
    fn select(self, mask: Self::Mask, other: Self) -> Self;
}

/// Mask abstraction paired with [`SimdF64x4`].
pub trait SimdMaskD4: Copy + core::fmt::Debug {
    /// Mask with every lane set to `b`.
    fn splat(b: bool) -> Self;
    /// Lane-wise AND.
    fn and(self, rhs: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, rhs: Self) -> Self;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// One bit per lane, lane 0 in bit 0.
    fn bitmask(self) -> u8;

    /// `true` if any lane is set.
    #[inline]
    fn any(self) -> bool {
        self.bitmask() != 0
    }

    /// `true` if every lane is set.
    #[inline]
    fn all(self) -> bool {
        self.bitmask() == 0xF
    }
}

impl SimdF32x8 for F32x8 {
    type Mask = Mask8;

    #[inline]
    fn splat(v: f32) -> Self {
        F32x8::splat(v)
    }
    #[inline]
    fn from_array(a: [f32; 8]) -> Self {
        F32x8::from_array(a)
    }
    #[inline]
    fn to_array(self) -> [f32; 8] {
        F32x8::to_array(self)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        F32x8::add(self, rhs)
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        F32x8::sub(self, rhs)
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        F32x8::mul(self, rhs)
    }
    #[inline]
    fn mul_add(self, b: Self, c: Self) -> Self {
        F32x8::mul_add(self, b, c)
    }
    #[inline]
    fn div(self, rhs: Self) -> Self {
        F32x8::div(self, rhs)
    }
    #[inline]
    fn abs(self) -> Self {
        F32x8::abs(self)
    }
    #[inline]
    fn min(self, rhs: Self) -> Self {
        F32x8::min(self, rhs)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        F32x8::max(self, rhs)
    }
    #[inline]
    fn simd_lt(self, rhs: Self) -> Mask8 {
        F32x8::simd_lt(self, rhs)
    }
    #[inline]
    fn simd_le(self, rhs: Self) -> Mask8 {
        F32x8::simd_le(self, rhs)
    }
    #[inline]
    fn simd_ge(self, rhs: Self) -> Mask8 {
        F32x8::simd_ge(self, rhs)
    }
    #[inline]
    fn select(self, mask: Mask8, other: Self) -> Self {
        F32x8::select(self, mask, other)
    }
    #[inline]
    fn reduce_sum(self) -> f32 {
        F32x8::reduce_sum(self)
    }
}

impl SimdMask8 for Mask8 {
    #[inline]
    fn splat(b: bool) -> Self {
        Mask8::splat(b)
    }
    #[inline]
    fn and(self, rhs: Self) -> Self {
        Mask8::and(self, rhs)
    }
    #[inline]
    fn or(self, rhs: Self) -> Self {
        Mask8::or(self, rhs)
    }
    #[inline]
    fn not(self) -> Self {
        Mask8::not(self)
    }
    #[inline]
    fn bitmask(self) -> u8 {
        Mask8::bitmask(self)
    }
}

impl SimdF64x4 for F64x4 {
    type Mask = MaskD4;

    #[inline]
    fn splat(v: f64) -> Self {
        F64x4::splat(v)
    }
    #[inline]
    fn from_array(a: [f64; 4]) -> Self {
        F64x4::from_array(a)
    }
    #[inline]
    fn to_array(self) -> [f64; 4] {
        F64x4::to_array(self)
    }
    #[inline]
    fn add(self, rhs: Self) -> Self {
        F64x4::add(self, rhs)
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        F64x4::sub(self, rhs)
    }
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        F64x4::mul(self, rhs)
    }
    #[inline]
    fn mul_add(self, b: Self, c: Self) -> Self {
        F64x4::mul_add(self, b, c)
    }
    #[inline]
    fn div(self, rhs: Self) -> Self {
        F64x4::div(self, rhs)
    }
    #[inline]
    fn abs(self) -> Self {
        F64x4::abs(self)
    }
    #[inline]
    fn min(self, rhs: Self) -> Self {
        F64x4::min(self, rhs)
    }
    #[inline]
    fn max(self, rhs: Self) -> Self {
        F64x4::max(self, rhs)
    }
    #[inline]
    fn simd_lt(self, rhs: Self) -> MaskD4 {
        F64x4::simd_lt(self, rhs)
    }
    #[inline]
    fn simd_le(self, rhs: Self) -> MaskD4 {
        F64x4::simd_le(self, rhs)
    }
    #[inline]
    fn simd_ge(self, rhs: Self) -> MaskD4 {
        F64x4::simd_ge(self, rhs)
    }
    #[inline]
    fn select(self, mask: MaskD4, other: Self) -> Self {
        F64x4::select(self, mask, other)
    }
}

impl SimdMaskD4 for MaskD4 {
    #[inline]
    fn splat(b: bool) -> Self {
        MaskD4::splat(b)
    }
    #[inline]
    fn and(self, rhs: Self) -> Self {
        MaskD4::and(self, rhs)
    }
    #[inline]
    fn or(self, rhs: Self) -> Self {
        MaskD4::or(self, rhs)
    }
    #[inline]
    fn not(self) -> Self {
        MaskD4::not(self)
    }
    #[inline]
    fn bitmask(self) -> u8 {
        MaskD4::bitmask(self)
    }
}

/// Which kernel arm the runtime-dispatched hot paths use.
///
/// Selected **once per process** by [`backend()`]: `Avx2` when the CPU
/// reports both `avx2` and `fma` (and the crate is built with its
/// x86_64 intrinsics backend), `Sse2` otherwise. The `SURFOS_SIMD`
/// environment variable overrides the choice for testing:
///
/// - `SURFOS_SIMD=scalar` — per-candidate scalar reference loops in the
///   dispatched kernels (no packets, no prefilter banks).
/// - `SURFOS_SIMD=sse2` — the portable wide-lane arm (SSE2 pair
///   registers on x86_64; bit-identical plain arrays elsewhere).
/// - `SURFOS_SIMD=avx2` — the native AVX2 arm; silently falls back to
///   the detected best when the CPU or build cannot run it.
///
/// The discriminants are the values reported by the
/// `em.simd.backend` gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Backend {
    /// Scalar reference loops (what every wide arm is tested against).
    Scalar = 1,
    /// Portable wide lanes: SSE2 registers on x86_64, plain arrays
    /// elsewhere — bit-identical either way.
    Sse2 = 2,
    /// Native AVX2 registers (requires `avx2` + `fma` at runtime).
    Avx2 = 3,
}

impl Backend {
    /// Lower-case name, matching the accepted `SURFOS_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }

    /// `true` if this arm's phasor kernel fuses the complex rotation
    /// (single-rounded multiply-add); see [`phasor`] for the ULP budget.
    pub fn fuses_rotation(self) -> bool {
        matches!(self, Backend::Avx2)
    }
}

/// Cached dispatch decision: 0 = not yet initialised, else the
/// `Backend` discriminant.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// `true` if the native AVX2 arm can run: x86_64 intrinsics backend
/// compiled in and the CPU reports both `avx2` and `fma`.
#[inline]
pub fn avx2_available() -> bool {
    #[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-fallback"))))]
    {
        false
    }
}

/// The kernel arm the dispatched hot paths use, deciding (and caching)
/// it on first call.
///
/// After the first call this is a single relaxed atomic load — cheap
/// enough to sit inside per-query dispatch without a function-pointer
/// table. The choice is a fact about the process, not about any one run,
/// so nothing is logged here: snapshot publishers read it at collect
/// time (`surfos::telemetry::metrics_snapshot`).
#[inline]
pub fn backend() -> Backend {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Sse2,
        3 => Backend::Avx2,
        _ => init_backend(),
    }
}

/// One-time dispatch: detect, apply the `SURFOS_SIMD` override (an
/// unrunnable or unrecognised value falls back to the detected arm) and
/// cache. Racing first callers compute the same answer.
#[cold]
fn init_backend() -> Backend {
    let detected = if avx2_available() {
        Backend::Avx2
    } else {
        Backend::Sse2
    };
    let chosen = match std::env::var("SURFOS_SIMD").as_deref() {
        Ok("scalar") => Backend::Scalar,
        Ok("sse2") => Backend::Sse2,
        _ => detected,
    };
    ACTIVE.store(chosen as u8, Ordering::Relaxed);
    chosen
}

#[cfg(test)]
mod tests;
