//! Four-wide struct-of-arrays arithmetic in GF(2^255 − 19).
//!
//! [`Fe4`] holds **four independent field elements** limb-sliced as
//! `[[u64; 4]; 5]`: `limbs[i][lane]` is limb `i` (radix 2^51) of element
//! `lane`. Every operation processes all four lanes in one pass, so the
//! inner loops are straight-line quads of identical `u64`/`u128`
//! operations: the conditional-swap masks and lane adds autovectorize,
//! and the four multiplication chains — each latency-bound on its own —
//! interleave in the out-of-order window and keep the 64-bit multiplier
//! port saturated. [`crate::x25519`] steps four onions' ladders in
//! lockstep on this type on CPUs without AVX-512 IFMA; where the CPU has
//! it the eight-wide `fe8` kernel runs instead (about 5× faster per
//! ladder), and this module is the portable fallback.
//!
//! (A 10×25.5-bit `u32`-sliced variant whose products map to
//! `pmuludq`/`vpmuludq` was prototyped and measured 2–5× *slower* here,
//! both rolled — per-term loop overhead — and fully unrolled — SROA
//! scalarizes the limb arrays and the SLP vectorizer never reassembles
//! them, and even when it does, 40 live vector values spill. The 51-bit
//! scalar kernel interleaved four-wide is the fastest shape *portable*
//! safe Rust reaches on x86-64 — what is left within it is
//! latency-hiding, which this layout buys; a vector multiplier that
//! does pay is the 52-bit `vpmadd52` one, used through intrinsics in
//! `fe8.rs`.)
//!
//! # Loose-reduction invariant
//!
//! Unlike [`Fe`](crate::field::Fe), which re-carries after *every*
//! operation, `Fe4` is **lazily reduced** — the second saving. The
//! contract, stated as a per-limb bound:
//!
//! * *loose* means every limb is below 2^52 — the state produced by
//!   [`Fe4::mul`], [`Fe4::square`], [`Fe4::mul_small`], [`Fe4::carry`]
//!   and [`Fe4::from_fes`] of loosely-reduced `Fe`s;
//! * [`Fe4::add`] does **not** carry: it may be applied to inputs with
//!   limbs below 2^53 and yields limbs below 2^54;
//! * [`Fe4::sub`] does **not** carry: it adds 4p first, so it accepts a
//!   subtrahend with limbs below 2^53 − 76 (any loose value qualifies)
//!   and a minuend with limbs below 2^53, yielding limbs below 2^54;
//! * [`Fe4::mul`] / [`Fe4::square`] accept limbs up to 2^54 and carry
//!   their result back to loose. With 2^54-bounded inputs the widest
//!   accumulator term is `5 · 19 · 2^54 · 2^54 < 2^115`, comfortably
//!   inside `u128`, and the final ×19 fold is performed in `u128`
//!   because its carry can exceed 64 − 51 bits.
//!
//! Every add/sub in one Montgomery ladder step takes loose inputs and
//! feeds a multiplication, so the whole step runs carry-free between
//! products: 8 full carry propagations per step per element in the
//! scalar ladder simply disappear. The equivalence proptests
//! (`crates/crypto/tests/proptests.rs`) pin each `Fe4` operation against
//! four independent scalar [`Fe`](crate::field::Fe) operations, and the
//! ladder built on this type is byte-identical to the scalar RFC 7748
//! ladder.

// The limb/lane index loops below are written as explicit counted loops
// on purpose: they mirror the generated quad structure one-to-one and
// keep the codegen shape the bench was tuned against. Iterator-chain
// rewrites obscure that without changing the semantics.
#![allow(clippy::needless_range_loop)]

use crate::field::Fe;

/// Number of field elements processed in lockstep.
pub const LANES: usize = 4;

/// Mask selecting the low 51 bits of a limb.
const LOW_51: u64 = (1 << 51) - 1;

/// Four independent elements of GF(2^255 − 19), limb-sliced for
/// batch processing. See the module docs for the reduction invariant.
#[derive(Clone, Copy, Debug)]
pub struct Fe4 {
    /// `limbs[i][lane]`: limb `i` of element `lane`.
    limbs: [[u64; LANES]; 5],
}

impl Fe4 {
    /// Packs four independent field elements into lanes `0..4`.
    ///
    /// Loosely-reduced inputs (every public [`Fe`] constructor and
    /// operation yields limbs < 2^52) produce a loose `Fe4`.
    #[must_use]
    pub fn from_fes(elements: [Fe; LANES]) -> Fe4 {
        let mut limbs = [[0u64; LANES]; 5];
        for (lane, fe) in elements.iter().enumerate() {
            for i in 0..5 {
                limbs[i][lane] = fe.0[i];
            }
        }
        Fe4 { limbs }
    }

    /// Broadcasts one element into all four lanes.
    #[must_use]
    pub fn splat(element: Fe) -> Fe4 {
        Fe4::from_fes([element; LANES])
    }

    /// Extracts lane `lane` as a scalar [`Fe`], carried back to the
    /// loose representation scalar code expects.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 4`.
    #[must_use]
    pub fn lane(&self, lane: usize) -> Fe {
        let mut limbs = [0u64; 5];
        for (i, limb) in limbs.iter_mut().enumerate() {
            *limb = self.limbs[i][lane];
        }
        Fe(limbs).carry()
    }

    /// Lane-wise field addition. Does **not** carry: inputs with limbs
    /// below 2^53 yield limbs below 2^54 (valid [`Fe4::mul`] input).
    #[must_use]
    #[inline(always)]
    pub fn add(&self, rhs: &Fe4) -> Fe4 {
        let mut out = [[0u64; LANES]; 5];
        for i in 0..5 {
            for l in 0..LANES {
                out[i][l] = self.limbs[i][l] + rhs.limbs[i][l];
            }
        }
        Fe4 { limbs: out }
    }

    /// Lane-wise field subtraction via the add-4p trick; no carry. The
    /// subtrahend's limbs must be below 2^53 − 76 (loose values always
    /// are) so no limb underflows; minuend limbs below 2^53 yield limbs
    /// below 2^54.
    #[must_use]
    #[inline(always)]
    pub fn sub(&self, rhs: &Fe4) -> Fe4 {
        // 4p limb-wise, as in `Fe::sub`: tolerates loose inputs without
        // underflow while staying within the 2^54 mul-input budget.
        const FOUR_P0: u64 = 0x1F_FFFF_FFFF_FFB4; // 4 · (2^51 − 19)
        const FOUR_P1234: u64 = 0x1F_FFFF_FFFF_FFFC; // 4 · (2^51 − 1)
        let mut out = [[0u64; LANES]; 5];
        for l in 0..LANES {
            out[0][l] = self.limbs[0][l] + FOUR_P0 - rhs.limbs[0][l];
        }
        for i in 1..5 {
            for l in 0..LANES {
                out[i][l] = self.limbs[i][l] + FOUR_P1234 - rhs.limbs[i][l];
            }
        }
        Fe4 { limbs: out }
    }

    /// Lane-wise field multiplication (schoolbook over `u128` with the
    /// ×19 wraparound, as [`Fe::mul`]). Accepts limbs up to 2^54 and
    /// carries the result back to loose (< 2^52).
    #[must_use]
    #[inline(always)]
    pub fn mul(&self, rhs: &Fe4) -> Fe4 {
        let m = |x: u64, y: u64| -> u128 { u128::from(x) * u128::from(y) };
        let mut t = [[0u128; LANES]; 5];
        let (a, b) = (&self.limbs, &rhs.limbs);
        for l in 0..LANES {
            let a = [a[0][l], a[1][l], a[2][l], a[3][l], a[4][l]];
            let b = [b[0][l], b[1][l], b[2][l], b[3][l], b[4][l]];
            // 19·b fits u64 for b < 2^54 (19 · 2^54 < 2^59).
            let b1_19 = 19 * b[1];
            let b2_19 = 19 * b[2];
            let b3_19 = 19 * b[3];
            let b4_19 = 19 * b[4];

            t[0][l] =
                m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
            t[1][l] =
                m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
            t[2][l] =
                m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
            t[3][l] =
                m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
            t[4][l] = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
        }
        Fe4::reduce_wide(&mut t)
    }

    /// Lane-wise squaring with the symmetric-product shortcut (as
    /// [`Fe::square`], ~30% fewer limb multiplications than
    /// [`Fe4::mul`]). Accepts limbs up to 2^54, outputs loose.
    #[must_use]
    #[inline(always)]
    pub fn square(&self) -> Fe4 {
        let m = |x: u64, y: u64| -> u128 { u128::from(x) * u128::from(y) };
        let mut t = [[0u128; LANES]; 5];
        let f = &self.limbs;
        for l in 0..LANES {
            let a = [f[0][l], f[1][l], f[2][l], f[3][l], f[4][l]];
            let d0 = 2 * a[0];
            let d1 = 2 * a[1];
            let d2 = 2 * a[2];
            let d3 = 2 * a[3];
            let a4_19 = 19 * a[4];
            let a3_19 = 19 * a[3];

            t[0][l] = m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19);
            t[1][l] = m(d0, a[1]) + m(d2, a4_19) + m(a[3], a3_19);
            t[2][l] = m(d0, a[2]) + m(a[1], a[1]) + m(d3, a4_19);
            t[3][l] = m(d0, a[3]) + m(d1, a[2]) + m(a[4], a4_19);
            t[4][l] = m(d0, a[4]) + m(d1, a[3]) + m(a[2], a[2]);
        }
        Fe4::reduce_wide(&mut t)
    }

    /// Lane-wise multiplication by one small constant (the ladder's
    /// a24 = 121665). Accepts limbs up to 2^54, outputs loose.
    #[must_use]
    #[inline(always)]
    pub fn mul_small(&self, n: u32) -> Fe4 {
        let n = u128::from(n);
        let mut t = [[0u128; LANES]; 5];
        for i in 0..5 {
            for l in 0..LANES {
                t[i][l] = u128::from(self.limbs[i][l]) * n;
            }
        }
        Fe4::reduce_wide(&mut t)
    }

    /// Fused `addend + self · n` (the ladder's `AA + a24·E` line),
    /// sharing one carry pass instead of `mul_small` + `add`'s two.
    /// Accepts limbs up to 2^54 in `self` and loose limbs in `addend`;
    /// outputs loose. Canonically equal to
    /// `addend.add(&self.mul_small(n))` (the representations differ,
    /// the field elements do not — pinned by the proptests).
    #[must_use]
    #[inline]
    pub fn mul_small_add(&self, n: u32, addend: &Fe4) -> Fe4 {
        let n = u128::from(n);
        let mut t = [[0u128; LANES]; 5];
        for i in 0..5 {
            for l in 0..LANES {
                t[i][l] = u128::from(self.limbs[i][l]) * n + u128::from(addend.limbs[i][l]);
            }
        }
        Fe4::reduce_wide(&mut t)
    }

    /// One explicit carry pass per lane, bringing limbs back to loose.
    /// The ladder never needs this between steps (mul/square re-carry);
    /// it exists for callers composing longer add/sub chains.
    #[must_use]
    pub fn carry(&self) -> Fe4 {
        let mut out = [[0u64; LANES]; 5];
        for lane in 0..LANES {
            let carried = self.lane(lane);
            for i in 0..5 {
                out[i][lane] = carried.0[i];
            }
        }
        Fe4 { limbs: out }
    }

    /// Branch-free per-lane conditional swap: exchanges lane `l` of `a`
    /// and `b` iff `swap[l] == 1`. The mask expansion and XOR quads are
    /// pure `u64` bit-ops, the one genuinely SIMD-shaped loop in the
    /// ladder step.
    ///
    /// # Panics
    ///
    /// Debug-asserts every `swap[l]` is 0 or 1.
    #[inline(always)]
    pub fn cswap(swap: &[u64; LANES], a: &mut Fe4, b: &mut Fe4) {
        let mut masks = [0u64; LANES];
        for lane in 0..LANES {
            debug_assert!(swap[lane] <= 1);
            masks[lane] = 0u64.wrapping_sub(swap[lane]);
        }
        for i in 0..5 {
            for lane in 0..LANES {
                let x = masks[lane] & (a.limbs[i][lane] ^ b.limbs[i][lane]);
                a.limbs[i][lane] ^= x;
                b.limbs[i][lane] ^= x;
            }
        }
    }

    /// Carries each lane's wide (`u128`-limb) accumulators back to the
    /// loose radix-2^51 representation. Identical structure to the
    /// scalar `Fe::reduce_wide`, except the final ×19 fold stays in
    /// `u128`: with 2^54-bounded multiplier inputs the top carry can
    /// reach 2^64, so `19 · carry` must not be computed in `u64`.
    #[inline(always)]
    fn reduce_wide(t: &mut [[u128; LANES]; 5]) -> Fe4 {
        let mut out = [[0u64; LANES]; 5];
        for l in 0..LANES {
            let mut c: u128;
            c = t[0][l] >> 51;
            out[0][l] = (t[0][l] as u64) & LOW_51;
            t[1][l] += c;
            c = t[1][l] >> 51;
            out[1][l] = (t[1][l] as u64) & LOW_51;
            t[2][l] += c;
            c = t[2][l] >> 51;
            out[2][l] = (t[2][l] as u64) & LOW_51;
            t[3][l] += c;
            c = t[3][l] >> 51;
            out[3][l] = (t[3][l] as u64) & LOW_51;
            t[4][l] += c;
            c = t[4][l] >> 51;
            out[4][l] = (t[4][l] as u64) & LOW_51;
            let fold = u128::from(out[0][l]) + 19 * c;
            out[0][l] = (fold as u64) & LOW_51;
            out[1][l] += (fold >> 51) as u64;
        }
        Fe4 { limbs: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe([n, 0, 0, 0, 0])
    }

    fn sample_fes() -> [Fe; LANES] {
        [
            fe(7),
            Fe::from_bytes(&[0xAB; 32]),
            Fe::from_bytes(&{
                let mut b = [0u8; 32];
                b[0] = 0xED;
                b[31] = 0x7F; // p itself: canonically zero
                b
            }),
            Fe([
                0x7_FFFF_FFFF_FFFF,
                0x7_FFFF_FFFF_FFFF,
                0x7_FFFF_FFFF_FFFF,
                0x7_FFFF_FFFF_FFFF,
                0x7_FFFF_FFFF_FFFF,
            ]),
        ]
    }

    #[test]
    fn roundtrip_lanes() {
        let fes = sample_fes();
        let v = Fe4::from_fes(fes);
        for (i, f) in fes.iter().enumerate() {
            assert_eq!(v.lane(i), *f, "lane {i}");
        }
    }

    #[test]
    fn lanewise_ops_match_scalar() {
        let a = sample_fes();
        let b = [fe(3), fe(1 << 40), Fe::from_bytes(&[0x5C; 32]), Fe::ONE];
        let va = Fe4::from_fes(a);
        let vb = Fe4::from_fes(b);
        for i in 0..LANES {
            assert_eq!(va.add(&vb).lane(i), a[i].add(&b[i]), "add lane {i}");
            assert_eq!(va.sub(&vb).lane(i), a[i].sub(&b[i]), "sub lane {i}");
            assert_eq!(va.mul(&vb).lane(i), a[i].mul(&b[i]), "mul lane {i}");
            assert_eq!(va.square().lane(i), a[i].square(), "square lane {i}");
            assert_eq!(
                va.mul_small(121_665).lane(i),
                a[i].mul_small(121_665),
                "mul_small lane {i}"
            );
            assert_eq!(va.carry().lane(i), a[i], "carry lane {i}");
        }
    }

    #[test]
    fn lazy_add_then_mul_is_exact() {
        // The ladder's characteristic shape: uncarried add/sub feeding a
        // multiplication. (a+b)·(a−b) must equal a²−b² lane-wise.
        let a = sample_fes();
        let b = [Fe::from_bytes(&[0x11; 32]), fe(19), fe(0), fe(1 << 50)];
        let va = Fe4::from_fes(a);
        let vb = Fe4::from_fes(b);
        let lhs = va.add(&vb).mul(&va.sub(&vb));
        let rhs = va.square().sub(&vb.square());
        for i in 0..LANES {
            assert_eq!(lhs.lane(i), rhs.lane(i), "lane {i}");
        }
    }

    #[test]
    fn sub_and_square_at_ladder_bounds() {
        // Worst case the ladder produces: subtraction of two
        // freshly-multiplied (loose) values, then the difference is both
        // squared and multiplied — exercising the widest accumulator
        // paths with near-maximal loose limbs.
        let near_p = Fe::ZERO.sub(&Fe::ONE); // p − 1, maximal canonical
        let a = Fe4::splat(near_p).mul(&Fe4::splat(near_p));
        let b = Fe4::splat(near_p.square());
        let diff = a.sub(&b);
        let sum = a.add(&b);
        let prod = diff.mul(&sum);
        let sq = diff.square();
        for i in 0..LANES {
            let sa = near_p.mul(&near_p);
            let sb = near_p.square();
            assert_eq!(diff.lane(i), sa.sub(&sb), "sub lane {i}");
            assert_eq!(prod.lane(i), sa.sub(&sb).mul(&sa.add(&sb)), "mul lane {i}");
            assert_eq!(sq.lane(i), sa.sub(&sb).square(), "square lane {i}");
        }
    }

    #[test]
    fn cswap_per_lane_masks() {
        let a = sample_fes();
        let b = [fe(100), fe(200), fe(300), fe(400)];
        let mut va = Fe4::from_fes(a);
        let mut vb = Fe4::from_fes(b);
        Fe4::cswap(&[1, 0, 1, 0], &mut va, &mut vb);
        assert_eq!(va.lane(0), b[0]);
        assert_eq!(vb.lane(0), a[0]);
        assert_eq!(va.lane(1), a[1]);
        assert_eq!(vb.lane(1), b[1]);
        assert_eq!(va.lane(2), b[2]);
        assert_eq!(vb.lane(2), a[2]);
        assert_eq!(va.lane(3), a[3]);
        assert_eq!(vb.lane(3), b[3]);
    }

    #[test]
    fn splat_broadcasts() {
        let v = Fe4::splat(fe(42));
        for i in 0..LANES {
            assert_eq!(v.lane(i), fe(42));
        }
    }
}
