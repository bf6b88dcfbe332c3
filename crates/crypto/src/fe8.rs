//! Eight-wide arithmetic in GF(2^255 − 19) on AVX-512 IFMA.
//!
//! [`Fe8`] holds **eight independent field elements** limb-sliced as
//! `[__m512i; 5]`: 64-bit lane `l` of vector `i` is limb `i` (radix
//! 2^51) of element `l`. Products come from `vpmadd52luq` /
//! `vpmadd52huq`, which multiply the **low 52 bits** of each lane and
//! add the low or the high 52 bits of the 104-bit product into a 64-bit
//! accumulator — 8 limb products per instruction where the scalar
//! [`Fe`] kernel issues one `mulx`. When the CPU has it,
//! [`crate::x25519`] steps eight onions' Montgomery ladders in
//! lockstep on this type and [`crate::edwards`] walks eight fixed-base
//! comb tables in lockstep; the scalar ladder and the scalar walk over
//! [`Fe`] are the fallback everywhere else, and the oracle here.
//!
//! # The carried invariant
//!
//! A `u128` schoolbook product has headroom to spare for lazily
//! carried operands. The IFMA multiplier has none — bits 52..63 of an
//! operand are silently ignored — so the contract here is a single
//! bound that every operation both requires and restores:
//!
//! > every limb of every `Fe8` is below **B = 2^51 + 2^17**.
//!
//! B < 2^52, so the multiplier always sees whole limbs. Each operation
//! ends in [`carry`], one *parallel* pass: all five carries
//! `c_i = t_i >> 51` are taken at once, `t_i & (2^51 − 1)` receives
//! `c_{i−1}`, and the top carry folds into limb 0 as `19 · c_4`. No
//! carry ripples, so limbs end below `2^51 + max c` (limb 0: below
//! `2^51 + 19 · max c`); the value mod p is unchanged because
//! `2^255 ≡ 19`. The pass restores B whenever every `t_i < 2^63`
//! (`19 · 2^12 < 2^17`). Per operation, with inputs below B:
//!
//! * [`Fe8::add`]: `t_i < 2B < 2^53`, carries ≤ 3, output below
//!   `2^51 + 57`.
//! * [`Fe8::sub`]: adds 2p limb-wise first (`2^52 − 38`, `2^52 − 2`;
//!   both exceed B, so no lane underflows): `t_i < B + 2^52 < 2^53`,
//!   carries ≤ 3, output below `2^51 + 57`.
//! * [`Fe8::mul`] / [`Fe8::square`]: a limb product is below
//!   `B^2 < 2^102 + 2^70`, so its low half `lo` is below 2^52 and its
//!   high half `hi` below `2^50 + 2^18`. In radix 2^51 the product
//!   `a_i · b_j = lo + 2^52 · hi` puts `lo` in column `i + j` and `hi`
//!   in column `i + j + 1` with weight **2** (2^52 = 2 · 2^51). The
//!   `lo`s and `hi`s of a column are accumulated separately (at most
//!   five terms: below `5 · 2^52` and `5 · (2^50 + 2^18)`), the `hi`
//!   sums are doubled once, and column `c` becomes
//!   `T_c = lo_c + 2 · hi_{c−1} < 5 · 2^52 + 10 · (2^50 + 2^18) < 2^55`.
//!   Columns 5..=9 wrap onto 0..=4 with a factor 19 (2^255 ≡ 19). The
//!   multiplier cannot do that: `T_c` has up to 55 bits, and 19 times a
//!   *limb* (the scalar kernels' pre-scaled `19 · b_j`) has 56. So the
//!   fold is rotate-and-add, `19 t = rol(t, 4) + (t + t) + t` (no bit
//!   of `t < 2^55` wraps in a rotate by 4; [`reduce`] says why it is
//!   not written as a shift), giving
//!   `R_c = T_c + 19 · T_{c+5} < 20 · 2^55 < 2^60`. Then the carry
//!   pass: carries below 2^9, output below `2^51 + 19 · 2^9`.
//! * [`Fe8::mul_small_add`] (`addend + self · n`, `n < 2^17`):
//!   `lo < 2^52` is accumulated on top of the addend, `hi < 2^17` moves
//!   one limb up doubled, and the top `hi` wraps to limb 0 as
//!   `38 · hi < 2^23` (that product does fit the multiplier):
//!   `t_i < B + 2^52 + 2^23 < 2^53`, output below `2^51 + 57`.
//! * [`Fe8::from_fes`] carries once after packing, so it accepts any
//!   [`Fe`] with limbs below 2^63 (every `Fe` is below 2^52);
//!   [`Fe8::to_fes`] hands limbs below B < 2^52 straight back, which is
//!   `Fe`'s own loose bound.
//!
//! The property tests at the bottom of this file pin every operation
//! against eight scalar [`Fe`] operations with limbs *at* B − 1, at
//! p − 1, p, and the non-canonical encodings 2^255 − 1 … 2^256 − 1.
//!
//! # `unsafe` in this module
//!
//! This is the one module of the crate allowed `unsafe` (the crate is
//! `deny(unsafe_code)`). Two things need it: storing a vector's lanes
//! to memory (a raw-pointer intrinsic), and *calling* a
//! `#[target_feature]` function from code compiled without the feature.
//! The second is made checkable by [`Ifma`]: a zero-sized token whose
//! only constructor is the CPUID check, so any code holding one may
//! enter the kernel. The arithmetic itself is safe Rust — value
//! intrinsics inside `#[target_feature]` functions.

#![allow(unsafe_code)]
// The limb loops are explicit counted loops: they mirror the column
// structure of the schoolbook product.
#![allow(clippy::needless_range_loop)]

use crate::field::Fe;
use core::arch::x86_64::{
    __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_madd52hi_epu64,
    _mm512_madd52lo_epu64, _mm512_mask_blend_epi64, _mm512_rol_epi64, _mm512_set1_epi64,
    _mm512_setr_epi64, _mm512_setzero_si512, _mm512_srli_epi64, _mm512_storeu_si512,
    _mm512_sub_epi64,
};

/// Number of field elements processed in lockstep.
pub(crate) const LANES: usize = 8;

/// Mask selecting the low 51 bits of a limb.
const LOW_51: i64 = (1 << 51) - 1;

/// Proof that the running CPU has AVX-512F and AVX-512 IFMA. The only
/// way to obtain one is [`Ifma::detect`], so a function that takes an
/// `Ifma` may call into `#[target_feature(enable = "avx512f,avx512ifma")]`
/// code.
#[derive(Clone, Copy)]
pub(crate) struct Ifma(());

impl Ifma {
    /// Checks the CPU (std caches the CPUID result; this is one atomic
    /// load). Under `cfg(test)` a thread inside
    /// `x25519::tests::on_each_arm`'s scalar pass is told there is no
    /// IFMA.
    pub(crate) fn detect() -> Option<Ifma> {
        #[cfg(test)]
        if PORTABLE_ONLY.get() {
            return None;
        }
        (is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma"))
            .then_some(Ifma(()))
    }
}

/// Eight independent elements of GF(2^255 − 19), limb-sliced across
/// 512-bit vectors. Every limb is below 2^51 + 2^17; see the module
/// docs.
#[derive(Clone, Copy)]
pub(crate) struct Fe8([__m512i; 5]);

/// The parallel carry pass: restores the module invariant from limbs
/// below 2^63 without changing any lane's value mod p.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn carry(t: [__m512i; 5]) -> Fe8 {
    let mask = _mm512_set1_epi64(LOW_51);
    let c: [__m512i; 5] = core::array::from_fn(|i| _mm512_srli_epi64::<51>(t[i]));
    let m: [__m512i; 5] = core::array::from_fn(|i| _mm512_and_si512(t[i], mask));
    Fe8([
        // 19 · c_4 < 2^18 fits the 52-bit multiplier, unlike the
        // column fold in `reduce`.
        _mm512_madd52lo_epu64(m[0], c[4], _mm512_set1_epi64(19)),
        _mm512_add_epi64(m[1], c[0]),
        _mm512_add_epi64(m[2], c[1]),
        _mm512_add_epi64(m[3], c[2]),
        _mm512_add_epi64(m[4], c[3]),
    ])
}

/// Turns the nine `lo` and nine `hi` column sums of a schoolbook
/// product into a carried element: double the `hi`s into the next
/// column, fold columns 5..=9 back with ×19 by shift-and-add, carry.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn reduce(lo: [__m512i; 9], hi: [__m512i; 9]) -> Fe8 {
    let hi2: [__m512i; 9] = core::array::from_fn(|k| twice(hi[k]));
    // Column c of the ten: lo_c (c ≤ 8) plus twice hi_{c−1} (c ≥ 1).
    let column = |c: usize| match c {
        0 => lo[0],
        9 => hi2[8],
        _ => _mm512_add_epi64(lo[c], hi2[c - 1]),
    };
    carry(core::array::from_fn(|c| {
        let t = column(c + 5);
        // 16t as a rotate: t < 2^55 so no bit wraps, and unlike a plain
        // shift the optimiser cannot fuse it with the adds into a
        // 64-bit vector multiply by 19, which AVX-512F lacks and
        // emulates with two `vpmuludq`.
        let t16 = _mm512_rol_epi64::<4>(t);
        let t3 = _mm512_add_epi64(twice(t), t);
        _mm512_add_epi64(_mm512_add_epi64(column(c), t16), t3)
    }))
}

/// Limb `i` of all eight elements as one vector, uncarried.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn transpose(e: &[Fe; LANES]) -> [__m512i; 5] {
    core::array::from_fn(|i| {
        let l = |lane: usize| e[lane].0[i] as i64;
        _mm512_setr_epi64(l(0), l(1), l(2), l(3), l(4), l(5), l(6), l(7))
    })
}

/// `x + x`: the doubling that moves a `hi` sum one column up.
#[inline]
#[target_feature(enable = "avx512f,avx512ifma")]
fn twice(x: __m512i) -> __m512i {
    _mm512_add_epi64(x, x)
}

impl Fe8 {
    /// Packs eight independent field elements into lanes `0..8`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn from_fes(e: &[Fe; LANES]) -> Fe8 {
        carry(transpose(e))
    }

    /// Broadcasts one element into all eight lanes.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn splat(e: Fe) -> Fe8 {
        carry(core::array::from_fn(|i| _mm512_set1_epi64(e.0[i] as i64)))
    }

    /// Unpacks the eight lanes as loosely-reduced scalar [`Fe`]s.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn to_fes(self) -> [Fe; LANES] {
        let mut limbs = [[0u64; LANES]; 5];
        for i in 0..5 {
            // SAFETY: `limbs[i]` is 64 writable bytes, exactly one
            // 512-bit store; `storeu` has no alignment requirement.
            unsafe { _mm512_storeu_si512(limbs[i].as_mut_ptr().cast(), self.0[i]) };
        }
        core::array::from_fn(|lane| Fe(core::array::from_fn(|i| limbs[i][lane])))
    }

    /// Lane-wise field addition.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn add(&self, rhs: &Fe8) -> Fe8 {
        carry(core::array::from_fn(|i| {
            _mm512_add_epi64(self.0[i], rhs.0[i])
        }))
    }

    /// Lane-wise field subtraction (adds 2p first, so no limb
    /// underflows).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn sub(&self, rhs: &Fe8) -> Fe8 {
        let two_p0 = _mm512_set1_epi64((1 << 52) - 38);
        let two_p1234 = _mm512_set1_epi64((1 << 52) - 2);
        carry(core::array::from_fn(|i| {
            let two_p = if i == 0 { two_p0 } else { two_p1234 };
            _mm512_sub_epi64(_mm512_add_epi64(self.0[i], two_p), rhs.0[i])
        }))
    }

    /// Lane-wise field multiplication: 25 low and 25 high IFMA
    /// products into nine columns each, then [`reduce`].
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn mul(&self, rhs: &Fe8) -> Fe8 {
        let (a, b) = (&self.0, &rhs.0);
        let mut lo = [_mm512_setzero_si512(); 9];
        let mut hi = [_mm512_setzero_si512(); 9];
        for i in 0..5 {
            for j in 0..5 {
                lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a[i], b[j]);
                hi[i + j] = _mm512_madd52hi_epu64(hi[i + j], a[i], b[j]);
            }
        }
        reduce(lo, hi)
    }

    /// Lane-wise squaring. Plain `self · self`: forming the ten
    /// off-diagonal products once and doubling them trades 20 IFMA
    /// instructions for 14 additions on the same two ports, which
    /// measured no faster.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn square(&self) -> Fe8 {
        self.mul(self)
    }

    /// Fused `addend + self · n` for a constant `n < 2^17` (the
    /// ladder's `AA + a24 · E` line with a24 = 121665).
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn mul_small_add(&self, n: u32, addend: &Fe8) -> Fe8 {
        debug_assert!(n < 1 << 17);
        let n = _mm512_set1_epi64(i64::from(n));
        let zero = _mm512_setzero_si512();
        let hi: [__m512i; 5] = core::array::from_fn(|i| _mm512_madd52hi_epu64(zero, self.0[i], n));
        carry(core::array::from_fn(|i| {
            let lo = _mm512_madd52lo_epu64(addend.0[i], self.0[i], n);
            if i == 0 {
                // 2 · 19 · hi_4 < 2^23: small enough for the multiplier.
                _mm512_madd52lo_epu64(lo, hi[4], _mm512_set1_epi64(38))
            } else {
                _mm512_add_epi64(lo, twice(hi[i - 1]))
            }
        }))
    }

    /// Branch-free per-lane conditional swap: exchanges lane `l` of `a`
    /// and `b` iff bit `l` of `swap` is set.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(crate) fn cswap(swap: __mmask8, a: &mut Fe8, b: &mut Fe8) {
        for i in 0..5 {
            let (x, y) = (a.0[i], b.0[i]);
            a.0[i] = _mm512_mask_blend_epi64(swap, x, y);
            b.0[i] = _mm512_mask_blend_epi64(swap, y, x);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Set while `x25519::tests::on_each_arm` runs its scalar pass on
    /// this thread; [`Ifma::detect`] then reports no IFMA.
    pub(crate) static PORTABLE_ONLY: core::cell::Cell<bool> =
        const { core::cell::Cell::new(false) };
}

/// `Ifma::detect` for tests of the eight-wide path, which must not pass
/// silently where they ran nothing: on a CPU without IFMA this returns
/// `None` and, the first time each test asks, writes a SKIPPED line
/// ([`crate::skipped_once`]).
#[cfg(test)]
pub(crate) fn ifma_or_skip(test: &'static str) -> Option<Ifma> {
    let ifma = Ifma::detect();
    if ifma.is_none() {
        crate::skipped_once(
            test,
            "avx512f+avx512ifma",
            "the eight-wide kernels were not exercised",
        );
    }
    ifma
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The module invariant's bound B.
    const BOUND: u64 = (1 << 51) + (1 << 17);
    const LOW: u64 = (1 << 51) - 1;

    /// Packs without the carry pass `from_fes` applies, so an operation
    /// can be handed limbs anywhere below B.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn from_raw(e: &[Fe; LANES]) -> Fe8 {
        Fe8(transpose(e))
    }

    /// Every operation's result on one pair of eight-lane inputs.
    struct Outputs {
        packed: [Fe; LANES],
        raw: [Fe; LANES],
        add: [Fe; LANES],
        sub: [Fe; LANES],
        mul: [Fe; LANES],
        square: [Fe; LANES],
        mul_small_add: [Fe; LANES],
        sum_times_difference: [Fe; LANES],
        swapped: ([Fe; LANES], [Fe; LANES]),
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn run_ops_ifma(a: &[Fe; LANES], b: &[Fe; LANES], n: u32, swap: u8) -> Outputs {
        let (va, vb) = (from_raw(a), from_raw(b));
        let (mut x, mut y) = (va, vb);
        Fe8::cswap(swap, &mut x, &mut y);
        Outputs {
            packed: Fe8::from_fes(a).to_fes(),
            raw: va.to_fes(),
            add: va.add(&vb).to_fes(),
            sub: va.sub(&vb).to_fes(),
            mul: va.mul(&vb).to_fes(),
            square: va.square().to_fes(),
            mul_small_add: va.mul_small_add(n, &vb).to_fes(),
            sum_times_difference: va.add(&vb).mul(&va.sub(&vb)).to_fes(),
            swapped: (x.to_fes(), y.to_fes()),
        }
    }

    fn run_ops(_ifma: Ifma, a: &[Fe; LANES], b: &[Fe; LANES], n: u32, swap: u8) -> Outputs {
        // SAFETY: the `Ifma` token proves avx512f and avx512ifma.
        unsafe { run_ops_ifma(a, b, n, swap) }
    }

    /// Holds every `Fe8` operation on `(a, b)` to eight scalar `Fe`
    /// operations, and every output limb to the module invariant.
    /// `a` and `b` may have limbs anywhere below B.
    fn check_against_scalar(ifma: Ifma, a: &[Fe; LANES], b: &[Fe; LANES], n: u32, swap: u8) {
        let out = run_ops(ifma, a, b, n, swap);
        for l in 0..LANES {
            assert_eq!(out.raw[l].0, a[l].0, "lane {l}: transposition is exact");
            assert_eq!(out.packed[l], a[l], "lane {l}: from_fes/to_fes");
            assert_eq!(out.add[l], a[l].add(&b[l]), "lane {l}: add");
            assert_eq!(out.sub[l], a[l].sub(&b[l]), "lane {l}: sub");
            assert_eq!(out.mul[l], a[l].mul(&b[l]), "lane {l}: mul");
            assert_eq!(out.square[l], a[l].square(), "lane {l}: square");
            assert_eq!(
                out.mul_small_add[l],
                b[l].add(&a[l].mul_small(n)),
                "lane {l}: mul_small_add"
            );
            assert_eq!(
                out.sum_times_difference[l],
                a[l].add(&b[l]).mul(&a[l].sub(&b[l])),
                "lane {l}: add and sub feeding mul"
            );
            let (want_x, want_y) = if swap >> l & 1 == 1 {
                (b[l], a[l])
            } else {
                (a[l], b[l])
            };
            assert_eq!(out.swapped.0[l].0, want_x.0, "lane {l}: cswap a");
            assert_eq!(out.swapped.1[l].0, want_y.0, "lane {l}: cswap b");
            for result in [
                &out.packed,
                &out.add,
                &out.sub,
                &out.mul,
                &out.square,
                &out.mul_small_add,
                &out.sum_times_difference,
            ] {
                assert!(
                    result[l].0.iter().all(|&limb| limb < BOUND),
                    "lane {l}: a limb left the invariant: {:x?}",
                    result[l].0
                );
            }
        }
    }

    /// One lane's input from a selector and five random words: random
    /// limbs below B, every limb at B − 1, p − 1, p, p + 1, zero and
    /// one, and the non-canonical encodings 2^255 − 1 ..= 2^256 − 1 as
    /// `Fe::from_bytes` decodes them.
    fn lane_input(kind: u8, w: &[u64]) -> Fe {
        match kind % 10 {
            0 => Fe([BOUND - 1; 5]),
            1 => Fe([LOW - 19, LOW, LOW, LOW, LOW]), // p − 1
            2 => Fe([LOW - 18, LOW, LOW, LOW, LOW]), // p
            3 => Fe([LOW - 17, LOW, LOW, LOW, LOW]), // p + 1
            4 => Fe([w[0] & 1, 0, 0, 0, 0]),
            5 => {
                // 2^256 − 2^64 + w ≥ 2^255 − 1: the top bit is masked.
                let mut bytes = [0xFF; 32];
                bytes[..8].copy_from_slice(&w[0].to_le_bytes());
                Fe::from_bytes(&bytes)
            }
            6 => {
                // Exactly 2^255 − 1 (p + 18) and 2^256 − 1.
                let mut bytes = [0xFF; 32];
                bytes[31] = if w[0] & 1 == 0 { 0x7F } else { 0xFF };
                Fe::from_bytes(&bytes)
            }
            _ => Fe(core::array::from_fn(|i| w[i] % BOUND)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fe8_ops_match_eight_scalar_ops(
            kinds in collection::vec(any::<u8>(), 2 * LANES),
            words in collection::vec(any::<u64>(), 2 * LANES * 5),
            n in 0u32..(1 << 17),
            swap in any::<u8>(),
        ) {
            let Some(ifma) = ifma_or_skip("fe8_ops_match_eight_scalar_ops") else {
                return Ok(());
            };
            let input = |k: usize| lane_input(kinds[k], &words[5 * k..5 * k + 5]);
            let a: [Fe; LANES] = core::array::from_fn(input);
            let b: [Fe; LANES] = core::array::from_fn(|l| input(LANES + l));
            check_against_scalar(ifma, &a, &b, n, swap);
            check_against_scalar(ifma, &a, &b, 121_665, swap);
        }
    }

    #[test]
    fn every_edge_against_every_edge() {
        // The eight deterministic edge values in the lanes of `a`,
        // against each of them in turn across all lanes of `b` — which
        // includes B − 1 times B − 1, the widest accumulators the
        // bounds in the module docs allow.
        let Some(ifma) = ifma_or_skip("every_edge_against_every_edge") else {
            return;
        };
        let edges: [Fe; LANES] = [
            lane_input(0, &[0]),
            lane_input(1, &[0]),
            lane_input(2, &[0]),
            lane_input(3, &[0]),
            lane_input(4, &[0]),
            lane_input(4, &[1]),
            lane_input(6, &[0]),
            lane_input(6, &[1]),
        ];
        for (i, edge) in edges.iter().enumerate() {
            let swap = 0b1010_0101u8.rotate_left(i as u32);
            check_against_scalar(ifma, &edges, &[*edge; LANES], (1 << 17) - 1, swap);
            check_against_scalar(ifma, &[*edge; LANES], &edges, 121_665, !swap);
        }
    }

    #[test]
    fn from_fes_accepts_any_loose_fe() {
        // `Fe`'s own invariant is limbs below 2^52, wider than B:
        // `from_fes` must bring such limbs inside B without changing
        // the element; `splat` likewise.
        let Some(ifma) = ifma_or_skip("from_fes_accepts_any_loose_fe") else {
            return;
        };
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn pack_ifma(e: &[Fe; LANES]) -> ([Fe; LANES], [Fe; LANES]) {
            (Fe8::from_fes(e).to_fes(), Fe8::splat(e[3]).to_fes())
        }
        fn pack(_ifma: Ifma, e: &[Fe; LANES]) -> ([Fe; LANES], [Fe; LANES]) {
            // SAFETY: the `Ifma` token proves avx512f and avx512ifma.
            unsafe { pack_ifma(e) }
        }
        let loose: [Fe; LANES] = core::array::from_fn(|l| Fe([(1 << 52) - 1 - l as u64; 5]));
        let (packed, splat) = pack(ifma, &loose);
        for l in 0..LANES {
            assert_eq!(packed[l], loose[l], "lane {l}");
            assert_eq!(splat[l], loose[3], "splat lane {l}");
            assert!(packed[l].0.iter().all(|&limb| limb < BOUND));
            assert!(splat[l].0.iter().all(|&limb| limb < BOUND));
        }
    }
}
