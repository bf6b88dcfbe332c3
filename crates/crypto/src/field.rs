//! Arithmetic in the field GF(2^255 − 19).
//!
//! Elements are held as five 51-bit limbs in radix 2^51, the standard
//! representation for 64-bit targets (as in curve25519-donna / ref10).
//! All arithmetic is branch-free; conditional swaps are mask-based so the
//! Montgomery ladder in [`crate::x25519`] does not branch on secret bits.
//!
//! Every operation here is eagerly carried: limbs re-enter the loose
//! (< 2^52) range after each add/sub/mul. See `fe8.rs` for the
//! eight-wide AVX-512 IFMA kernel the batched paths prefer where the
//! CPU has it, which carries after every operation for a different
//! reason; this type is its fallback and its oracle.

/// Mask selecting the low 51 bits of a limb.
const LOW_51: u64 = (1 << 51) - 1;

/// An element of GF(2^255 − 19) in radix-2^51 representation.
///
/// Invariant: after any public constructor or arithmetic operation, each
/// limb is below 2^52 (loosely reduced); [`Fe::to_bytes`] performs the full
/// canonical reduction.
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Decodes a little-endian 32-byte string into a field element.
    ///
    /// Per RFC 7748 §5, the top bit (bit 255) is masked off rather than
    /// rejected.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |b: &[u8]| -> u64 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&b[..8]);
            u64::from_le_bytes(v)
        };
        Fe([
            load(&bytes[0..8]) & LOW_51,
            (load(&bytes[6..14]) >> 3) & LOW_51,
            (load(&bytes[12..20]) >> 6) & LOW_51,
            (load(&bytes[19..27]) >> 1) & LOW_51,
            (load(&bytes[24..32]) >> 12) & LOW_51,
        ])
    }

    /// Encodes the element canonically (fully reduced mod 2^255 − 19) as 32
    /// little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        // First bring every limb below 2^51.
        let mut h = self.carry().0;

        // Compute q = floor((h + 19) / 2^255): 1 iff h >= p.
        let mut q = (h[0].wrapping_add(19)) >> 51;
        q = (h[1].wrapping_add(q)) >> 51;
        q = (h[2].wrapping_add(q)) >> 51;
        q = (h[3].wrapping_add(q)) >> 51;
        q = (h[4].wrapping_add(q)) >> 51;

        // h += 19 q, then reduce mod 2^255 by masking the final carry.
        h[0] = h[0].wrapping_add(19 * q);
        let mut c = h[0] >> 51;
        h[0] &= LOW_51;
        for limb in h.iter_mut().skip(1) {
            *limb = limb.wrapping_add(c);
            c = *limb >> 51;
            *limb &= LOW_51;
        }
        // The carry out of the top limb is exactly the subtracted 2^255.

        let mut out = [0u8; 32];
        let packed = [
            h[0] | (h[1] << 51),
            (h[1] >> 13) | (h[2] << 38),
            (h[2] >> 26) | (h[3] << 25),
            (h[3] >> 39) | (h[4] << 12),
        ];
        for (i, word) in packed.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// One pass of carry propagation, bringing limbs below 2^51 (the top
    /// carry folds back into limb 0 as ×19).
    #[must_use]
    fn carry(self) -> Fe {
        let mut l = self.0;
        let mut c: u64;
        c = l[0] >> 51;
        l[0] &= LOW_51;
        l[1] += c;
        c = l[1] >> 51;
        l[1] &= LOW_51;
        l[2] += c;
        c = l[2] >> 51;
        l[2] &= LOW_51;
        l[3] += c;
        c = l[3] >> 51;
        l[3] &= LOW_51;
        l[4] += c;
        c = l[4] >> 51;
        l[4] &= LOW_51;
        l[0] += 19 * c;
        // l[0] may now be marginally above 2^51; one more ripple keeps the
        // loose invariant (< 2^52) comfortably.
        c = l[0] >> 51;
        l[0] &= LOW_51;
        l[1] += c;
        Fe(l)
    }

    /// Field addition.
    #[must_use]
    pub fn add(&self, rhs: &Fe) -> Fe {
        let a = &self.0;
        let b = &rhs.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
        .carry()
    }

    /// Field subtraction. Adds 2p before subtracting so limbs never
    /// underflow (inputs are loosely reduced, so limbs are < 2^52 < 2p's
    /// per-limb values plus slack).
    #[must_use]
    pub fn sub(&self, rhs: &Fe) -> Fe {
        // Limbs of 4p = 4 * (2^255 - 19); using 4p instead of 2p tolerates
        // inputs up to 2^53 per limb.
        const FOUR_P0: u64 = 0x1F_FFFF_FFFF_FFB4; // 4 * (2^51 - 19) = 2^53 - 76
        const FOUR_P1234: u64 = 0x1F_FFFF_FFFF_FFFC; // 4 * (2^51 - 1) = 2^53 - 4
        let a = &self.0;
        let b = &rhs.0;
        Fe([
            a[0] + FOUR_P0 - b[0],
            a[1] + FOUR_P1234 - b[1],
            a[2] + FOUR_P1234 - b[2],
            a[3] + FOUR_P1234 - b[3],
            a[4] + FOUR_P1234 - b[4],
        ])
        .carry()
    }

    /// Field multiplication (schoolbook over u128 with the ×19 wraparound).
    #[must_use]
    pub fn mul(&self, rhs: &Fe) -> Fe {
        let a = &self.0;
        let b = &rhs.0;
        let m = |x: u64, y: u64| -> u128 { u128::from(x) * u128::from(y) };

        // 19-fold wraparound terms: limb i of a times limb j of b lands at
        // position i+j; positions >= 5 wrap to i+j-5 scaled by 19.
        let b1_19 = 19 * b[1];
        let b2_19 = 19 * b[2];
        let b3_19 = 19 * b[3];
        let b4_19 = 19 * b[4];

        let mut t = [0u128; 5];
        t[0] = m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
        t[1] = m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
        t[2] = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
        t[3] = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
        t[4] = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        Fe::reduce_wide(t)
    }

    /// Field squaring. Uses the symmetric-product shortcut (~30% fewer
    /// limb multiplications than [`Fe::mul`]); the Montgomery ladder is
    /// squaring-heavy so this matters for end-to-end round latency.
    #[must_use]
    pub fn square(&self) -> Fe {
        let a = &self.0;
        let m = |x: u64, y: u64| -> u128 { u128::from(x) * u128::from(y) };
        let d0 = 2 * a[0];
        let d1 = 2 * a[1];
        let d2 = 2 * a[2];
        let d3 = 2 * a[3];
        let a4_19 = 19 * a[4];
        let a3_19 = 19 * a[3];

        let mut t = [0u128; 5];
        t[0] = m(a[0], a[0]) + m(d1, a4_19) + m(d2, a3_19);
        t[1] = m(d0, a[1]) + m(d2, a4_19) + m(a[3], a3_19);
        t[2] = m(d0, a[2]) + m(a[1], a[1]) + m(d3, a4_19);
        t[3] = m(d0, a[3]) + m(d1, a[2]) + m(a[4], a4_19);
        t[4] = m(d0, a[4]) + m(d1, a[3]) + m(a[2], a[2]);

        Fe::reduce_wide(t)
    }

    /// Squares the element `k` times in place-returning style.
    ///
    /// Total over all `k`: `pow2k(0)` is the identity (`x^(2^0) = x`).
    /// Earlier versions only `debug_assert!`ed `k > 0` and silently
    /// returned `x²` for `k = 0` in release builds.
    #[must_use]
    pub fn pow2k(&self, k: u32) -> Fe {
        let mut out = *self;
        for _ in 0..k {
            out = out.square();
        }
        out
    }

    /// Multiplication by a small constant (fits in 32 bits), used for the
    /// curve constant a24 = 121665 in the ladder.
    #[must_use]
    pub fn mul_small(&self, n: u32) -> Fe {
        let n = u128::from(n);
        let mut t = [0u128; 5];
        for (wide, limb) in t.iter_mut().zip(self.0.iter()) {
            *wide = u128::from(*limb) * n;
        }
        Fe::reduce_wide(t)
    }

    /// Carries a wide (u128-limb) intermediate back to the loose
    /// radix-2^51 representation.
    fn reduce_wide(mut t: [u128; 5]) -> Fe {
        let mut l = [0u64; 5];
        let mut c: u128;
        c = t[0] >> 51;
        l[0] = (t[0] as u64) & LOW_51;
        t[1] += c;
        c = t[1] >> 51;
        l[1] = (t[1] as u64) & LOW_51;
        t[2] += c;
        c = t[2] >> 51;
        l[2] = (t[2] as u64) & LOW_51;
        t[3] += c;
        c = t[3] >> 51;
        l[3] = (t[3] as u64) & LOW_51;
        t[4] += c;
        c = t[4] >> 51;
        l[4] = (t[4] as u64) & LOW_51;
        l[0] += 19 * (c as u64);
        let c64 = l[0] >> 51;
        l[0] &= LOW_51;
        l[1] += c64;
        Fe(l)
    }

    /// Multiplicative inverse via Fermat's little theorem (z^(p−2)), using
    /// the standard ref10 addition chain (11 multiplications, 254 squarings).
    ///
    /// The inverse of zero is zero, which is exactly the behaviour the
    /// X25519 ladder relies on for low-order inputs.
    #[must_use]
    pub fn invert(&self) -> Fe {
        let z = self;
        let t0 = z.square(); // 2
        let mut t1 = t0.pow2k(2); // 8
        t1 = z.mul(&t1); // 9
        let t0 = t0.mul(&t1); // 11
        let t2 = t0.square(); // 22
        let t1 = t1.mul(&t2); // 31 = 2^5 - 1
        let t2 = t1.pow2k(5); // 2^10 - 2^5
        let t1 = t2.mul(&t1); // 2^10 - 1
        let t2 = t1.pow2k(10); // 2^20 - 2^10
        let t2 = t2.mul(&t1); // 2^20 - 1
        let t3 = t2.pow2k(20); // 2^40 - 2^20
        let t2 = t3.mul(&t2); // 2^40 - 1
        let t2 = t2.pow2k(10); // 2^50 - 2^10
        let t1 = t2.mul(&t1); // 2^50 - 1
        let t2 = t1.pow2k(50); // 2^100 - 2^50
        let t2 = t2.mul(&t1); // 2^100 - 1
        let t3 = t2.pow2k(100); // 2^200 - 2^100
        let t2 = t3.mul(&t2); // 2^200 - 1
        let t2 = t2.pow2k(50); // 2^250 - 2^50
        let t1 = t2.mul(&t1); // 2^250 - 1
        let t1 = t1.pow2k(5); // 2^255 - 2^5
        t1.mul(&t0) // 2^255 - 21 = p - 2
    }

    /// Branch-free conditional swap: exchanges `a` and `b` iff `swap == 1`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `swap` is 0 or 1.
    pub fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
        debug_assert!(swap <= 1);
        let mask = 0u64.wrapping_sub(swap);
        for i in 0..5 {
            let x = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= x;
            b.0[i] ^= x;
        }
    }

    /// Whether the canonical encoding of this element is all zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }
}

impl PartialEq for Fe {
    /// Equality on the canonical encodings (so loosely-reduced
    /// representations of the same element compare equal).
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for Fe {}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe([n, 0, 0, 0, 0])
    }

    /// p as bytes: 2^255 - 19 little-endian.
    fn p_bytes() -> [u8; 32] {
        let mut b = [0xffu8; 32];
        b[0] = 0xed;
        b[31] = 0x7f;
        b
    }

    #[test]
    fn encode_decode_roundtrip_small() {
        for n in [0u64, 1, 2, 19, 255, 1 << 40] {
            let e = fe(n);
            let b = e.to_bytes();
            assert_eq!(Fe::from_bytes(&b), e);
        }
    }

    #[test]
    fn p_is_canonically_zero() {
        let e = Fe::from_bytes(&p_bytes());
        assert!(e.is_zero(), "p must reduce to 0");
    }

    #[test]
    fn p_plus_one_is_one() {
        let mut b = p_bytes();
        b[0] = 0xee; // p + 1
        assert_eq!(Fe::from_bytes(&b), Fe::ONE);
    }

    #[test]
    fn top_bit_is_masked() {
        // 2^255 ≡ 19 (mod p)
        let mut b = [0u8; 32];
        b[31] = 0x80;
        assert_eq!(Fe::from_bytes(&b), fe(19).sub(&fe(19)), "bit 255 ignored");
        assert_eq!(Fe::from_bytes(&b), Fe::ZERO);
    }

    #[test]
    fn add_sub_inverse() {
        let a = fe(123_456_789);
        let b = fe(987_654_321);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn sub_wraps_mod_p() {
        // 0 - 1 = p - 1
        let got = Fe::ZERO.sub(&Fe::ONE).to_bytes();
        let mut want = p_bytes();
        want[0] = 0xec; // p - 1
        assert_eq!(got, want);
    }

    #[test]
    fn mul_matches_known_small_products() {
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
        assert_eq!(fe(0).mul(&fe(7)), Fe::ZERO);
        assert_eq!(fe(1).mul(&fe(7)), fe(7));
    }

    #[test]
    fn mul_by_19_wraps() {
        // (2^255 - 19 + 19) * x == 19 x  i.e. 2^255 * x ≡ 19 x.
        // Construct 2^254 as a limb pattern and double it.
        let two_254 = Fe([0, 0, 0, 0, 1 << 50]);
        let two_255 = two_254.add(&two_254);
        assert_eq!(two_255, fe(19));
    }

    #[test]
    fn square_matches_mul() {
        let a = Fe([
            0x1234_5678_9abc,
            0x7_ffff_ffff_ffff,
            0x42,
            0x3_1415_9265_3589,
            0x2_7182_8182_8459,
        ]);
        assert_eq!(a.square(), a.mul(&a));
        assert_eq!(a.pow2k(3), a.mul(&a).mul(&a.mul(&a)).square());
    }

    #[test]
    fn pow2k_zero_is_identity() {
        // Regression: pow2k(0) used to return x² in release builds (the
        // k > 0 contract was only a debug_assert). It must be x.
        let a = Fe([
            0x1234_5678_9abc,
            0x7_ffff_ffff_ffff,
            0x42,
            0x3_1415_9265_3589,
            0x2_7182_8182_8459,
        ]);
        assert_eq!(a.pow2k(0), a);
        assert_eq!(a.pow2k(1), a.square());
        assert_eq!(Fe::ZERO.pow2k(0), Fe::ZERO);
    }

    #[test]
    fn mul_small_matches_mul() {
        let a = Fe([99, 1 << 50, 7, 0, 1 << 44]);
        assert_eq!(a.mul_small(121_665), a.mul(&fe(121_665)));
    }

    #[test]
    fn invert_small() {
        let a = fe(2);
        let inv = a.invert();
        assert_eq!(a.mul(&inv), Fe::ONE);
    }

    #[test]
    fn invert_of_zero_is_zero() {
        assert!(Fe::ZERO.invert().is_zero());
    }

    #[test]
    fn cswap_behaviour() {
        let mut a = fe(1);
        let mut b = fe(2);
        Fe::cswap(0, &mut a, &mut b);
        assert_eq!((a, b), (fe(1), fe(2)));
        Fe::cswap(1, &mut a, &mut b);
        assert_eq!((a, b), (fe(2), fe(1)));
    }
}
