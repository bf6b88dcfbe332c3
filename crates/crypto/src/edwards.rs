//! Fixed-base scalar multiplication via a precomputed Edwards table.
//!
//! Every onion layer requires a fresh ephemeral keypair, so the system
//! performs one *fixed-base* scalar multiplication `k·B` per layer per
//! onion on top of the variable-base DH — on clients for wrapping and on
//! every mixing server for cover-traffic generation (paper §8.2 counts
//! this in its "340,000 Curve25519 ops/sec per machine" budget). The
//! Montgomery ladder in [`crate::x25519`] cannot exploit a fixed base, so
//! this module computes `k·B` on the birationally-equivalent twisted
//! Edwards curve (`−x² + y² = 1 + d·x²y²`, the ed25519 curve) with a
//! signed radix-16 comb over a precomputed table:
//!
//! * `TABLE[i][j−1] = j · 16²ⁱ · B` for `i ∈ 0..32`, `j ∈ 1..=8`, stored
//!   in "Niels" form `(y+x, y−x, 2d·x·y)` so each table lookup costs one
//!   mixed addition (7 field muls);
//! * a 255-bit clamped scalar becomes 64 signed radix-16 digits; the odd
//!   digits are summed, multiplied by 16 with four doublings, then the
//!   even digits are summed — 64 mixed additions and 4 doublings versus
//!   the ladder's 255 full steps (~3–4× fewer field multiplications);
//! * the result maps back to the Montgomery u-coordinate as
//!   `u = (Z+Y)/(Z−Y)`, exactly what X25519 outputs.
//!
//! All curve constants (d, √−1, the base point) are **derived at runtime**
//! from first principles and cross-checked — `montgomery_u(B) == 9` and
//! `x25519_base(k) == x25519(k, 9)` in tests — rather than pasted in, so
//! a transcription error cannot silently corrupt keys.
//!
//! **Where the comb runs.** The tables serve every single-onion wrap
//! ([`crate::onion::wrap_into_with`], [`crate::onion::wrap_noise_into`]:
//! per-object clients, a server's substitute for a malformed onion),
//! long-term keygen, and — on CPUs without AVX-512 IFMA — the bulk
//! chunk wrap as well. Where the eight-wide ladder exists, one of its
//! lanes (~8 µs) undercuts a comb multiplication (~12 µs), so
//! [`crate::onion::wrap_chunk_in_place`] sends a whole chunk's keygens
//! and DHs through the ladder instead and only borrows this module's
//! batch resolver.
//!
//! Like the rest of this crate the table walk is not hardened
//! constant-time (digit selection branches); see the crate-level security
//! note.

use crate::field::Fe;
use crate::x25519::BASE_POINT;
use std::sync::OnceLock;

/// A point in extended twisted Edwards coordinates (X : Y : Z : T) with
/// `x = X/Z`, `y = Y/Z`, `T = XY/Z`.
#[derive(Clone, Copy)]
struct Extended {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A precomputed affine point in "Niels" form: `(y+x, y−x, 2d·x·y)`.
#[derive(Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    t2d: Fe,
}

/// The lazily-built curve constants and base-point comb table.
struct BaseTable {
    /// `2d`, kept for the full addition formula.
    d2: Fe,
    /// `d`, for on-curve checks when building point tables.
    d: Fe,
    /// `rows[i][j−1] = (j+0) · 16²ⁱ · B` in Niels form, `j = 1..=8`.
    rows: Box<[[Niels; 8]; 32]>,
}

/// A comb table for an *arbitrary* curve point — the same radix-16
/// machinery as the base-point table, built once per long-lived public
/// key. Mix servers precompute one per downstream server so the
/// per-noise-onion Diffie-Hellman (`eph_sk · server_pk`, a fixed point
/// with a fresh scalar every time) runs at comb speed instead of ladder
/// speed. See [`crate::x25519::DhTable`] for the public wrapper.
pub(crate) struct PointTable {
    rows: Box<[[Niels; 8]; 32]>,
}

impl PointTable {
    /// Builds the table for the curve point with Montgomery u-coordinate
    /// `u`. Returns `None` when `u` is not on the curve (it lies on the
    /// quadratic twist, which the Edwards formulas cannot represent —
    /// callers fall back to the Montgomery ladder, which handles both).
    pub(crate) fn new(u: &[u8; 32]) -> Option<PointTable> {
        let consts = table();
        let point = edwards_from_montgomery_u(u, &consts.d)?;
        Some(PointTable {
            rows: comb_table(point, &consts.d2),
        })
    }

    /// `clamped_scalar · P` as a Montgomery u-coordinate; bit-identical
    /// to `x25519(scalar, u)` for every on-curve `u`.
    pub(crate) fn scalarmult_u(&self, clamped_scalar: &[u8; 32]) -> [u8; 32] {
        scalarmult_comb(&self.rows, &table().d2, clamped_scalar).montgomery_u()
    }

    /// Like [`PointTable::scalarmult_u`] but deferring the field
    /// inversion; see [`PendingU`].
    pub(crate) fn scalarmult_pending(&self, clamped_scalar: &[u8; 32]) -> PendingU {
        scalarmult_comb(&self.rows, &table().d2, clamped_scalar).montgomery_pending()
    }
}

/// A Montgomery u-coordinate awaiting its field inversion: `u = num/den`.
///
/// The inversion is ~30% of a comb scalar multiplication's cost. Callers
/// that need several results at once (an onion layer needs a keygen *and*
/// a DH per hop) collect `PendingU`s and resolve them together through
/// [`resolve_batch`], which replaces n inversions with one plus 3(n−1)
/// multiplications (Montgomery's batch-inversion trick).
#[derive(Clone, Copy)]
pub(crate) struct PendingU {
    num: Fe,
    den: Fe,
}

impl PendingU {
    /// An inert placeholder (0/1, resolving to 0); used to initialise
    /// stack batches before filling.
    pub(crate) const PLACEHOLDER: PendingU = PendingU {
        num: Fe::ZERO,
        den: Fe::ONE,
    };
    /// Resolves this value alone (one inversion).
    #[cfg(test)]
    pub(crate) fn resolve(&self) -> [u8; 32] {
        self.num.mul(&self.den.invert()).to_bytes()
    }

    /// Wraps an already-computed u-coordinate (denominator 1), so ladder
    /// results can ride through a batch resolution unchanged.
    pub(crate) fn resolved(u: &[u8; 32]) -> PendingU {
        PendingU {
            num: Fe::from_bytes(u),
            den: Fe::ONE,
        }
    }

    /// Builds a pending value from an explicit projective ratio — the
    /// Montgomery ladder's `(x2, z2)` endpoint, whose final `x2 · z2⁻¹`
    /// is exactly the inversion this type defers.
    pub(crate) fn from_ratio(num: Fe, den: Fe) -> PendingU {
        PendingU { num, den }
    }
}

/// Resolves a batch of pending u-coordinates into `out` with a single
/// inversion. Zero denominators (the group identity) resolve to 0,
/// matching both `Fe::invert(0) == 0` and the RFC 7748 ladder's
/// low-order convention. Works entirely on the stack for batches up to
/// [`MAX_RESOLVE_BATCH`] — one onion's worth of layers, the hot case.
pub(crate) fn resolve_batch_into(pending: &[PendingU], out: &mut [[u8; 32]]) {
    assert!(
        pending.len() <= MAX_RESOLVE_BATCH,
        "resolve batch too large"
    );
    assert_eq!(pending.len(), out.len());
    // Prefix products over the denominators (zeros replaced by 1 so the
    // rest of the batch still resolves).
    let mut dens = [Fe::ONE; MAX_RESOLVE_BATCH];
    let mut prefix = [Fe::ONE; MAX_RESOLVE_BATCH];
    let mut acc = Fe::ONE;
    for (i, p) in pending.iter().enumerate() {
        if !p.den.is_zero() {
            dens[i] = p.den;
        }
        acc = acc.mul(&dens[i]);
        prefix[i] = acc;
    }
    let mut inv = acc.invert(); // inverse of the full product
    for i in (0..pending.len()).rev() {
        // inv currently = (d_0 · … · d_i)^-1.
        let den_inv = if i == 0 { inv } else { prefix[i - 1].mul(&inv) };
        inv = inv.mul(&dens[i]);
        out[i] = if pending[i].den.is_zero() {
            [0u8; 32]
        } else {
            pending[i].num.mul(&den_inv).to_bytes()
        };
    }
}

/// Largest batch [`resolve_batch_into`] accepts: keygen + DH for every
/// layer of one onion, up to a 16-server chain (the paper evaluates 6).
pub(crate) const MAX_RESOLVE_BATCH: usize = 32;

/// Allocating convenience wrapper over [`resolve_batch_into`].
#[cfg(test)]
pub(crate) fn resolve_batch(pending: &[PendingU]) -> Vec<[u8; 32]> {
    let mut out = vec![[0u8; 32]; pending.len()];
    resolve_batch_into(pending, &mut out);
    out
}

/// Lifts a Montgomery u-coordinate to an extended Edwards point via the
/// birational map `y = (u−1)/(u+1)`, recovering `x` from the curve
/// equation. Either root of `x` works for u-only arithmetic (`±P` share
/// every scalar multiple's u-coordinate). Returns `None` off the curve.
fn edwards_from_montgomery_u(u: &[u8; 32], d: &Fe) -> Option<Extended> {
    let u = Fe::from_bytes(u);
    let denom = u.add(&Fe::ONE);
    if denom.is_zero() {
        // u = −1 has no affine Edwards image; fall back to the ladder.
        return None;
    }
    let y = u.sub(&Fe::ONE).mul(&denom.invert());
    let y2 = y.square();
    let x2_denom = d.mul(&y2).add(&Fe::ONE);
    if x2_denom.is_zero() {
        return None;
    }
    let x2 = y2.sub(&Fe::ONE).mul(&x2_denom.invert());
    let x = fe_sqrt(&x2)?;
    // On-curve check: −x² + y² == 1 + d·x²·y² (guards fe_sqrt edge cases).
    if y2.sub(&x.square()) != Fe::ONE.add(&d.mul(&x.square()).mul(&y2)) {
        return None;
    }
    Some(Extended {
        x,
        y,
        z: Fe::ONE,
        t: x.mul(&y),
    })
}

impl Extended {
    /// The neutral element (0, 1).
    fn identity() -> Extended {
        Extended {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// Full unified addition ("add-2008-hwcd-3" for a = −1); also valid
    /// for doubling.
    fn add(&self, other: &Extended, d2: &Fe) -> Extended {
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(d2).mul(&other.t);
        let d = self.z.mul(&other.z);
        let d = d.add(&d);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Extended {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Mixed addition with a precomputed Niels point (Z₂ = 1).
    fn add_niels(&self, n: &Niels) -> Extended {
        let a = self.y.sub(&self.x).mul(&n.y_minus_x);
        let b = self.y.add(&self.x).mul(&n.y_plus_x);
        let c = self.t.mul(&n.t2d);
        let d = self.z.add(&self.z);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Extended {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Mixed subtraction: adds the negated Niels point.
    fn sub_niels(&self, n: &Niels) -> Extended {
        let negated = Niels {
            y_plus_x: n.y_minus_x,
            y_minus_x: n.y_plus_x,
            t2d: Fe::ZERO.sub(&n.t2d),
        };
        self.add_niels(&negated)
    }

    /// Converts to Niels form (requires one field inversion).
    fn to_niels(self, d2: &Fe) -> Niels {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        Niels {
            y_plus_x: y.add(&x),
            y_minus_x: y.sub(&x),
            t2d: x.mul(&y).mul(d2),
        }
    }

    /// The Montgomery u-coordinate of this point: `u = (Z+Y)/(Z−Y)`.
    fn montgomery_u(&self) -> [u8; 32] {
        let num = self.z.add(&self.y);
        let den = self.z.sub(&self.y);
        num.mul(&den.invert()).to_bytes()
    }

    /// The u-coordinate with the inversion deferred for batching.
    fn montgomery_pending(&self) -> PendingU {
        PendingU {
            num: self.z.add(&self.y),
            den: self.z.sub(&self.y),
        }
    }
}

/// Raises `base` to the exponent encoded as 32 little-endian bytes, by
/// plain square-and-multiply. Only used during one-time table setup.
fn fe_pow(base: &Fe, exp: &[u8; 32]) -> Fe {
    let mut acc = Fe::ONE;
    for bit in (0..256).rev() {
        acc = acc.square();
        if (exp[bit / 8] >> (bit % 8)) & 1 == 1 {
            acc = acc.mul(base);
        }
    }
    acc
}

/// A square root of `w`, if one exists: `w^((p+3)/8)`, corrected by √−1
/// when the first candidate squares to `−w`.
fn fe_sqrt(w: &Fe) -> Option<Fe> {
    // (p+3)/8 = 2^252 − 2, little-endian.
    let mut exp = [0xFFu8; 32];
    exp[0] = 0xFE;
    exp[31] = 0x0F;
    let root = fe_pow(w, &exp);

    if root.square() == *w {
        return Some(root);
    }
    // √−1 = 2^((p−1)/4); (p−1)/4 = 2^253 − 5.
    let mut exp_i = [0xFFu8; 32];
    exp_i[0] = 0xFB;
    exp_i[31] = 0x1F;
    let sqrt_m1 = fe_pow(&Fe::ONE.add(&Fe::ONE), &exp_i);
    debug_assert!(sqrt_m1.square() == Fe::ZERO.sub(&Fe::ONE));

    let root = root.mul(&sqrt_m1);
    if root.square() == *w {
        Some(root)
    } else {
        None
    }
}

/// Builds the comb table. Runs once per process (~1 ms), and asserts its
/// own consistency: the derived base point must be on the curve and must
/// map to Montgomery u = 9.
fn build_table() -> BaseTable {
    // d = −121665/121666.
    let k121665 = Fe::ONE.mul_small(121_665);
    let k121666 = Fe::ONE.mul_small(121_666);
    let d = Fe::ZERO.sub(&k121665).mul(&k121666.invert());
    let d2 = d.add(&d);

    // Base point: y = 4/5; x is either root of (y²−1)/(d·y²+1). The sign
    // of x never reaches the output (u depends only on y), it only has to
    // be used consistently, which building everything from one `bp` does.
    let by = Fe::ONE.mul_small(4).mul(&Fe::ONE.mul_small(5).invert());
    let y2 = by.square();
    let x2 = y2.sub(&Fe::ONE).mul(&d.mul(&y2).add(&Fe::ONE).invert());
    let bx = fe_sqrt(&x2).expect("the ed25519 base point exists");
    // On-curve check: −x² + y² == 1 + d·x²·y².
    assert!(
        y2.sub(&bx.square()) == Fe::ONE.add(&d.mul(&bx.square()).mul(&y2)),
        "derived base point is not on the curve"
    );

    let bp = Extended {
        x: bx,
        y: by,
        z: Fe::ONE,
        t: bx.mul(&by),
    };
    assert_eq!(
        bp.montgomery_u(),
        BASE_POINT,
        "Edwards base point must map to Montgomery u = 9"
    );

    let rows = comb_table(bp, &d2);
    BaseTable { d2, d, rows }
}

/// Builds the 32×8 signed-radix-16 comb table for a point `p`:
/// `rows[i][j−1] = j · 16²ⁱ · p`.
fn comb_table(p: Extended, d2: &Fe) -> Box<[[Niels; 8]; 32]> {
    let mut rows = Box::new([[p.to_niels(d2); 8]; 32]);
    let mut row_base = p; // 16^{2i}·p for the current row
    for row in rows.iter_mut() {
        let mut multiple = row_base; // j·16^{2i}·p
        for entry in row.iter_mut() {
            *entry = multiple.to_niels(d2);
            multiple = multiple.add(&row_base, d2);
        }
        // row_base *= 16² (8 doublings).
        for _ in 0..8 {
            row_base = row_base.add(&row_base, d2);
        }
    }
    rows
}

/// Shared comb walk: odd digits, four doublings (×16), even digits.
fn scalarmult_comb(rows: &[[Niels; 8]; 32], d2: &Fe, clamped_scalar: &[u8; 32]) -> Extended {
    let digits = signed_radix16(clamped_scalar);
    let mut h = Extended::identity();
    for i in (1..64).step_by(2) {
        h = add_digit(&h, &rows[i / 2], digits[i]);
    }
    for _ in 0..4 {
        h = h.add(&h, d2);
    }
    for i in (0..64).step_by(2) {
        h = add_digit(&h, &rows[i / 2], digits[i]);
    }
    h
}

fn table() -> &'static BaseTable {
    static TABLE: OnceLock<BaseTable> = OnceLock::new();
    TABLE.get_or_init(build_table)
}

/// Splits a little-endian 256-bit scalar into 64 signed radix-16 digits
/// in `[−8, 8]` (the last digit can reach 8, which the table covers; for
/// clamped scalars bit 255 is clear so no carry escapes).
fn signed_radix16(scalar: &[u8; 32]) -> [i8; 64] {
    let mut e = [0i8; 64];
    for (i, byte) in scalar.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in e.iter_mut().take(63) {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;
    e
}

/// Multiplies the base point by an (already clamped) scalar and returns
/// the Montgomery u-coordinate — the fixed-base fast path behind
/// [`crate::x25519::x25519_base`].
pub(crate) fn scalarmult_base_u(clamped_scalar: &[u8; 32]) -> [u8; 32] {
    let table = table();
    scalarmult_comb(&table.rows, &table.d2, clamped_scalar).montgomery_u()
}

/// Fixed-base scalar multiplication with the inversion deferred.
pub(crate) fn scalarmult_base_pending(clamped_scalar: &[u8; 32]) -> PendingU {
    let table = table();
    scalarmult_comb(&table.rows, &table.d2, clamped_scalar).montgomery_pending()
}

fn add_digit(h: &Extended, row: &[Niels; 8], digit: i8) -> Extended {
    match digit.cmp(&0) {
        core::cmp::Ordering::Greater => h.add_niels(&row[digit as usize - 1]),
        core::cmp::Ordering::Less => h.sub_niels(&row[(-digit) as usize - 1]),
        core::cmp::Ordering::Equal => *h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x25519::{x25519, BASE_POINT};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn clamp(mut k: [u8; 32]) -> [u8; 32] {
        k[0] &= 248;
        k[31] &= 127;
        k[31] |= 64;
        k
    }

    #[test]
    fn digits_recompose_to_the_scalar() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..32 {
            let mut scalar = [0u8; 32];
            rng.fill_bytes(&mut scalar);
            let scalar = clamp(scalar);
            let digits = signed_radix16(&scalar);
            // Σ e_i·16^i must equal the scalar; verify with plain bignum
            // accumulation over 16 u64 limbs of 16 bits each (no overflow).
            let mut acc = [0i128; 5];
            for (i, &d) in digits.iter().enumerate() {
                let limb = i / 16; // 16 digits of 4 bits per 64-bit limb
                acc[limb] += i128::from(d) << ((i % 16) * 4);
            }
            let mut expect = [0i128; 5];
            for (i, chunk) in scalar.chunks(8).enumerate() {
                let mut w = [0u8; 8];
                w.copy_from_slice(chunk);
                expect[i] = i128::from(u64::from_le_bytes(w));
            }
            // Normalize carries between limbs before comparing.
            for limb in 0..4 {
                let carry = acc[limb] >> 64;
                acc[limb] -= carry << 64;
                acc[limb + 1] += carry;
                if acc[limb] < 0 {
                    acc[limb] += 1 << 64;
                    acc[limb + 1] -= 1;
                }
            }
            assert_eq!(acc, expect);
            assert!(digits.iter().all(|&d| (-8..=8).contains(&d)));
        }
    }

    #[test]
    fn fixed_base_matches_ladder_for_rfc_scalars() {
        // The RFC 7748 §6.1 secret keys exercise the full pipeline.
        let scalars = [[0x77u8; 32], [0x5d; 32], [1; 32], [0xFF; 32]];
        for scalar in scalars {
            let clamped = clamp(scalar);
            assert_eq!(
                scalarmult_base_u(&clamped),
                x25519(&scalar, &BASE_POINT),
                "scalar {:02x?}",
                scalar[0]
            );
        }
    }

    #[test]
    fn fixed_base_matches_ladder_for_random_scalars() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..24 {
            let mut scalar = [0u8; 32];
            rng.fill_bytes(&mut scalar);
            assert_eq!(
                scalarmult_base_u(&clamp(scalar)),
                x25519(&scalar, &BASE_POINT)
            );
        }
    }

    #[test]
    fn point_table_matches_ladder_for_random_points() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            let mut point_scalar = [0u8; 32];
            rng.fill_bytes(&mut point_scalar);
            // k·B is always on the curve, so the table must build.
            let point_u = x25519(&point_scalar, &BASE_POINT);
            let table = PointTable::new(&point_u).expect("curve point has a table");
            for _ in 0..4 {
                let mut scalar = [0u8; 32];
                rng.fill_bytes(&mut scalar);
                assert_eq!(
                    table.scalarmult_u(&clamp(scalar)),
                    x25519(&scalar, &point_u),
                    "comb DH diverged from ladder"
                );
            }
        }
    }

    #[test]
    fn batch_resolution_matches_individual_inversions() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut scalars = [[0u8; 32]; 7];
        for s in &mut scalars {
            rng.fill_bytes(s);
        }
        let pending: Vec<PendingU> = scalars
            .iter()
            .map(|s| scalarmult_base_pending(&clamp(*s)))
            .collect();
        let batch = resolve_batch(&pending);
        for (p, (s, got)) in pending.iter().zip(scalars.iter().zip(batch.iter())) {
            assert_eq!(p.resolve(), *got);
            assert_eq!(x25519(s, &BASE_POINT), *got);
        }
        // Pre-resolved (ladder fallback) entries pass through unchanged,
        // and zero denominators resolve to zero, even mid-batch.
        let mixed = [
            PendingU::resolved(&batch[0]),
            PendingU {
                num: Fe::ONE,
                den: Fe::ZERO,
            },
            scalarmult_base_pending(&clamp(scalars[1])),
        ];
        let resolved = resolve_batch(&mixed);
        assert_eq!(resolved[0], batch[0]);
        assert_eq!(resolved[1], [0u8; 32]);
        assert_eq!(resolved[2], batch[1]);
    }

    #[test]
    fn twist_points_are_rejected_not_miscomputed() {
        // Find a u that is NOT on the curve (it is then on the twist):
        // roughly half of all field elements qualify.
        let mut rng = StdRng::seed_from_u64(8);
        let mut found = 0;
        for _ in 0..64 {
            let mut u = [0u8; 32];
            rng.fill_bytes(&mut u);
            u[31] &= 0x7f;
            if PointTable::new(&u).is_none() {
                found += 1;
            }
        }
        assert!(found > 8, "expected a healthy share of twist points");
    }

    #[test]
    fn sqrt_finds_roots_and_rejects_nonresidues() {
        let four = Fe::ONE.mul_small(4);
        let two = Fe::ONE.add(&Fe::ONE);
        let r = fe_sqrt(&four).expect("4 is a square");
        assert!(r == two || r == Fe::ZERO.sub(&two));
        // 2 is a non-residue mod 2^255−19.
        assert!(fe_sqrt(&two).is_none());
    }
}
