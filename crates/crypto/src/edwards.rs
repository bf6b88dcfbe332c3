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
//! **Where the comb runs.** Everywhere a base is fixed: long-term keygen
//! and every onion wrap ([`crate::onion::wrap_chunk_in_place`] — cover
//! traffic, cohort build — and the single-onion entry points, which are
//! its one-slot case). The walk exists twice over the same tables:
//! [`scalarmult_comb`], one scalar at a time over [`Fe`] (~12 µs with
//! its inversion), and — on CPUs with AVX-512 IFMA —
//! [`scalarmult_pending_oct`], eight independent `(table, scalar)`
//! lanes in lockstep over [`Fe8`](crate::fe8::Fe8) (~2.3 µs a lane,
//! against ~8 µs for a lane of the eight-wide *ladder*, which is why no
//! wrap runs a variable-base algorithm on its fixed bases). The wraps
//! and batched keygen take the eight-wide walk where it exists and the
//! scalar one elsewhere; both feed the same batch resolver.
//!
//! Like the rest of this crate the table walk is not hardened
//! constant-time (digit selection branches, in the eight-wide walk per
//! lane); see the crate-level security note.

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
    /// The base point's comb table.
    base: PointTable,
}

/// A comb table for an *arbitrary* curve point — the same radix-16
/// machinery as the base-point table, built once per long-lived public
/// key. Mix servers precompute one per downstream server so the
/// per-noise-onion Diffie-Hellman (`eph_sk · server_pk`, a fixed point
/// with a fresh scalar every time) runs at comb speed instead of ladder
/// speed. See [`crate::x25519::DhTable`] for the public wrapper.
pub(crate) struct PointTable {
    /// `rows[i][j−1] = j · 16²ⁱ · P` in Niels form, `j = 1..=8`.
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

    /// The base point's own table (u = 9), for the lanes of a comb walk
    /// that generate keys.
    pub(crate) fn base() -> &'static PointTable {
        &table().base
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

    let base = PointTable {
        rows: comb_table(bp, &d2),
    };
    BaseTable { d2, d, base }
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
    scalarmult_comb(&table.base.rows, &table.d2, clamped_scalar).montgomery_u()
}

fn add_digit(h: &Extended, row: &[Niels; 8], digit: i8) -> Extended {
    match digit.cmp(&0) {
        core::cmp::Ordering::Greater => h.add_niels(&row[digit as usize - 1]),
        core::cmp::Ordering::Less => h.sub_niels(&row[(-digit) as usize - 1]),
        core::cmp::Ordering::Equal => *h,
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use oct::scalarmult_pending_oct;

/// The comb walk eight lanes at a time over [`Fe8`](crate::fe8::Fe8):
/// [`scalarmult_comb`] formula for formula, with each lane looking its
/// own digit up in its own table. Everything here but the entry point
/// is `#[target_feature]` code over value intrinsics, safe to call from
/// one another.
#[cfg(target_arch = "x86_64")]
mod oct {
    use super::{signed_radix16, Niels, PendingU, PointTable};
    use crate::fe8::{Fe8, Ifma, LANES};
    use crate::field::Fe;

    /// Eight [`Extended`](super::Extended) points, one per lane.
    pub(super) struct Extended8 {
        pub(super) x: Fe8,
        pub(super) y: Fe8,
        pub(super) z: Fe8,
        pub(super) t: Fe8,
    }

    /// Eight [`Niels`] points, one per lane.
    pub(super) struct Niels8 {
        pub(super) y_plus_x: Fe8,
        pub(super) y_minus_x: Fe8,
        pub(super) t2d: Fe8,
    }

    /// The neutral element (0, 1) in Niels form: what a zero digit adds.
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        t2d: Fe::ZERO,
    };

    impl Niels8 {
        /// Lane `l` becomes `digits[l] · 16²ⁱ · P_l` from `rows[l]`, row
        /// `i` of its point's table: entry `|digit| − 1`, or the
        /// identity for digit 0 (so the lockstep addition that follows
        /// leaves that lane's point where it was); a negative digit's
        /// lane is then negated the way [`Extended::sub_niels`] does
        /// it, `y±x` swapped and `2dxy` replaced by its negative, both
        /// by a masked blend.
        ///
        /// [`Extended::sub_niels`]: super::Extended::sub_niels
        #[target_feature(enable = "avx512f,avx512ifma")]
        pub(super) fn lookup(rows: [&[Niels; 8]; LANES], digits: [i8; LANES]) -> Niels8 {
            let mut negative = 0u8;
            let entries: [&Niels; LANES] = core::array::from_fn(|l| {
                negative |= u8::from(digits[l] < 0) << l;
                match digits[l].unsigned_abs() {
                    0 => &IDENTITY,
                    j => &rows[l][usize::from(j) - 1],
                }
            });
            let mut n = Niels8 {
                y_plus_x: Fe8::from_fes(&entries.map(|e| e.y_plus_x)),
                y_minus_x: Fe8::from_fes(&entries.map(|e| e.y_minus_x)),
                t2d: Fe8::from_fes(&entries.map(|e| e.t2d)),
            };
            Fe8::cswap(negative, &mut n.y_plus_x, &mut n.y_minus_x);
            let mut negated = Fe8::splat(Fe::ZERO).sub(&n.t2d);
            Fe8::cswap(negative, &mut n.t2d, &mut negated);
            n
        }
    }

    impl Extended8 {
        /// The neutral element in every lane.
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn identity() -> Extended8 {
            Extended8 {
                x: Fe8::splat(Fe::ZERO),
                y: Fe8::splat(Fe::ONE),
                z: Fe8::splat(Fe::ONE),
                t: Fe8::splat(Fe::ZERO),
            }
        }

        /// Mixed addition, [`Extended::add_niels`] in every lane.
        ///
        /// [`Extended::add_niels`]: super::Extended::add_niels
        #[target_feature(enable = "avx512f,avx512ifma")]
        pub(super) fn add_niels(&self, n: &Niels8) -> Extended8 {
            let a = self.y.sub(&self.x).mul(&n.y_minus_x);
            let b = self.y.add(&self.x).mul(&n.y_plus_x);
            let c = self.t.mul(&n.t2d);
            let d = self.z.add(&self.z);
            let e = b.sub(&a);
            let f = d.sub(&c);
            let g = d.add(&c);
            let h = b.add(&a);
            Extended8 {
                x: e.mul(&f),
                y: g.mul(&h),
                z: f.mul(&g),
                t: e.mul(&h),
            }
        }

        /// Doubling ("dbl-2008-hwcd" for a = −1, every output negated,
        /// which names the same point and spares a negation): four
        /// squarings and four multiplications where the scalar walk
        /// spends the unified addition's nine on each of its four
        /// doublings.
        #[target_feature(enable = "avx512f,avx512ifma")]
        pub(super) fn double(&self) -> Extended8 {
            let xx = self.x.square();
            let yy = self.y.square();
            let zz = self.z.square();
            let e = self.x.add(&self.y).square().sub(&xx).sub(&yy); // 2XY
            let h = yy.add(&xx);
            let g = yy.sub(&xx);
            let f = zz.add(&zz).sub(&g);
            Extended8 {
                x: e.mul(&f),
                y: g.mul(&h),
                z: f.mul(&g),
                t: e.mul(&h),
            }
        }
    }

    /// [`scalarmult_comb`](super::scalarmult_comb) in eight lanes: odd
    /// digits, four doublings, even digits, each step one lookup and
    /// one mixed addition across all lanes. Lanes leave as the
    /// `(Z+Y, Z−Y)` of [`Extended::montgomery_pending`].
    ///
    /// [`Extended::montgomery_pending`]: super::Extended::montgomery_pending
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn comb8(
        tables: [&PointTable; LANES],
        clamped_scalars: [&[u8; 32]; LANES],
    ) -> [PendingU; LANES] {
        let digits: [[i8; 64]; LANES] =
            core::array::from_fn(|l| signed_radix16(clamped_scalars[l]));
        let add_digits = |h: &Extended8, i: usize| {
            h.add_niels(&Niels8::lookup(
                core::array::from_fn(|l| &tables[l].rows[i / 2]),
                core::array::from_fn(|l| digits[l][i]),
            ))
        };
        let mut h = Extended8::identity();
        for i in (1..64).step_by(2) {
            h = add_digits(&h, i);
        }
        for _ in 0..4 {
            h = h.double();
        }
        for i in (0..64).step_by(2) {
            h = add_digits(&h, i);
        }
        let (nums, dens) = (h.z.add(&h.y).to_fes(), h.z.sub(&h.y).to_fes());
        core::array::from_fn(|l| PendingU {
            num: nums[l],
            den: dens[l],
        })
    }

    /// Eight comb multiplications in lockstep on AVX-512 IFMA: lane `l`
    /// is `clamped_scalars[l] · P_l`, `P_l` the point `tables[l]` was
    /// built for, as a Montgomery u-coordinate with its inversion
    /// deferred — after [`resolve_batch_into`](super::resolve_batch_into)
    /// byte-identical to [`PointTable::scalarmult_u`], hence to
    /// `x25519`. The lanes share nothing: any mix of tables (the base
    /// point's among them, see [`PointTable::base`]) and scalars. The
    /// one place safe code enters the eight-wide comb.
    #[allow(unsafe_code)]
    pub(crate) fn scalarmult_pending_oct(
        _ifma: Ifma,
        tables: [&PointTable; LANES],
        clamped_scalars: [&[u8; 32]; LANES],
    ) -> [PendingU; LANES] {
        // SAFETY: `comb8` needs a CPU with avx512f and avx512ifma, and
        // an `Ifma` can only be built by `Ifma::detect`, which found
        // both.
        unsafe { comb8(tables, clamped_scalars) }
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
            .map(|s| PointTable::base().scalarmult_pending(&clamp(*s)))
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
            PointTable::base().scalarmult_pending(&clamp(scalars[1])),
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
    /// The eight-wide comb, held to `x25519` through its one entry
    /// point and operation by operation to the scalar walk. Every test
    /// asks `fe8::ifma_or_skip`, so a CPU without IFMA logs SKIPPED.
    #[cfg(target_arch = "x86_64")]
    mod oct {
        use super::super::oct::{Extended8, Niels8};
        use super::*;
        use crate::fe8::{ifma_or_skip, Fe8, Ifma, LANES};

        /// One octet through the eight-wide comb, resolved.
        fn comb_oct(
            ifma: Ifma,
            tables: [&PointTable; LANES],
            scalars: &[[u8; 32]; LANES],
        ) -> [[u8; 32]; LANES] {
            let clamped = scalars.map(clamp);
            let pending =
                scalarmult_pending_oct(ifma, tables, core::array::from_fn(|l| &clamped[l]));
            let mut out = [[0u8; 32]; LANES];
            resolve_batch_into(&pending, &mut out);
            out
        }

        fn hex32(s: &str) -> [u8; 32] {
            core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("hex"))
        }

        #[test]
        fn oct_comb_known_answers() {
            let Some(ifma) = ifma_or_skip("oct_comb_known_answers") else {
                return;
            };
            // RFC 7748 §6.1: Alice's and Bob's secrets against the base
            // point's table give their public keys, against a table of
            // the other's public key the shared secret — base-point and
            // per-point lanes side by side in one octet.
            let alice = hex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
            let bob = hex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
            let alice_pk =
                hex32("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
            let bob_pk = hex32("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
            let shared = hex32("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
            let base = PointTable::base();
            let to_alice = PointTable::new(&alice_pk).expect("a public key is on the curve");
            let to_bob = PointTable::new(&bob_pk).expect("a public key is on the curve");
            let out = comb_oct(
                ifma,
                [
                    base, &to_bob, base, &to_alice, &to_alice, base, &to_bob, base,
                ],
                &[alice, alice, bob, bob, bob, bob, alice, alice],
            );
            let want = [
                alice_pk, shared, bob_pk, shared, shared, bob_pk, shared, alice_pk,
            ];
            assert_eq!(out, want);

            // 320 random (scalar, table) lanes: each lane draws its
            // table from the base point's and six random points'.
            let mut rng = StdRng::seed_from_u64(31);
            let points: Vec<[u8; 32]> = (0..6)
                .map(|_| {
                    let mut k = [0u8; 32];
                    rng.fill_bytes(&mut k);
                    x25519(&k, &BASE_POINT)
                })
                .collect();
            let tables: Vec<PointTable> = points
                .iter()
                .map(|u| PointTable::new(u).expect("k·B is on the curve"))
                .collect();
            for octet in 0..40 {
                let picks: [usize; LANES] = core::array::from_fn(|_| (rng.next_u32() % 7) as usize);
                let mut scalars = [[0u8; 32]; LANES];
                for k in &mut scalars {
                    rng.fill_bytes(k);
                }
                let out = comb_oct(ifma, picks.map(|p| tables.get(p).unwrap_or(base)), &scalars);
                for l in 0..LANES {
                    let u = points.get(picks[l]).unwrap_or(&BASE_POINT);
                    assert_eq!(out[l], x25519(&scalars[l], u), "octet {octet} lane {l}");
                }
            }
            // CI runs this test with --nocapture to log what it covered.
            println!("eight-wide comb: exercised, 328 lanes equal x25519");
        }

        #[test]
        fn oct_comb_digit_edges() {
            let Some(ifma) = ifma_or_skip("oct_comb_digit_edges") else {
                return;
            };
            let edges = [[0xFFu8; 32], [0x00; 32], [0x88; 32], [0x77; 32]];
            // What each edge does to the digits, so the cases below
            // are the cases they claim to be.
            let digits = edges.map(|k| signed_radix16(&clamp(k)));
            assert_eq!(digits[0][63], 8, "all-ones: the top digit reaches 8");
            assert!(digits[0][1..63].iter().all(|&d| d == 0));
            assert!(digits[1][..63].iter().all(|&d| d == 0), "all-zero");
            assert!(digits[2][..63].iter().all(|&d| d == -8 || d == -7));
            assert!(digits[3][1..].iter().all(|&d| d == 7));

            let mut rng = StdRng::seed_from_u64(32);
            let mut k = [0u8; 32];
            rng.fill_bytes(&mut k);
            let point = x25519(&k, &BASE_POINT);
            let table = PointTable::new(&point).expect("k·B is on the curve");
            let base = PointTable::base();
            // Each edge against both tables, then rotated so every
            // edge meets the other table and four other lanes.
            let scalars: [[u8; 32]; LANES] = core::array::from_fn(|l| edges[l % 4]);
            for rotate in 0..LANES {
                let lanes: [(&PointTable, &[u8; 32]); LANES] =
                    core::array::from_fn(|l| match (l + rotate) % 8 < 4 {
                        true => (base, &BASE_POINT),
                        false => (&table, &point),
                    });
                let out = comb_oct(ifma, lanes.map(|(table, _)| table), &scalars);
                for l in 0..LANES {
                    let want = x25519(&scalars[l], lanes[l].1);
                    assert_eq!(out[l], want, "rotation {rotate} lane {l}");
                }
            }
        }

        #[test]
        fn oct_comb_low_order_table_resolves_to_zero_alone() {
            let Some(ifma) = ifma_or_skip("oct_comb_low_order_table_resolves_to_zero_alone") else {
                return;
            };
            // u = 0 (order 2) and u = 1 (order 4) are on the curve, so
            // they do get tables; a clamped scalar is a multiple of 8
            // and sends them to the identity, Z − Y = 0.
            let mut one = [0u8; 32];
            one[0] = 1;
            let base = PointTable::base();
            let mut rng = StdRng::seed_from_u64(33);
            for (case, u) in [[0u8; 32], one].iter().enumerate() {
                let low = PointTable::new(u).expect("low-order points are on the curve");
                for lane in 0..LANES {
                    let mut scalars = [[0u8; 32]; LANES];
                    for k in &mut scalars {
                        rng.fill_bytes(k);
                    }
                    let tables: [&PointTable; LANES] =
                        core::array::from_fn(|l| if l == lane { &low } else { base });
                    let out = comb_oct(ifma, tables, &scalars);
                    for l in 0..LANES {
                        let want = if l == lane {
                            [0u8; 32]
                        } else {
                            x25519(&scalars[l], &BASE_POINT)
                        };
                        assert_eq!(out[l], want, "case {case} low-order lane {lane}, lane {l}");
                    }
                }
                // All eight lanes at once: every denominator is zero.
                let out = comb_oct(ifma, [&low; LANES], &[[0x5Au8; 32]; LANES]);
                assert_eq!(out, [[0u8; 32]; LANES], "case {case}");
            }
        }

        /// What the point operations make of one octet of inputs.
        struct PointOps {
            looked_up: [Niels; LANES],
            added: [Extended; LANES],
            doubled: [Extended; LANES],
        }

        #[target_feature(enable = "avx512f,avx512ifma")]
        fn point_ops_ifma(
            points: &[Extended; LANES],
            rows: [&[Niels; 8]; LANES],
            digits: [i8; LANES],
        ) -> PointOps {
            let unpack = |p: Extended8| {
                let (x, y, z, t) = (p.x.to_fes(), p.y.to_fes(), p.z.to_fes(), p.t.to_fes());
                core::array::from_fn(|l| Extended {
                    x: x[l],
                    y: y[l],
                    z: z[l],
                    t: t[l],
                })
            };
            let h = Extended8 {
                x: Fe8::from_fes(&points.map(|p| p.x)),
                y: Fe8::from_fes(&points.map(|p| p.y)),
                z: Fe8::from_fes(&points.map(|p| p.z)),
                t: Fe8::from_fes(&points.map(|p| p.t)),
            };
            let n = Niels8::lookup(rows, digits);
            let (added, doubled) = (unpack(h.add_niels(&n)), unpack(h.double()));
            let (ypx, ymx, t2d) = (n.y_plus_x.to_fes(), n.y_minus_x.to_fes(), n.t2d.to_fes());
            PointOps {
                looked_up: core::array::from_fn(|l| Niels {
                    y_plus_x: ypx[l],
                    y_minus_x: ymx[l],
                    t2d: t2d[l],
                }),
                added,
                doubled,
            }
        }

        /// The tests' own token-guarded way into `#[target_feature]`
        /// code (the library has exactly one, `scalarmult_pending_oct`).
        #[allow(unsafe_code)]
        fn point_ops(
            _ifma: Ifma,
            points: &[Extended; LANES],
            rows: [&[Niels; 8]; LANES],
            digits: [i8; LANES],
        ) -> PointOps {
            // SAFETY: the `Ifma` token proves avx512f and avx512ifma.
            unsafe { point_ops_ifma(points, rows, digits) }
        }

        /// Whether two extended representations name one point, and
        /// `got` keeps `T·Z = X·Y`.
        fn same_point(got: &Extended, want: &Extended) -> bool {
            got.x.mul(&want.z) == want.x.mul(&got.z)
                && got.y.mul(&want.z) == want.y.mul(&got.z)
                && got.t.mul(&got.z) == got.x.mul(&got.y)
        }

        #[test]
        fn oct_point_ops_match_scalar_lane_by_lane() {
            let Some(ifma) = ifma_or_skip("oct_point_ops_match_scalar_lane_by_lane") else {
                return;
            };
            let consts = table();
            let mut rng = StdRng::seed_from_u64(34);
            let mut random_point = |rows: &[[Niels; 8]; 32]| {
                let mut k = [0u8; 32];
                rng.fill_bytes(&mut k);
                scalarmult_comb(rows, &consts.d2, &clamp(k))
            };
            let other = PointTable {
                rows: comb_table(random_point(&consts.base.rows), &consts.d2),
            };
            // Every digit −8..=8 in every lane, against points with
            // Z ≠ 1, lanes alternating between two tables and rows.
            for shift in 0..17i8 {
                let digits: [i8; LANES] = core::array::from_fn(|l| (shift + 5 * l as i8) % 17 - 8);
                let rows: [&[Niels; 8]; LANES] = core::array::from_fn(|l| match l % 2 {
                    0 => &consts.base.rows[(3 * l + shift as usize) % 32],
                    _ => &other.rows[(5 * l + shift as usize) % 32],
                });
                let points: [Extended; LANES] = core::array::from_fn(|_| random_point(&other.rows));
                let out = point_ops(ifma, &points, rows, digits);
                for l in 0..LANES {
                    let want = match digits[l] {
                        0 => Niels {
                            y_plus_x: Fe::ONE,
                            y_minus_x: Fe::ONE,
                            t2d: Fe::ZERO,
                        },
                        d if d > 0 => rows[l][d as usize - 1],
                        d => {
                            let n = rows[l][(-d) as usize - 1];
                            Niels {
                                y_plus_x: n.y_minus_x,
                                y_minus_x: n.y_plus_x,
                                t2d: Fe::ZERO.sub(&n.t2d),
                            }
                        }
                    };
                    let got = &out.looked_up[l];
                    assert!(
                        got.y_plus_x == want.y_plus_x
                            && got.y_minus_x == want.y_minus_x
                            && got.t2d == want.t2d,
                        "lookup of digit {} in lane {l}",
                        digits[l]
                    );
                    assert!(
                        same_point(&out.added[l], &add_digit(&points[l], rows[l], digits[l])),
                        "mixed addition of digit {} in lane {l}",
                        digits[l]
                    );
                    assert!(
                        same_point(&out.doubled[l], &points[l].add(&points[l], &consts.d2)),
                        "doubling in lane {l}"
                    );
                }
            }
        }
    }
}
