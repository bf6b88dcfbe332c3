//! X25519 Diffie-Hellman key exchange (RFC 7748).
//!
//! Vuvuzela performs one fresh X25519 exchange per onion layer per round
//! (paper Algorithm 1 step 2 and Algorithm 2 step 1) — this function
//! dominates server CPU time (paper §8.2), so the benchmark harness
//! prices a round's kernel floor by it.

use crate::edwards::{resolve_batch_into, PendingU, PointTable, MAX_RESOLVE_BATCH};
#[cfg(target_arch = "x86_64")]
use crate::fe8::{self, Fe8, Ifma};
use crate::field::Fe;
use rand::{CryptoRng, RngCore};

/// The length in bytes of scalars, public keys and shared secrets.
pub const KEY_LEN: usize = 32;

/// The X25519 base point (u = 9).
pub const BASE_POINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// A Curve25519 secret scalar.
///
/// Stored unclamped; clamping happens inside the ladder, per RFC 7748.
#[derive(Clone)]
pub struct SecretKey([u8; 32]);

/// A Curve25519 public key (Montgomery u-coordinate).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub [u8; 32]);

/// A 32-byte Diffie-Hellman shared secret.
///
/// Callers should pass this through a KDF ([`crate::hkdf`]) before using it
/// as a cipher key; [`crate::onion`] does so internally.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SharedSecret(pub [u8; 32]);

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SecretKey(..)") // never print key material
    }
}

impl core::fmt::Debug for SharedSecret {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SharedSecret(..)")
    }
}

impl core::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "PublicKey({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl SecretKey {
    /// Generates a fresh random secret key.
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> SecretKey {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        SecretKey(bytes)
    }

    /// Builds a secret key from raw bytes (useful for tests and key
    /// derivation); the bytes are clamped when used.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> SecretKey {
        SecretKey(bytes)
    }

    /// The raw (unclamped) scalar bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Derives the corresponding public key: `X25519(sk, 9)`.
    ///
    /// Uses the fixed-base comb table ([`x25519_base`]) rather than the
    /// general ladder — keygen is the half of every onion layer's cost
    /// that *can* exploit a fixed base.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        PublicKey(x25519_base(&self.0))
    }

    /// Computes the Diffie-Hellman shared secret with a peer public key.
    ///
    /// The all-zero output (low-order peer point) is *not* rejected here —
    /// Vuvuzela's onion layer rejects it at KDF time so the mixnet can still
    /// count the malformed request. See
    /// [`CryptoError::DegenerateSharedSecret`](crate::CryptoError).
    #[must_use]
    pub fn diffie_hellman(&self, peer: &PublicKey) -> SharedSecret {
        SharedSecret(x25519(&self.0, &peer.0))
    }
}

impl PublicKey {
    /// Builds a public key from its 32-byte u-coordinate encoding.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> PublicKey {
        PublicKey(bytes)
    }

    /// The raw u-coordinate bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// A keypair convenience bundle.
#[derive(Clone, Debug)]
pub struct Keypair {
    /// The secret half.
    pub secret: SecretKey,
    /// The public half.
    pub public: PublicKey,
}

impl Keypair {
    /// Generates a fresh random keypair (comb-table keygen).
    pub fn generate<R: RngCore + CryptoRng>(rng: &mut R) -> Keypair {
        let secret = SecretKey::generate(rng);
        let public = secret.public_key();
        Keypair { secret, public }
    }
}

/// A precomputed Diffie-Hellman accelerator for one long-lived public
/// key: `DhTable::new(pk)` builds an Edwards comb table once, after which
/// [`DhTable::diffie_hellman`] computes `sk · pk` ~3–6× faster than the
/// ladder, bit-identically. Mix servers keep one per downstream server so
/// cover-traffic wrapping (a fresh ephemeral scalar against the same
/// server keys, thousands of times per round) runs at comb speed.
///
/// Construction returns `None` for u-coordinates on the curve's
/// quadratic twist (the Edwards form cannot represent them); callers fall
/// back to [`SecretKey::diffie_hellman`], which handles both.
pub struct DhTable {
    inner: PointTable,
}

impl DhTable {
    /// Builds the table (≈1 ms; amortized over a key's lifetime).
    #[must_use]
    pub fn new(pk: &PublicKey) -> Option<DhTable> {
        PointTable::new(&pk.0).map(|inner| DhTable { inner })
    }

    /// `sk · pk`, bit-identical to [`SecretKey::diffie_hellman`] with the
    /// key this table was built from.
    #[must_use]
    pub fn diffie_hellman(&self, sk: &SecretKey) -> SharedSecret {
        SharedSecret(self.inner.scalarmult_u(&clamp(sk.0)))
    }
}

/// Clamps a scalar per RFC 7748 §5: clear the low 3 bits, clear bit 255,
/// set bit 254.
#[must_use]
fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// Fixed-base X25519: computes `X25519(scalar, 9)` (public-key
/// derivation / ephemeral keygen) via the precomputed Edwards comb table
/// in the `edwards` module — ~3× fewer field multiplications than running
/// the general [`x25519`] ladder against the base point. Bit-identical
/// results to `x25519(scalar, &BASE_POINT)`.
#[must_use]
pub fn x25519_base(scalar: &[u8; 32]) -> [u8; 32] {
    crate::edwards::scalarmult_base_u(&clamp(*scalar))
}

/// The X25519 function: scalar multiplication on the Montgomery curve,
/// implemented with the RFC 7748 ladder.
#[must_use]
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let pending = ladder(&clamp(*scalar), u);
    let mut out = [[0u8; 32]];
    resolve_batch_into(&[pending], &mut out);
    out[0]
}

/// Variable-base multiplications with every inversion deferred:
/// `pending[i]` becomes `X25519(scalar, u)` for `lane(i) = (scalar, u)`;
/// resolve with [`resolve_batch_into`]. This is the one place a ladder
/// kernel is chosen, by CPU detection alone — the onion peeler (every
/// lane the server's one secret, the points whatever arrived) and
/// [`x25519_batch`] both come through it:
///
/// * with an [`Ifma`] token, eight lanes step [`ladder8`] in lockstep
///   ([`in_octets`]);
/// * otherwise each lane takes the scalar [`ladder`], the one behind
///   [`x25519`].
///
/// Byte-identical to [`x25519`] lane by lane on both arms.
pub(crate) fn x25519_ladder_pending<'a>(
    lane: impl Fn(usize) -> (&'a [u8; 32], &'a [u8; 32]),
    pending: &mut [PendingU],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(ifma) = Ifma::detect() {
        return in_octets(lane, pending, |lanes| {
            let clamped = lanes.map(|(scalar, _)| clamp(*scalar));
            ladder8_on(
                ifma,
                core::array::from_fn(|l| &clamped[l]),
                lanes.map(|(_, u)| u),
            )
        });
    }
    for (i, out) in pending.iter_mut().enumerate() {
        let (scalar, u) = lane(i);
        *out = ladder(&clamp(*scalar), u);
    }
}

/// Fixed-base multiplications with every inversion deferred:
/// `pending[i]` becomes `X25519(scalar, P)` for
/// `lane(i) = (scalar, table)`, `P` the key `table` was built from or,
/// where it is `None`, the base point u = 9 — computed not by a ladder
/// but by a walk over the Edwards comb tables (64 mixed additions a
/// lane against a ladder's 255 steps). This is the one place a comb
/// kernel is chosen, by CPU detection alone — the onion wrapper (each
/// layer's ephemeral secret against `None` and against its server's
/// table) and [`x25519_base_batch`] both come through it:
///
/// * with an [`Ifma`] token, eight lanes walk their tables in lockstep
///   ([`crate::edwards::scalarmult_pending_oct`], [`in_octets`]),
///   sharing neither scalar nor table;
/// * otherwise each lane walks its table alone
///   ([`PointTable::scalarmult_pending`]), the walk behind
///   [`x25519_base`] and [`DhTable::diffie_hellman`].
pub(crate) fn x25519_comb_pending<'a>(
    lane: impl Fn(usize) -> (&'a [u8; 32], Option<&'a DhTable>),
    pending: &mut [PendingU],
) {
    let base = PointTable::base();
    let rows = |table: Option<&'a DhTable>| table.map_or(base, |table| &table.inner);
    #[cfg(target_arch = "x86_64")]
    if let Some(ifma) = Ifma::detect() {
        return in_octets(lane, pending, |lanes| {
            let clamped = lanes.map(|(scalar, _)| clamp(*scalar));
            crate::edwards::scalarmult_pending_oct(
                ifma,
                lanes.map(|(_, table)| rows(table)),
                core::array::from_fn(|l| &clamped[l]),
            )
        });
    }
    for (i, out) in pending.iter_mut().enumerate() {
        let (scalar, table) = lane(i);
        *out = rows(table).scalarmult_pending(&clamp(*scalar));
    }
}

/// The lane order of both eight-wide arms: `kernel` takes `lane(i)` for
/// eight consecutive `i` and fills their `pending`; a partial last
/// octet repeats its last lane and drops the spares.
#[cfg(target_arch = "x86_64")]
fn in_octets<T: Copy>(
    lane: impl Fn(usize) -> T,
    pending: &mut [PendingU],
    kernel: impl Fn([T; fe8::LANES]) -> [PendingU; fe8::LANES],
) {
    for (oct, out) in pending.chunks_mut(fe8::LANES).enumerate() {
        let last = oct * fe8::LANES + out.len() - 1;
        let points = kernel(core::array::from_fn(|l| {
            lane((oct * fe8::LANES + l).min(last))
        }));
        out.copy_from_slice(&points[..out.len()]);
    }
}

/// `n` u-coordinates, resolved one group of [`MAX_RESOLVE_BATCH`] to an
/// inversion: `fill(start, pending)` computes those of the group that
/// starts at `start`.
fn resolved_in_groups(n: usize, fill: impl Fn(usize, &mut [PendingU])) -> Vec<[u8; 32]> {
    let mut out = vec![[0u8; 32]; n];
    for (g, out) in out.chunks_mut(MAX_RESOLVE_BATCH).enumerate() {
        let mut pending = [PendingU::PLACEHOLDER; MAX_RESOLVE_BATCH];
        let pending = &mut pending[..out.len()];
        fill(g * MAX_RESOLVE_BATCH, pending);
        resolve_batch_into(pending, out);
    }
    out
}

/// Batched keygen, bit-identical to [`x25519_base`] element-wise: the
/// eight-wide comb on AVX-512 IFMA CPUs, the scalar one elsewhere
/// (`x25519_comb_pending`), `MAX_RESOLVE_BATCH` keys to an
/// inversion on both.
#[must_use]
pub fn x25519_base_batch(scalars: &[[u8; 32]]) -> Vec<[u8; 32]> {
    resolved_in_groups(scalars.len(), |at, pending| {
        x25519_comb_pending(|i| (&scalars[at + i], None), pending);
    })
}

/// Which kernel the batched paths run on this machine:
/// `"avx512-ifma x8"` when the CPU has AVX-512F and IFMA — the onion
/// peeler ([`crate::onion::peel_chunk_in_place`]) and [`x25519_batch`]
/// then step eight ladders in lockstep and the onion wrapper
/// ([`crate::onion::wrap_chunk_in_place`]) and [`x25519_base_batch`]
/// walk eight comb tables in lockstep — `"portable"` otherwise: the
/// scalar ladder and the scalar comb walk, one multiplication at a
/// time, which are also the oracle the eight-wide kernels are tested
/// against. The choice is made by CPU detection alone; binaries print
/// this once at start-up so a log says which kernel produced its
/// numbers.
#[must_use]
pub fn ladder_backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if Ifma::detect().is_some() {
        return "avx512-ifma x8";
    }
    "portable"
}

/// Batched X25519: computes `X25519(scalars[i], us[i])` for parallel
/// slices of scalars and u-coordinates — eight Montgomery ladders in
/// lockstep on AVX-512 IFMA CPUs, the scalar ladder elsewhere
/// (`x25519_ladder_pending`) — sharing the final field inversions
/// across sub-batches of `MAX_RESOLVE_BATCH` via Montgomery's trick
/// on both. Bit-identical to calling [`x25519`] element-wise —
/// low-order inputs yield the all-zero output in their lane without
/// disturbing the rest of the batch.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn x25519_batch(scalars: &[[u8; 32]], us: &[[u8; 32]]) -> Vec<[u8; 32]> {
    assert_eq!(scalars.len(), us.len(), "parallel slices must match");
    resolved_in_groups(scalars.len(), |at, pending| {
        x25519_ladder_pending(|i| (&scalars[at + i], &us[at + i]), pending);
    })
}

/// The one place safe code enters the AVX-512 IFMA ladder.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn ladder8_on(
    _ifma: Ifma,
    ks: [&[u8; 32]; fe8::LANES],
    us: [&[u8; 32]; fe8::LANES],
) -> [PendingU; fe8::LANES] {
    // SAFETY: `ladder8` needs a CPU with avx512f and avx512ifma, and an
    // `Ifma` can only be built by `Ifma::detect`, which found both.
    unsafe { ladder8(ks, us) }
}

/// The RFC 7748 Montgomery ladder stepped **eight-wide** on AVX-512
/// IFMA: the scalar [`ladder`] formula for formula and swap for swap,
/// over [`Fe8`] (whose operations each end carried, see
/// [`crate::fe8`]), with the conditional swap a per-lane `__mmask8`
/// blend. The `(x2, z2)` endpoints leave as [`PendingU`]s exactly like
/// the scalar ladder's, so callers batch the inversions the same way.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512ifma")]
fn ladder8(ks: [&[u8; 32]; fe8::LANES], us: [&[u8; 32]; fe8::LANES]) -> [PendingU; fe8::LANES] {
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn step(swap: u8, x1: &Fe8, x2: &mut Fe8, z2: &mut Fe8, x3: &mut Fe8, z3: &mut Fe8) {
        Fe8::cswap(swap, x2, x3);
        Fe8::cswap(swap, z2, z3);

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        *x3 = da.add(&cb).square();
        *z3 = x1.mul(&da.sub(&cb).square());
        *x2 = aa.mul(&bb);
        *z2 = e.mul(&e.mul_small_add(121_665, &aa));
    }

    let x1 = Fe8::from_fes(&core::array::from_fn(|l| Fe::from_bytes(us[l])));

    let mut x2 = Fe8::splat(Fe::ONE);
    let mut z2 = Fe8::splat(Fe::ZERO);
    let mut x3 = x1;
    let mut z3 = Fe8::splat(Fe::ONE);
    let mut swap = 0u8;

    for t in (0..255).rev() {
        let mut k_t = 0u8;
        for (lane, k) in ks.iter().enumerate() {
            k_t |= ((k[t / 8] >> (t % 8)) & 1) << lane;
        }
        step(swap ^ k_t, &x1, &mut x2, &mut z2, &mut x3, &mut z3);
        swap = k_t;
    }
    Fe8::cswap(swap, &mut x2, &mut x3);
    Fe8::cswap(swap, &mut z2, &mut z3);

    let (nums, dens) = (x2.to_fes(), z2.to_fes());
    core::array::from_fn(|l| PendingU::from_ratio(nums[l], dens[l]))
}

/// The raw RFC 7748 Montgomery ladder, stopping before the final
/// `x2 · z2⁻¹` inversion. A low-order input leaves `z2 = 0`, which the
/// batch resolver maps to the all-zero output exactly as
/// `Fe::invert(0) == 0` does on the immediate path.
fn ladder(k: &[u8; 32], u: &[u8; 32]) -> PendingU {
    let x1 = Fe::from_bytes(u);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121_665)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);

    PendingU::from_ratio(x2, z2)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `check` on each arm of the two dispatches
    /// ([`x25519_ladder_pending`], [`x25519_comb_pending`]) through
    /// whatever public entry it calls: first with this thread pinned to
    /// the scalar ladder and the scalar comb, then — where the CPU has
    /// AVX-512 IFMA, else a SKIPPED line — on the eight-wide kernels.
    pub(crate) fn on_each_arm(test: &'static str, check: impl Fn()) {
        #[cfg(target_arch = "x86_64")]
        {
            struct Release;
            impl Drop for Release {
                fn drop(&mut self) {
                    fe8::PORTABLE_ONLY.set(false);
                }
            }
            let _release = Release;
            fe8::PORTABLE_ONLY.set(true);
            assert_eq!(ladder_backend(), "portable");
            check();
        }
        #[cfg(not(target_arch = "x86_64"))]
        check();
        if ladder_backend() == "avx512-ifma x8" {
            check();
        } else {
            crate::skipped_once(
                test,
                "avx512f+avx512ifma",
                "the eight-wide kernels were not exercised",
            );
        }
    }

    fn hex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("valid hex");
        }
        out
    }

    /// The two RFC 7748 §5.2 vectors as `(scalar, u, output)`, for the
    /// tests that plant them in lanes of a batch.
    fn rfc7748_vectors() -> [([u8; 32], [u8; 32], [u8; 32]); 2] {
        [
            (
                hex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
                hex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
                hex32("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"),
            ),
            (
                hex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"),
                hex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"),
                hex32("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"),
            ),
        ]
    }

    /// RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector_1() {
        let scalar = hex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = hex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let want = hex32("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
        assert_eq!(x25519(&scalar, &u), want);
    }

    /// RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector_2() {
        let scalar = hex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = hex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let want = hex32("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
        assert_eq!(x25519(&scalar, &u), want);
    }

    /// RFC 7748 §5.2 iterated ladder, 1 iteration.
    #[test]
    fn rfc7748_iterated_once() {
        let k = BASE_POINT;
        let u = BASE_POINT;
        let want = hex32("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
        assert_eq!(x25519(&k, &u), want);
    }

    /// RFC 7748 §5.2 iterated ladder, 1000 iterations (slow-ish; still
    /// comfortably fast at opt-level >= 1).
    #[test]
    fn rfc7748_iterated_1000() {
        let mut k = BASE_POINT;
        let mut u = BASE_POINT;
        for _ in 0..1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        let want = hex32("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
        assert_eq!(k, want);
    }

    /// RFC 7748 §6.1 Diffie-Hellman test vectors (Alice/Bob).
    #[test]
    fn rfc7748_dh_alice_bob() {
        let alice_sk = SecretKey::from_bytes(hex32(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        ));
        let bob_sk = SecretKey::from_bytes(hex32(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        ));
        let alice_pk = alice_sk.public_key();
        let bob_pk = bob_sk.public_key();
        assert_eq!(
            alice_pk.0,
            hex32("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a")
        );
        assert_eq!(
            bob_pk.0,
            hex32("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f")
        );
        let k1 = alice_sk.diffie_hellman(&bob_pk);
        let k2 = bob_sk.diffie_hellman(&alice_pk);
        let want = hex32("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
        assert_eq!(k1.0, want);
        assert_eq!(k2.0, want);
    }

    #[test]
    fn dh_is_commutative_for_random_keys() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..8 {
            let a = Keypair::generate(&mut rng);
            let b = Keypair::generate(&mut rng);
            assert_eq!(
                a.secret.diffie_hellman(&b.public).0,
                b.secret.diffie_hellman(&a.public).0
            );
        }
    }

    #[test]
    fn low_order_point_yields_zero_secret() {
        let sk = SecretKey::from_bytes([0x42; 32]);
        let zero_point = PublicKey::from_bytes([0u8; 32]);
        assert_eq!(sk.diffie_hellman(&zero_point).0, [0u8; 32]);
    }

    /// `n` random `(scalar, u)` pairs.
    fn random_pairs(rng: &mut StdRng, n: usize) -> (Vec<[u8; 32]>, Vec<[u8; 32]>) {
        let mut scalars = vec![[0u8; 32]; n];
        let mut us = vec![[0u8; 32]; n];
        for i in 0..n {
            rng.fill_bytes(&mut scalars[i]);
            rng.fill_bytes(&mut us[i]);
        }
        (scalars, us)
    }

    #[test]
    fn batch_matches_scalar_across_sizes_and_tails() {
        // Sizes 0..=9: an empty batch, a padded single octet, a full
        // one, one lane over; every output must equal the scalar
        // ladder's, on each arm.
        let mut rng = StdRng::seed_from_u64(11);
        for n in 0usize..=9 {
            let (scalars, us) = random_pairs(&mut rng, n);
            let want: Vec<[u8; 32]> = scalars.iter().zip(&us).map(|(k, u)| x25519(k, u)).collect();
            on_each_arm("batch_matches_scalar_across_sizes_and_tails", || {
                assert_eq!(x25519_batch(&scalars, &us), want, "n {n}");
            });
        }
    }

    #[test]
    fn batch_lanes_carry_rfc7748_vectors() {
        // The two RFC 7748 §5.2 vectors placed in every lane position of
        // a batch of four, padded with random pairs.
        let [(s1, u1, w1), (s2, u2, w2)] = rfc7748_vectors();
        let mut rng = StdRng::seed_from_u64(12);
        for position in 0..4 {
            let (mut scalars, mut us) = random_pairs(&mut rng, 4);
            scalars[position] = s1;
            us[position] = u1;
            scalars[(position + 2) % 4] = s2;
            us[(position + 2) % 4] = u2;
            on_each_arm("batch_lanes_carry_rfc7748_vectors", || {
                let batch = x25519_batch(&scalars, &us);
                assert_eq!(batch[position], w1, "vector 1 in lane {position}");
                assert_eq!(batch[(position + 2) % 4], w2, "vector 2 in lane {position}");
            });
        }
    }

    #[test]
    fn batch_low_order_lanes_resolve_to_zero() {
        // Low-order u-coordinates (0 and 1) must produce the all-zero
        // secret in their lane — including an all-low-order batch, the
        // inverse-of-zero edge the shared batch inversion must survive —
        // without corrupting honest lanes.
        let mut rng = StdRng::seed_from_u64(13);
        let (scalars, mut us) = random_pairs(&mut rng, 6);
        us[1] = [0u8; 32]; // the identity
        us[3] = {
            let mut u = [0u8; 32];
            u[0] = 1; // order-4 point
            u
        };
        on_each_arm("batch_low_order_lanes_resolve_to_zero", || {
            let batch = x25519_batch(&scalars, &us);
            for i in 0..6 {
                assert_eq!(batch[i], x25519(&scalars[i], &us[i]), "lane {i}");
            }
            assert_eq!(batch[1], [0u8; 32]);
            assert_eq!(batch[3], [0u8; 32]);

            let zeros = vec![[0u8; 32]; 4];
            let all_low = x25519_batch(&scalars[..4], &zeros);
            assert_eq!(all_low, vec![[0u8; 32]; 4], "all-low-order batch");
        });
    }

    /// Eight `(scalar, u)` pairs straight through the eight-wide
    /// ladder, resolved; `None` (and a SKIPPED line) without IFMA.
    #[cfg(target_arch = "x86_64")]
    fn x25519_oct(
        test: &'static str,
        scalars: &[[u8; 32]; 8],
        us: &[[u8; 32]; 8],
    ) -> Option<[[u8; 32]; 8]> {
        let ifma = fe8::ifma_or_skip(test)?;
        let clamped = scalars.map(clamp);
        let pending = ladder8_on(
            ifma,
            core::array::from_fn(|l| &clamped[l]),
            core::array::from_fn(|l| &us[l]),
        );
        let mut out = [[0u8; 32]; 8];
        resolve_batch_into(&pending, &mut out);
        Some(out)
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn oct_lanes_carry_rfc7748_vectors() {
        // The two RFC 7748 §5.2 vectors in every lane position of one
        // octet, the other six lanes random.
        let [(s1, u1, w1), (s2, u2, w2)] = rfc7748_vectors();
        let mut rng = StdRng::seed_from_u64(21);
        for position in 0..8 {
            let mut scalars = [[0u8; 32]; 8];
            let mut us = [[0u8; 32]; 8];
            for i in 0..8 {
                rng.fill_bytes(&mut scalars[i]);
                rng.fill_bytes(&mut us[i]);
            }
            let other = (position + 3) % 8;
            (scalars[position], us[position]) = (s1, u1);
            (scalars[other], us[other]) = (s2, u2);
            let Some(out) = x25519_oct("oct_lanes_carry_rfc7748_vectors", &scalars, &us) else {
                return;
            };
            assert_eq!(out[position], w1, "vector 1 in lane {position}");
            assert_eq!(out[other], w2, "vector 2 in lane {other}");
            for i in 0..8 {
                assert_eq!(out[i], x25519(&scalars[i], &us[i]), "lane {i}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn oct_rfc7748_iterated_1000() {
        // RFC 7748 §5.2's iterated vector, every iteration through the
        // eight-wide ladder with the pair in all eight lanes.
        let mut k = BASE_POINT;
        let mut u = BASE_POINT;
        for i in 0..1000 {
            let Some(out) = x25519_oct("oct_rfc7748_iterated_1000", &[k; 8], &[u; 8]) else {
                return;
            };
            assert!(
                out.iter().all(|r| *r == out[0]),
                "iteration {i}: lanes differ"
            );
            u = k;
            k = out[0];
            if i == 0 {
                let once = "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079";
                assert_eq!(k, hex32(once));
            }
        }
        let want = hex32("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
        assert_eq!(k, want);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn oct_low_order_and_twist_lanes() {
        // Every low-order u-coordinate (canonical and not) and points on
        // the quadratic twist, one per octet and in a different lane
        // each time, beside honest points: a low-order lane resolves to
        // zero, alone, and every lane equals the scalar ladder.
        let low_order = [
            [0u8; 32],
            hex32("0100000000000000000000000000000000000000000000000000000000000000"),
            hex32("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
            hex32("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
            hex32("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // p − 1
            hex32("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // p
            hex32("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // p + 1
            hex32("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"), // p, bit 255 set
            hex32("0000000000000000000000000000000000000000000000000000000000000080"), // 2^255
        ];
        let mut rng = StdRng::seed_from_u64(22);
        let mut twist = Vec::new();
        while twist.len() < 4 {
            let mut u = [0u8; 32];
            rng.fill_bytes(&mut u);
            // The Edwards table cannot represent twist points.
            if DhTable::new(&PublicKey(u)).is_none() {
                twist.push(u);
            }
        }
        let mut scalars = [[0u8; 32]; 8];
        for k in &mut scalars {
            rng.fill_bytes(k);
        }
        let special = low_order.iter().map(|u| (u, true));
        for (case, (point, is_low_order)) in
            special.chain(twist.iter().map(|u| (u, false))).enumerate()
        {
            let lane = case % 8;
            let mut us: [[u8; 32]; 8] =
                core::array::from_fn(|_| Keypair::generate(&mut rng).public.0);
            us[lane] = *point;
            us[(lane + 1) % 8] = twist[case % 4];
            let Some(out) = x25519_oct("oct_low_order_and_twist_lanes", &scalars, &us) else {
                return;
            };
            for i in 0..8 {
                assert_eq!(out[i], x25519(&scalars[i], &us[i]), "case {case} lane {i}");
                let expect_zero = i == lane && is_low_order;
                assert_eq!(out[i] == [0u8; 32], expect_zero, "case {case} lane {i}");
            }
        }
        // An octet of nothing but low-order points: every shared
        // inversion input is zero at once.
        let all_low: [[u8; 32]; 8] = core::array::from_fn(|l| low_order[l]);
        if let Some(out) = x25519_oct("oct_low_order_and_twist_lanes", &scalars, &all_low) {
            assert_eq!(out, [[0u8; 32]; 8]);
        }
    }

    #[test]
    fn batch_matches_scalar_around_octet_boundaries() {
        // Lengths around one, two and four octets (and the resolver's
        // batch of 32): on the eight-wide arm these are the
        // padded-last-octet cases, on both the partial resolver group.
        let mut rng = StdRng::seed_from_u64(23);
        for n in [7usize, 8, 9, 15, 16, 17, 31, 32, 33, 41] {
            let (scalars, mut us) = random_pairs(&mut rng, n);
            us[n - 1] = [0u8; 32]; // the repeated padding point is low-order
            let want: Vec<[u8; 32]> = scalars.iter().zip(&us).map(|(k, u)| x25519(k, u)).collect();
            on_each_arm("batch_matches_scalar_around_octet_boundaries", || {
                assert_eq!(x25519_batch(&scalars, &us), want, "n {n}");
            });
        }
    }

    #[test]
    fn base_batch_matches_x25519_base_on_both_arms() {
        // Sizes on and off the octet and the 32-key resolver group.
        let mut rng = StdRng::seed_from_u64(0xBA5E);
        for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 70] {
            let (scalars, _) = random_pairs(&mut rng, n);
            let want: Vec<[u8; 32]> = scalars.iter().map(x25519_base).collect();
            on_each_arm("base_batch_matches_x25519_base_on_both_arms", || {
                assert_eq!(x25519_base_batch(&scalars), want, "n = {n}");
            });
        }
    }

    #[test]
    fn ladder_backend_names_the_detected_kernel() {
        #[cfg(target_arch = "x86_64")]
        let oct = Ifma::detect().is_some();
        #[cfg(not(target_arch = "x86_64"))]
        let oct = false;
        // CI runs this test with --nocapture to log what it covered.
        println!("x25519 ladder backend: {}", ladder_backend());
        let detected = if oct { "avx512-ifma x8" } else { "portable" };
        assert_eq!(ladder_backend(), detected);
        // The pin turns the name with the kernels, for its pass only.
        let passes = std::cell::RefCell::new(Vec::new());
        on_each_arm("ladder_backend_names_the_detected_kernel", || {
            passes.borrow_mut().push(ladder_backend());
        });
        let want: &[&str] = if oct {
            &["portable", "avx512-ifma x8"]
        } else {
            &["portable"]
        };
        assert_eq!(passes.into_inner(), want);
        assert_eq!(ladder_backend(), detected);
    }

    #[test]
    fn secret_key_debug_redacts() {
        let sk = SecretKey::from_bytes([0xAA; 32]);
        let dbg = format!("{sk:?}");
        assert!(!dbg.contains("aa"), "secret bytes must not leak via Debug");
    }
}
