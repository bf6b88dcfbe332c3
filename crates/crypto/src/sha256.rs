//! SHA-256 (FIPS 180-4).
//!
//! Vuvuzela uses SHA-256 to derive conversation dead-drop IDs
//! (`H(shared_secret, round)`, paper Algorithm 1 step 1a), to map long-term
//! public keys to invitation dead drops (`H(pk) mod m`, paper §5.1), and as
//! the compression function behind HMAC/HKDF — eight compressions per
//! onion layer key, which is why the compression function has two arms.
//!
//! # The two compression functions
//!
//! `compress_portable` is FIPS 180-4 §6.2.2 in plain Rust and runs
//! everywhere. On x86-64 CPUs with the SHA extensions
//! (`grep -o -m1 sha_ni /proc/cpuinfo`; every AVX-512 IFMA part and
//! every AMD Zen has them) `compress_sha_ni` does the same 64 rounds two
//! per `sha256rnds2`, about four times faster. Which one runs is decided
//! per call by CPU detection alone — no environment variable, cargo
//! feature, config field or flag — reported by [`backend`], and changes
//! no digest: the property test at the bottom pins the two arms word for
//! word, and the FIPS / RFC vectors here and in [`crate::hkdf`] run
//! through each arm by name.
//!
//! # `unsafe` in this module
//!
//! One block: *calling* a `#[target_feature]` function from code
//! compiled without the feature, in `compress_on`. It is made checkable
//! the way `fe8`'s `Ifma` does it: `ShaNi` is a zero-sized
//! token whose only constructor is the CPUID check, so code holding one
//! may enter the kernel. The kernel itself is safe Rust over value
//! intrinsics; no pointer is dereferenced.

/// SHA-256 digest length in bytes.
pub const DIGEST_LEN: usize = 32;
/// SHA-256 block length in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Proof that the running CPU has the SHA extensions (and the SSSE3 /
/// SSE4.1 shuffles the kernel leans on). The only way to obtain one is
/// [`ShaNi::detect`], so a function that takes a `ShaNi` may call into
/// `#[target_feature(enable = "sha,ssse3,sse4.1")]` code.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct ShaNi(());

#[cfg(target_arch = "x86_64")]
impl ShaNi {
    /// Checks the CPU (std caches the CPUID result; this is one atomic
    /// load). Under `cfg(test)` a thread inside `tests::on_each_arm`'s
    /// portable pass is told there are no SHA extensions.
    fn detect() -> Option<ShaNi> {
        #[cfg(test)]
        if tests::PORTABLE_ONLY.get() {
            return None;
        }
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(ShaNi(()))
    }
}

/// Which compression function this machine's hashes run through:
/// `"sha-ni"` when the CPU has the x86 SHA extensions (two rounds per
/// `sha256rnds2`), `"portable"` otherwise. The choice is made by CPU
/// detection alone and changes no digest; binaries print it at
/// start-up next to [`crate::x25519::ladder_backend`].
#[must_use]
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if ShaNi::detect().is_some() {
        return "sha-ni";
    }
    "portable"
}

/// The SHA-256 compression function: folds one block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(sha) = ShaNi::detect() {
        return compress_on(sha, state, block);
    }
    compress_portable(state, block);
}

/// FIPS 180-4 §6.2.2 as written: the fallback, and the oracle the
/// SHA-NI arm is tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// The one place safe code enters the SHA-NI kernel.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn compress_on(_sha: ShaNi, state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    // SAFETY: `compress_sha_ni` needs a CPU with sha, ssse3 and sse4.1,
    // and a `ShaNi` can only be built by `ShaNi::detect`, which found
    // all three.
    unsafe { compress_sha_ni(state, block) }
}

/// The compression function over `sha256rnds2` (two rounds per
/// instruction, so sixteen groups of four rounds) with the message
/// schedule from `sha256msg1` / `sha256msg2`. Value intrinsics only:
/// the state and the message words enter through `_mm_set_epi32` and
/// leave through `_mm_extract_epi32`, no pointer is dereferenced.
///
/// Register layout is the instructions' own: `abef` and `cdgh` hold
/// the working variables with `a` (resp. `c`) in the top lane, and a
/// message vector holds `W[4g] … W[4g+3]` with `W[4g]` in lane 0.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    let set = |w3: u32, w2: u32, w1: u32, w0: u32| {
        _mm_set_epi32(
            w3.cast_signed(),
            w2.cast_signed(),
            w1.cast_signed(),
            w0.cast_signed(),
        )
    };

    let [a, b, c, d, e, f, g, h] = *state;
    let abef_in = set(a, b, e, f);
    let cdgh_in = set(c, d, g, h);
    let (mut abef, mut cdgh) = (abef_in, cdgh_in);

    let words = block.as_chunks::<4>().0;
    let be = |i: usize| u32::from_be_bytes(words[i]);
    let mut w: [__m128i; 4] =
        core::array::from_fn(|g| set(be(4 * g + 3), be(4 * g + 2), be(4 * g + 1), be(4 * g)));

    for g in 0..16 {
        if g >= 4 {
            // W[g] = msg2(msg1(W[g-4], W[g-3]) + (W[g-2] ‖ W[g-1] shifted
            // one word), W[g-1]); vector `W[j]` lives in `w[j % 4]`.
            let sigma0 = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
            let w_minus_7 = _mm_alignr_epi8::<4>(w[(g + 3) % 4], w[(g + 2) % 4]);
            w[g % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), w[(g + 3) % 4]);
        }
        let wk = _mm_add_epi32(
            w[g % 4],
            set(K[4 * g + 3], K[4 * g + 2], K[4 * g + 1], K[4 * g]),
        );
        // Two rounds from the low half of `wk`, two from the high half;
        // the roles of the two state registers alternate.
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(i32::cast_unsigned);
}

/// Incremental SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    #[must_use]
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<BLOCK_LEN>() {
            compress(&mut self.state, block);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, 8-byte big-endian bit length — in this
        // block when the length still fits behind the 0x80, else in a
        // second one.
        const LEN_AT: usize = BLOCK_LEN - 8;
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= LEN_AT {
            compress(&mut self.state, &self.buf);
            self.buf = [0; BLOCK_LEN];
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[LEN_AT..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);

        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        out
    }
}

/// One-shot SHA-256.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Set while [`on_each_arm`] runs its portable pass on this
        /// thread; [`ShaNi::detect`] then reports no SHA extensions.
        pub(super) static PORTABLE_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `check` through each compression arm by name: first with
    /// this thread pinned to [`compress_portable`], then — where the
    /// CPU has the SHA extensions, else a SKIPPED line — through the
    /// SHA-NI kernel.
    pub(crate) fn on_each_arm(test: &'static str, check: impl Fn()) {
        struct Release;
        impl Drop for Release {
            fn drop(&mut self) {
                PORTABLE_ONLY.set(false);
            }
        }
        {
            let _release = Release;
            PORTABLE_ONLY.set(true);
            assert_eq!(backend(), "portable");
            check();
        }
        if backend() == "sha-ni" {
            check();
        } else {
            skipped(test);
        }
    }

    fn skipped(test: &'static str) {
        crate::skipped_once(
            test,
            "sha+ssse3+sse4.1",
            "the SHA-NI compression was not exercised",
        );
    }

    /// What the SHA-NI-against-portable tests start with: the token,
    /// or `None` and a SKIPPED line on a CPU without the extensions.
    #[cfg(target_arch = "x86_64")]
    fn sha_or_skip(test: &'static str) -> Option<ShaNi> {
        let sha = ShaNi::detect();
        if sha.is_none() {
            skipped(test);
        }
        sha
    }

    pub(crate) fn hex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("valid hex"))
            .collect()
    }

    #[test]
    fn backend_names_the_detected_compression() {
        #[cfg(target_arch = "x86_64")]
        let sha_ni = ShaNi::detect().is_some();
        #[cfg(not(target_arch = "x86_64"))]
        let sha_ni = false;
        // CI runs this test with --nocapture to log what it covered.
        println!("sha256 backend: {}", backend());
        assert_eq!(backend(), if sha_ni { "sha-ni" } else { "portable" });
    }

    #[cfg(target_arch = "x86_64")]
    fn assert_arms_agree(sha: ShaNi, state: [u32; 8], block: &[u8; BLOCK_LEN]) {
        let (mut ni, mut portable) = (state, state);
        compress_on(sha, &mut ni, block);
        compress_portable(&mut portable, block);
        assert_eq!(ni, portable, "state {state:08x?} block {block:02x?}");
    }

    #[cfg(target_arch = "x86_64")]
    proptest! {
        #[test]
        fn sha_ni_compress_matches_portable(
            state in any::<[u8; 32]>(),
            lo in any::<[u8; 32]>(),
            hi in any::<[u8; 32]>(),
        ) {
            let Some(sha) = sha_or_skip("sha_ni_compress_matches_portable") else {
                return Ok(());
            };
            let mut block = [0u8; BLOCK_LEN];
            block[..32].copy_from_slice(&lo);
            block[32..].copy_from_slice(&hi);
            let words = state.as_chunks::<4>().0;
            let state = core::array::from_fn(|i| u32::from_le_bytes(words[i]));
            assert_arms_agree(sha, state, &block);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_ni_compress_matches_portable_on_edge_blocks() {
        let Some(sha) = sha_or_skip("sha_ni_compress_matches_portable_on_edge_blocks") else {
            return;
        };
        // The block `finalize` appends to a 64-byte message.
        let mut padding = [0u8; BLOCK_LEN];
        padding[0] = 0x80;
        padding[BLOCK_LEN - 8..].copy_from_slice(&512u64.to_be_bytes());
        for state in [H0, [0; 8], [u32::MAX; 8]] {
            for block in [[0u8; BLOCK_LEN], [0xFF; BLOCK_LEN], padding] {
                assert_arms_agree(sha, state, &block);
            }
        }
    }

    #[test]
    fn fips_vector_abc() {
        on_each_arm("fips_vector_abc", || {
            let want = hex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
            assert_eq!(&sha256(b"abc")[..], &want[..]);
        });
    }

    #[test]
    fn fips_vector_empty() {
        on_each_arm("fips_vector_empty", || {
            let want = hex("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
            assert_eq!(&sha256(b"")[..], &want[..]);
        });
    }

    #[test]
    fn fips_vector_two_blocks() {
        on_each_arm("fips_vector_two_blocks", || {
            let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
            let want = hex("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
            assert_eq!(&sha256(msg)[..], &want[..]);
        });
    }

    #[test]
    fn million_a() {
        on_each_arm("million_a", || {
            let mut h = Sha256::new();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            let want = hex("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
            assert_eq!(&h.finalize()[..], &want[..]);
        });
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha256(&data);
        for chunk in [1usize, 7, 55, 56, 63, 64, 65, 128] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn length_padding_boundaries() {
        // Messages of 0x61 bytes around the 1-block/2-block padding
        // edges, against digests frozen from the byte-at-a-time padding
        // `finalize` had before it wrote whole blocks (and `sha256sum`).
        const FROZEN: [(usize, &str); 8] = [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                57,
                "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                65,
                "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
        ];
        on_each_arm("length_padding_boundaries", || {
            for (len, want) in FROZEN {
                let data = vec![0x61u8; len];
                assert_eq!(&sha256(&data)[..], &hex(want)[..], "len {len}");
                // And feeding one byte at a time lands on the same padding.
                let mut h = Sha256::new();
                for b in &data {
                    h.update(core::slice::from_ref(b));
                }
                assert_eq!(&h.finalize()[..], &hex(want)[..], "len {len} bytewise");
            }
        });
    }
}
