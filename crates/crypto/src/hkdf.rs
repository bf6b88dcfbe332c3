//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//!
//! Raw X25519 outputs are never used directly as cipher keys; every shared
//! secret is expanded through HKDF with a domain-separation label (one for
//! onion layers, one for end-to-end payloads, one for dead-drop IDs), so a
//! transcript captured in one role is useless in another.

use crate::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// HMAC-SHA256 of `data` under `key` (any key length).
#[must_use]
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut hm = HmacSha256::new(key);
    hm.update(data);
    hm.finalize()
}

/// Incremental HMAC-SHA256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Initialises HMAC with an arbitrary-length key.
    #[must_use]
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            opad_key: opad,
        }
    }

    /// Feeds message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte MAC.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// HKDF-Extract: PRK = HMAC(salt, ikm).
#[must_use]
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: derives `okm.len()` bytes from a PRK and an info string.
///
/// # Panics
///
/// Panics if more than `255 * 32` bytes are requested (RFC 5869 limit);
/// Vuvuzela never derives more than 64 bytes at a time.
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], okm: &mut [u8]) {
    assert!(okm.len() <= 255 * DIGEST_LEN, "HKDF-Expand output too long");
    // T(0) is empty; afterwards T(i) is the previous block. Fixed buffer:
    // this runs once per onion layer, so it must not allocate.
    let mut t = [0u8; DIGEST_LEN];
    let mut t_len = 0usize;
    let mut counter = 1u8;
    let mut written = 0;
    while written < okm.len() {
        let mut hm = HmacSha256::new(prk);
        hm.update(&t[..t_len]);
        hm.update(info);
        hm.update(&[counter]);
        let block = hm.finalize();
        let take = (okm.len() - written).min(DIGEST_LEN);
        okm[written..written + take].copy_from_slice(&block[..take]);
        written += take;
        t = block;
        t_len = DIGEST_LEN;
        counter = counter.wrapping_add(1);
    }
}

/// One-call HKDF (extract + expand) producing a 32-byte key.
#[must_use]
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; 32] {
    let prk = hkdf_extract(salt, ikm);
    let mut okm = [0u8; 32];
    hkdf_expand(&prk, info, &mut okm);
    okm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::{hex, on_each_arm};

    /// RFC 4231 test case 1.
    #[test]
    fn hmac_rfc4231_case1() {
        on_each_arm("hmac_rfc4231_case1", || {
            let key = [0x0bu8; 20];
            let want = hex("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
            assert_eq!(&hmac_sha256(&key, b"Hi There")[..], &want[..]);
        });
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn hmac_rfc4231_case2() {
        on_each_arm("hmac_rfc4231_case2", || {
            let want = hex("5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
            assert_eq!(
                &hmac_sha256(b"Jefe", b"what do ya want for nothing?")[..],
                &want[..]
            );
        });
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn hmac_rfc4231_case3() {
        on_each_arm("hmac_rfc4231_case3", || {
            let key = [0xaau8; 20];
            let data = [0xddu8; 50];
            let want = hex("773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
            assert_eq!(&hmac_sha256(&key, &data)[..], &want[..]);
        });
    }

    /// RFC 4231 test case 6: key longer than one block.
    #[test]
    fn hmac_rfc4231_long_key() {
        on_each_arm("hmac_rfc4231_long_key", || {
            let key = [0xaau8; 131];
            let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
            let want = hex("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
            assert_eq!(&hmac_sha256(&key, data)[..], &want[..]);
        });
    }

    /// RFC 5869 test case 1.
    #[test]
    fn hkdf_rfc5869_case1() {
        on_each_arm("hkdf_rfc5869_case1", || {
            let ikm = [0x0bu8; 22];
            let salt = hex("000102030405060708090a0b0c");
            let info = hex("f0f1f2f3f4f5f6f7f8f9");
            let prk = hkdf_extract(&salt, &ikm);
            let want_prk = hex("077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
            assert_eq!(&prk[..], &want_prk[..]);

            let mut okm = [0u8; 42];
            hkdf_expand(&prk, &info, &mut okm);
            let want_okm = hex(
                "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
                 34007208d5b887185865",
            );
            assert_eq!(&okm[..], &want_okm[..]);
        });
    }

    /// RFC 5869 test case 3 (zero-length salt and info).
    #[test]
    fn hkdf_rfc5869_case3() {
        on_each_arm("hkdf_rfc5869_case3", || {
            let ikm = [0x0bu8; 22];
            let prk = hkdf_extract(b"", &ikm);
            let mut okm = [0u8; 42];
            hkdf_expand(&prk, b"", &mut okm);
            let want = hex(
                "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
                 9d201395faa4b61a96c8",
            );
            assert_eq!(&okm[..], &want[..]);
        });
    }

    #[test]
    fn incremental_hmac_matches_oneshot() {
        let key = b"some key";
        let data: Vec<u8> = (0..200u8).collect();
        let oneshot = hmac_sha256(key, &data);
        let mut hm = HmacSha256::new(key);
        for piece in data.chunks(13) {
            hm.update(piece);
        }
        assert_eq!(hm.finalize(), oneshot);
    }

    #[test]
    fn hkdf_labels_separate_domains() {
        let ikm = [0x77u8; 32];
        assert_ne!(hkdf(b"", &ikm, b"label-a"), hkdf(b"", &ikm, b"label-b"));
    }
}
