//! Local contact key store (paper §5.1 footnote 7, §9 "PKI for dialing").
//!
//! Vuvuzela deliberately has no online PKI: "Looking up this key
//! on-demand over the Internet via some key server would disclose who
//! the user is dialing, so Vuvuzela clients should store public keys for
//! contacts ahead of time" (§9). The client software is expected to use
//! "manually entered out-of-band verified public keys" (§5.1 fn 7).
//!
//! [`KeyStore`] is that component: a petname → public-key map with
//! human-comparable fingerprints for the out-of-band verification step,
//! and a reverse lookup for identifying incoming invitations.

use std::collections::BTreeMap;
use vuvuzela_crypto::sha256::sha256;
use vuvuzela_crypto::x25519::PublicKey;

/// Errors from contact management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyStoreError {
    /// The petname is already bound to a different key. Re-binding must
    /// be explicit ([`KeyStore::replace`]) — silent key substitution is
    /// exactly the attack out-of-band verification exists to stop.
    NameTaken {
        /// The conflicting petname.
        name: String,
    },
    /// No contact with that petname.
    UnknownName,
}

impl core::fmt::Display for KeyStoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KeyStoreError::NameTaken { name } => {
                write!(f, "petname '{name}' is already bound to a different key")
            }
            KeyStoreError::UnknownName => write!(f, "no contact with that petname"),
        }
    }
}

impl std::error::Error for KeyStoreError {}

/// A local, offline store of verified contact keys.
#[derive(Debug, Default, Clone)]
pub struct KeyStore {
    by_name: BTreeMap<String, PublicKey>,
}

impl KeyStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> KeyStore {
        KeyStore::default()
    }

    /// Adds a contact under a petname.
    ///
    /// # Errors
    ///
    /// [`KeyStoreError::NameTaken`] if the name is bound to a *different*
    /// key (re-adding the same binding is idempotent).
    pub fn add(&mut self, name: impl Into<String>, key: PublicKey) -> Result<(), KeyStoreError> {
        let name = name.into();
        match self.by_name.get(&name) {
            Some(existing) if *existing != key => Err(KeyStoreError::NameTaken { name }),
            _ => {
                self.by_name.insert(name, key);
                Ok(())
            }
        }
    }

    /// Explicitly replaces a binding (e.g. after a contact rotates keys
    /// and re-verifies out of band). Returns the previous key, if any.
    pub fn replace(&mut self, name: impl Into<String>, key: PublicKey) -> Option<PublicKey> {
        self.by_name.insert(name.into(), key)
    }

    /// Removes a contact.
    ///
    /// # Errors
    ///
    /// [`KeyStoreError::UnknownName`] when absent.
    pub fn remove(&mut self, name: &str) -> Result<PublicKey, KeyStoreError> {
        self.by_name.remove(name).ok_or(KeyStoreError::UnknownName)
    }

    /// Looks up a contact's key by petname.
    #[must_use]
    pub fn key_of(&self, name: &str) -> Option<&PublicKey> {
        self.by_name.get(name)
    }

    /// Reverse lookup: whose key is this? Used to put a name on an
    /// incoming invitation's caller key.
    #[must_use]
    pub fn name_of(&self, key: &PublicKey) -> Option<&str> {
        self.by_name
            .iter()
            .find(|(_, k)| *k == key)
            .map(|(n, _)| n.as_str())
    }

    /// All contacts, in petname order.
    pub fn contacts(&self) -> impl Iterator<Item = (&str, &PublicKey)> {
        self.by_name.iter().map(|(n, k)| (n.as_str(), k))
    }

    /// Number of contacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.by_name.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

/// The word list used for human-comparable fingerprints (PGP-style even
/// word list, 6 bits per word over the leading hash bytes).
const WORDS: [&str; 64] = [
    "acid", "amber", "atlas", "badge", "basil", "beach", "bison", "blaze", "brick", "cabin",
    "cedar", "chalk", "cliff", "cloud", "coral", "crane", "delta", "dune", "eagle", "ember",
    "fern", "flint", "frost", "gale", "glade", "grove", "hazel", "heron", "ivory", "jade", "kelp",
    "lark", "lotus", "lunar", "maple", "marsh", "mesa", "mint", "moss", "night", "oasis", "ocean",
    "onyx", "opal", "otter", "pearl", "pine", "plume", "quail", "quartz", "raven", "reef", "ridge",
    "river", "slate", "spruce", "stone", "swan", "thorn", "tide", "topaz", "vale", "wren",
    "zephyr",
];

/// Renders a public key as six words (36 bits of the key's SHA-256),
/// enough for humans to compare over a phone call. Matching one
/// *targeted* victim's words takes ~2^36 key generations (a second
/// preimage; ~2^18 is only the birthday bound for *some* colliding
/// pair) — combine with the hex form ([`fingerprint_hex`]) for
/// high-stakes verification.
#[must_use]
pub fn fingerprint_words(key: &PublicKey) -> String {
    let digest = sha256(key.as_bytes());
    let mut bits: u64 = 0;
    for byte in digest.iter().take(8) {
        bits = (bits << 8) | u64::from(*byte);
    }
    (0..6)
        .map(|i| WORDS[((bits >> (58 - 6 * i)) & 0x3f) as usize])
        .collect::<Vec<_>>()
        .join("-")
}

/// The full hex SHA-256 fingerprint of a public key.
#[must_use]
pub fn fingerprint_hex(key: &PublicKey) -> String {
    sha256(key.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_crypto::x25519::Keypair;

    fn key(seed: u64) -> PublicKey {
        Keypair::generate(&mut StdRng::seed_from_u64(seed)).public
    }

    #[test]
    fn add_lookup_remove() {
        let mut store = KeyStore::new();
        store.add("alice", key(1)).expect("add");
        assert_eq!(store.key_of("alice"), Some(&key(1)));
        assert_eq!(store.name_of(&key(1)), Some("alice"));
        assert_eq!(store.len(), 1);
        assert_eq!(store.remove("alice"), Ok(key(1)));
        assert!(store.is_empty());
        assert_eq!(store.remove("alice"), Err(KeyStoreError::UnknownName));
    }

    #[test]
    fn silent_rebinding_is_rejected() {
        let mut store = KeyStore::new();
        store.add("alice", key(1)).expect("add");
        // Same binding: idempotent.
        store.add("alice", key(1)).expect("idempotent");
        // Different key under the same name: refused.
        assert!(matches!(
            store.add("alice", key(2)),
            Err(KeyStoreError::NameTaken { .. })
        ));
        // Explicit replacement works and reports the old key.
        assert_eq!(store.replace("alice", key(2)), Some(key(1)));
        assert_eq!(store.key_of("alice"), Some(&key(2)));
    }

    #[test]
    fn contacts_iterate_in_name_order() {
        let mut store = KeyStore::new();
        store.add("carol", key(3)).expect("add");
        store.add("alice", key(1)).expect("add");
        store.add("bob", key(2)).expect("add");
        let names: Vec<&str> = store.contacts().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alice", "bob", "carol"]);
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let fp1 = fingerprint_words(&key(1));
        let fp2 = fingerprint_words(&key(2));
        assert_eq!(fp1, fingerprint_words(&key(1)), "deterministic");
        assert_ne!(fp1, fp2);
        assert_eq!(fp1.split('-').count(), 6);
        for word in fp1.split('-') {
            assert!(WORDS.contains(&word));
        }
    }

    #[test]
    fn hex_fingerprint_is_full_digest() {
        let fp = fingerprint_hex(&key(1));
        assert_eq!(fp.len(), 64);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn unknown_lookups_are_none() {
        let store = KeyStore::new();
        assert!(store.key_of("nobody").is_none());
        assert!(store.name_of(&key(9)).is_none());
    }
}
