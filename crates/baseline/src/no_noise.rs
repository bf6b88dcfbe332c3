//! Vuvuzela minus cover traffic: the "plain mixnet" baseline.
//!
//! Identical wire formats, onion encryption, and mixing — but
//! [`vuvuzela_dp::NoiseMode::Off`]. This is the fair version of "Tor-like
//! systems provide little protection against powerful adversaries" (§1):
//! the mixnet hides *which* users accessed *which* drop, but the bare
//! `(m1, m2)` histogram leaks conversation counts, and the attacks in
//! `vuvuzela-adversary` exploit exactly that.

use vuvuzela_core::SystemConfig;
use vuvuzela_dp::NoiseMode;

/// A configuration identical to `base` but with all cover traffic
/// disabled.
#[must_use]
pub fn config_from(base: &SystemConfig) -> SystemConfig {
    SystemConfig {
        noise_mode: NoiseMode::Off,
        ..base.clone()
    }
}

/// The default no-noise baseline configuration (3 servers).
#[must_use]
pub fn default_config() -> SystemConfig {
    config_from(&SystemConfig::default())
}
