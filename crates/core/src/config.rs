//! Deployment-wide configuration.
//!
//! [`SystemConfig`] is the one config surface every execution mode
//! shares: the in-process chain, the streaming pipeline, the simulator,
//! and the deployment program. Its roles read it from a JSON deployment
//! file, so the struct round-trips through `serde_json` values with
//! **strict** field checking — an unknown key is a config-file typo and
//! must be rejected, not silently ignored.

use serde_json::{json, Value};
use vuvuzela_crypto::onion::MAX_CHAIN;
use vuvuzela_dp::{NoiseDistribution, NoiseMode};

/// Configuration shared by every component of a Vuvuzela deployment.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of mix servers in the chain (the paper evaluates 1–6,
    /// default 3 as in §8.1); at most [`MAX_CHAIN`], the longest chain
    /// the onion wrapper supports.
    pub chain_len: usize,
    /// Conversation cover-traffic distribution per noising server
    /// (paper default µ = 300,000, b = 13,800 at production scale).
    pub conversation_noise: NoiseDistribution,
    /// Dialing cover-traffic distribution per server per invitation drop
    /// (paper default µ = 13,000, b = 770).
    pub dialing_noise: NoiseDistribution,
    /// How noise counts are drawn. The paper's evaluation uses
    /// deterministic noise "to not let noise affect the clarity of the
    /// graphs" (§8.1); production uses sampling.
    pub noise_mode: NoiseMode,
    /// The most threads one fan-out call of a server's or client's
    /// cryptography runs on, the caller included, capped at the core
    /// count.
    pub workers: usize,
    /// Conversation slots per client per round (§9 "Multiple
    /// conversations": a fixed a-priori maximum; the paper's prototype
    /// uses 1).
    pub conversation_slots: usize,
    /// Rounds a client waits for an ack before re-sending a message.
    pub retransmit_after: u64,
    /// Dead-drop shards at the last server: the conversation exchange
    /// partitions its drop map by ID range into this many independent
    /// shards, paired on worker strands. Output is byte-identical for
    /// every shard count (the merge is deterministic); the knob only
    /// controls parallelism and is the seam for Atom-style scale-out of
    /// a single logical round.
    pub exchange_shards: usize,
}

impl Default for SystemConfig {
    /// A laptop-scale configuration: 3 servers, deterministic noise with
    /// a small µ, one conversation slot.
    fn default() -> Self {
        SystemConfig {
            chain_len: 3,
            conversation_noise: NoiseDistribution::new(50.0, 10.0),
            dialing_noise: NoiseDistribution::new(10.0, 2.0),
            noise_mode: NoiseMode::Deterministic,
            workers: vuvuzela_net::parallel::default_workers(),
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        }
    }
}

impl SystemConfig {
    /// The paper's production parameters (§8.1): 3 servers,
    /// µ=300,000/b=13,800 conversation noise, µ=13,000/b=770 dialing
    /// noise, sampled. Running a full round at this scale takes minutes
    /// of CPU on a laptop — used by the extrapolating benchmarks, not by
    /// tests.
    #[must_use]
    pub fn paper_scale() -> Self {
        SystemConfig {
            chain_len: 3,
            conversation_noise: NoiseDistribution::new(300_000.0, 13_800.0),
            dialing_noise: NoiseDistribution::new(13_000.0, 770.0),
            noise_mode: NoiseMode::Sampled,
            workers: vuvuzela_net::parallel::default_workers(),
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        }
    }

    /// Serializes to a JSON value ([`SystemConfig::from_json`] inverts
    /// it exactly; object keys render sorted, so the canonical pretty
    /// form is deterministic and digestable).
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!({
            "chain_len": self.chain_len,
            "conversation_noise": noise_to_json(self.conversation_noise),
            "dialing_noise": noise_to_json(self.dialing_noise),
            "noise_mode": noise_mode_str(self.noise_mode),
            "workers": self.workers,
            "conversation_slots": self.conversation_slots,
            "retransmit_after": self.retransmit_after,
            "exchange_shards": self.exchange_shards,
        })
    }

    /// Deserializes from a JSON value, rejecting unknown fields, a
    /// `chain_len` the onion wrapper cannot serve, a zero worker, slot
    /// or shard count, and noise with a negative or infinite µ or a b
    /// that is not finite and positive (a deployment file must fail
    /// here, not inside the first noising server's first round).
    ///
    /// # Errors
    ///
    /// A description of the first missing, unknown, ill-typed or
    /// out-of-range field.
    pub fn from_json(value: &Value) -> Result<SystemConfig, String> {
        let map = expect_object(value, "system config")?;
        reject_unknown(
            map,
            &[
                "chain_len",
                "conversation_noise",
                "dialing_noise",
                "noise_mode",
                "workers",
                "conversation_slots",
                "retransmit_after",
                "exchange_shards",
            ],
            "system config",
        )?;
        let chain_len = get_usize(map, "chain_len")?;
        if !(1..=MAX_CHAIN).contains(&chain_len) {
            return Err(format!(
                "field \"chain_len\" must be between 1 and {MAX_CHAIN} (the longest chain \
                 the onion wrapper supports), got {chain_len}"
            ));
        }
        // `validate` asserts these on the first chain or server built.
        for key in ["workers", "conversation_slots", "exchange_shards"] {
            if get_u64(map, key)? == 0 {
                return Err(format!("field {key:?} must be at least 1, got 0"));
            }
        }
        Ok(SystemConfig {
            chain_len,
            conversation_noise: noise_from_json(require(map, "conversation_noise")?)?,
            dialing_noise: noise_from_json(require(map, "dialing_noise")?)?,
            noise_mode: noise_mode_from_str(
                require(map, "noise_mode")?
                    .as_str()
                    .ok_or("noise_mode must be a string")?,
            )?,
            workers: get_usize(map, "workers")?,
            conversation_slots: get_usize(map, "conversation_slots")?,
            retransmit_after: get_u64(map, "retransmit_after")?,
            exchange_shards: get_usize(map, "exchange_shards")?,
        })
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero-length chain or zero conversation slots, which
    /// have no meaningful protocol interpretation, and on a chain longer
    /// than [`MAX_CHAIN`], which the onion wrapper would refuse
    /// mid-round.
    pub fn validate(&self) {
        assert!(self.chain_len >= 1, "chain must have at least one server");
        assert!(
            self.chain_len <= MAX_CHAIN,
            "chain of {} exceeds the onion wrapper's limit of {MAX_CHAIN} servers",
            self.chain_len
        );
        assert!(
            self.conversation_slots >= 1,
            "clients need at least one conversation slot"
        );
        assert!(self.workers >= 1, "need at least one worker");
        assert!(
            self.exchange_shards >= 1,
            "need at least one dead-drop shard"
        );
    }
}

fn noise_to_json(noise: NoiseDistribution) -> Value {
    json!({ "mu": noise.mu, "b": noise.b })
}

fn noise_from_json(value: &Value) -> Result<NoiseDistribution, String> {
    let map = expect_object(value, "noise distribution")?;
    reject_unknown(map, &["mu", "b"], "noise distribution")?;
    let mu = require(map, "mu")?.as_f64().ok_or("mu must be a number")?;
    let b = require(map, "b")?.as_f64().ok_or("b must be a number")?;
    // `NoiseDistribution::new` asserts these; a file must fail here.
    if !(mu.is_finite() && mu >= 0.0) {
        return Err(format!(
            "field \"mu\" must be finite and non-negative, got {mu}"
        ));
    }
    if !(b.is_finite() && b > 0.0) {
        return Err(format!("field \"b\" must be finite and positive, got {b}"));
    }
    Ok(NoiseDistribution::new(mu, b))
}

fn noise_mode_str(mode: NoiseMode) -> &'static str {
    match mode {
        NoiseMode::Sampled => "sampled",
        NoiseMode::Deterministic => "deterministic",
        NoiseMode::Off => "off",
    }
}

fn noise_mode_from_str(s: &str) -> Result<NoiseMode, String> {
    match s {
        "sampled" => Ok(NoiseMode::Sampled),
        "deterministic" => Ok(NoiseMode::Deterministic),
        "off" => Ok(NoiseMode::Off),
        other => Err(format!(
            "unknown noise_mode {other:?} (expected sampled / deterministic / off)"
        )),
    }
}

/// The object map inside `value`, or an error naming `what`.
///
/// These small helpers are shared with the deployment-file parser in
/// the umbrella crate, which layers its own strict object on top of
/// [`SystemConfig`].
pub fn expect_object<'v>(
    value: &'v Value,
    what: &str,
) -> Result<&'v std::collections::BTreeMap<String, Value>, String> {
    match value {
        Value::Object(map) => Ok(map),
        _ => Err(format!("{what} must be a JSON object")),
    }
}

/// Fails on any key of `map` not listed in `known` — a config-file typo
/// must be an error, never silently ignored.
pub fn reject_unknown(
    map: &std::collections::BTreeMap<String, Value>,
    known: &[&str],
    what: &str,
) -> Result<(), String> {
    for key in map.keys() {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown field {key:?} in {what}"));
        }
    }
    Ok(())
}

/// The value at `key`, or an error naming the missing field.
pub fn require<'v>(
    map: &'v std::collections::BTreeMap<String, Value>,
    key: &str,
) -> Result<&'v Value, String> {
    map.get(key).ok_or(format!("missing field {key:?}"))
}

/// A required `u64` field.
pub fn get_u64(map: &std::collections::BTreeMap<String, Value>, key: &str) -> Result<u64, String> {
    require(map, key)?
        .as_u64()
        .ok_or(format!("field {key:?} must be a non-negative integer"))
}

/// A required `usize` field.
pub fn get_usize(
    map: &std::collections::BTreeMap<String, Value>,
    key: &str,
) -> Result<usize, String> {
    get_u64(map, key).map(|v| v as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        SystemConfig::default().validate();
    }

    #[test]
    fn json_roundtrip_is_exact() {
        for cfg in [
            SystemConfig::default(),
            SystemConfig::paper_scale(),
            SystemConfig {
                noise_mode: NoiseMode::Off,
                chain_len: 5,
                ..SystemConfig::default()
            },
        ] {
            let value = cfg.to_json();
            let back = SystemConfig::from_json(&value).expect("round-trips");
            assert_eq!(back.chain_len, cfg.chain_len);
            assert_eq!(back.conversation_noise, cfg.conversation_noise);
            assert_eq!(back.dialing_noise, cfg.dialing_noise);
            assert_eq!(back.noise_mode, cfg.noise_mode);
            assert_eq!(back.workers, cfg.workers);
            assert_eq!(back.conversation_slots, cfg.conversation_slots);
            assert_eq!(back.retransmit_after, cfg.retransmit_after);
            assert_eq!(back.exchange_shards, cfg.exchange_shards);
            // The canonical pretty rendering is stable through the trip.
            assert_eq!(
                serde_json::to_string_pretty(&back.to_json()).expect("render"),
                serde_json::to_string_pretty(&value).expect("render"),
            );
        }
    }

    #[test]
    fn unknown_field_rejected() {
        let mut value = SystemConfig::default().to_json();
        if let Value::Object(map) = &mut value {
            map.insert("chain_length".to_string(), Value::from(3u64));
        }
        let err = SystemConfig::from_json(&value).expect_err("typo must fail");
        assert!(err.contains("chain_length"), "error names the field: {err}");

        let mut nested = SystemConfig::default().to_json();
        if let Value::Object(map) = &mut nested {
            map.insert(
                "conversation_noise".to_string(),
                json!({"mu": 1.0, "sigma": 2.0}),
            );
        }
        let err = SystemConfig::from_json(&nested).expect_err("nested typo must fail");
        assert!(err.contains("sigma"), "error names the field: {err}");
    }

    #[test]
    fn missing_and_mistyped_fields_rejected() {
        let mut value = SystemConfig::default().to_json();
        if let Value::Object(map) = &mut value {
            map.remove("workers");
        }
        assert!(SystemConfig::from_json(&value)
            .expect_err("missing field")
            .contains("workers"));

        let mut value = SystemConfig::default().to_json();
        if let Value::Object(map) = &mut value {
            map.insert("noise_mode".to_string(), Value::from(3u64));
        }
        assert!(SystemConfig::from_json(&value).is_err());
    }

    #[test]
    fn paper_scale_matches_section_8_1() {
        let cfg = SystemConfig::paper_scale();
        cfg.validate();
        assert_eq!(cfg.chain_len, 3);
        assert_eq!(cfg.conversation_noise.mu, 300_000.0);
        assert_eq!(cfg.dialing_noise.mu, 13_000.0);
        assert_eq!(cfg.noise_mode, NoiseMode::Sampled);
    }

    #[test]
    fn chain_len_bounded_by_the_onion_wrapper() {
        let with_chain = |chain_len: usize| {
            let mut value = SystemConfig::default().to_json();
            if let Value::Object(map) = &mut value {
                map.insert("chain_len".to_string(), Value::from(chain_len as u64));
            }
            SystemConfig::from_json(&value)
        };
        for chain_len in [1, MAX_CHAIN] {
            let cfg = with_chain(chain_len).expect("both ends of the range parse");
            assert_eq!(cfg.chain_len, chain_len);
            cfg.validate();
        }
        for chain_len in [0, MAX_CHAIN + 1] {
            let err = with_chain(chain_len).expect_err("outside the range");
            assert!(err.contains("chain_len"), "error names the field: {err}");
            assert!(
                err.contains(&format!("1 and {MAX_CHAIN}")),
                "error names the limit: {err}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the onion wrapper's limit of 16")]
    fn overlong_chain_rejected() {
        let cfg = SystemConfig {
            chain_len: MAX_CHAIN + 1,
            ..SystemConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_chain_rejected() {
        let cfg = SystemConfig {
            chain_len: 0,
            ..SystemConfig::default()
        };
        cfg.validate();
    }
}
