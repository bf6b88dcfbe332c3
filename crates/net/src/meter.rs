//! Byte and message accounting for simulated links.

use std::sync::atomic::{AtomicU64, Ordering};

/// A cheap, thread-safe counter of traffic through one link direction.
#[derive(Debug, Default)]
pub struct Meter {
    bytes: AtomicU64,
    messages: AtomicU64,
    batches: AtomicU64,
}

impl Meter {
    /// Creates a zeroed meter.
    #[must_use]
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Records one batch of messages totalling `bytes`.
    pub fn record_batch(&self, messages: u64, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(messages, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Total bytes transferred.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total messages transferred.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total batches (round-trips) transferred.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
}

/// Formats a byte count with binary-ish units the way the paper quotes
/// them (KB/MB/GB as powers of 10, matching "166 MB/sec" etc.).
#[must_use]
pub fn human_bytes(bytes: f64) -> String {
    if bytes >= 1e9 {
        format!("{:.2} GB", bytes / 1e9)
    } else if bytes >= 1e6 {
        format!("{:.2} MB", bytes / 1e6)
    } else if bytes >= 1e3 {
        format!("{:.2} KB", bytes / 1e3)
    } else {
        format!("{bytes:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let m = Meter::new();
        m.record_batch(10, 2560);
        m.record_batch(5, 1280);
        assert_eq!(m.messages(), 15);
        assert_eq!(m.bytes(), 3840);
        assert_eq!(m.batches(), 2);
    }

    #[test]
    fn concurrent_recording() {
        let m = std::sync::Arc::new(Meter::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.record_batch(1, 7);
                    }
                });
            }
        });
        assert_eq!(m.messages(), 4000);
        assert_eq!(m.bytes(), 28_000);
    }

    #[test]
    fn human_units() {
        assert_eq!(human_bytes(12.0), "12 B");
        assert_eq!(human_bytes(12_000.0), "12.00 KB");
        assert_eq!(human_bytes(166_000_000.0), "166.00 MB");
        assert_eq!(human_bytes(12_000_000_000.0), "12.00 GB");
    }
}
