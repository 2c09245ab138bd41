//! Per-client token-bucket quotas: admission control *in front of* the
//! pool's bounded priority queues.
//!
//! The pool's `SubmitError::QueueFull` is global backpressure — it
//! protects the workers, but one greedy client can eat the whole queue
//! bound and starve everyone else. The token bucket is the per-client
//! layer above it: each client id gets `burst` tokens that refill at
//! `per_second`; a submission with an empty bucket is rejected with
//! `429 quota_exhausted` and a `Retry-After` hint *before* it ever
//! touches the queue.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Most distinct client ids tracked before full, idle buckets are
/// evicted (an eviction forgets at most a full bucket, which is the
/// refill steady state anyway).
const MAX_TRACKED_CLIENTS: usize = 65_536;

/// A token-bucket quota policy, built builder-style.
///
/// ```
/// use quma_serve::quota::Quota;
///
/// // 4 submissions of burst, refilling at 2 per second.
/// let quota = Quota::new().with_burst(4).with_per_second(2.0);
/// assert_eq!(quota.burst, 4);
/// let ledger = quota.ledger();
/// for _ in 0..4 {
///     assert!(ledger.admit("alice").is_ok());
/// }
/// // The burst is spent; the rejection carries a retry hint in seconds.
/// let retry = ledger.admit("alice").unwrap_err();
/// assert!(retry >= 1);
/// // Quotas are per client: bob is untouched by alice's spend.
/// assert!(ledger.admit("bob").is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quota {
    /// Maximum tokens a bucket holds (the burst a quiet client earns).
    pub burst: u32,
    /// Tokens refilled per second.
    pub per_second: f64,
}

impl Quota {
    /// A default quota: burst 8, refilling at 4 jobs per second.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            burst: 8,
            per_second: 4.0,
        }
    }

    /// Sets the burst size (builder style; clamped to ≥ 1).
    pub fn with_burst(mut self, burst: u32) -> Self {
        self.burst = burst.max(1);
        self
    }

    /// Sets the refill rate in tokens per second (builder style; must be
    /// positive, clamped to a tiny floor so buckets always refill).
    pub fn with_per_second(mut self, per_second: f64) -> Self {
        self.per_second = per_second.max(1e-6);
        self
    }

    /// Builds the ledger that tracks per-client buckets.
    pub fn ledger(self) -> QuotaLedger {
        QuotaLedger {
            quota: self,
            buckets: Mutex::new(HashMap::new()),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refilled_at: Instant,
}

/// The per-client bucket table for one [`Quota`] policy.
#[derive(Debug)]
pub struct QuotaLedger {
    quota: Quota,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl QuotaLedger {
    /// The policy this ledger enforces.
    pub fn quota(&self) -> Quota {
        self.quota
    }

    /// Takes one token from `client`'s bucket. `Err(retry_after)` (whole
    /// seconds, ≥ 1) when the bucket is empty.
    pub fn admit(&self, client: &str) -> Result<(), u64> {
        self.admit_at(client, Instant::now())
    }

    /// [`QuotaLedger::admit`] against an explicit clock (tests drive
    /// refill deterministically through this).
    pub fn admit_at(&self, client: &str, now: Instant) -> Result<(), u64> {
        let mut buckets = self.buckets.lock().expect("quota ledger poisoned");
        let burst = f64::from(self.quota.burst);
        if buckets.len() >= MAX_TRACKED_CLIENTS && !buckets.contains_key(client) {
            // Evict one bucket that is full by now (i.e. fully refilled,
            // idle); if every bucket is mid-spend the table is genuinely
            // hot and we keep tracking — the cap is a memory bound, not a
            // correctness one.
            let full = buckets
                .iter()
                .find(|(_, b)| self.refilled(b, now) >= burst)
                .map(|(k, _)| k.clone());
            if let Some(key) = full {
                buckets.remove(&key);
            }
        }
        let bucket = buckets.entry(client.to_string()).or_insert(Bucket {
            tokens: burst,
            refilled_at: now,
        });
        bucket.tokens = self.refilled(bucket, now);
        bucket.refilled_at = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            let secs = (deficit / self.quota.per_second).ceil().max(1.0);
            Err(secs as u64)
        }
    }

    /// A bucket's tokens at `now`: refilled for the time elapsed since its
    /// last touch, capped at the burst. `saturating_duration_since`
    /// tolerates test clocks that step backwards.
    fn refilled(&self, bucket: &Bucket, now: Instant) -> f64 {
        let elapsed = now
            .saturating_duration_since(bucket.refilled_at)
            .as_secs_f64();
        (bucket.tokens + elapsed * self.quota.per_second).min(f64::from(self.quota.burst))
    }

    /// Distinct clients currently tracked.
    pub fn tracked_clients(&self) -> usize {
        self.buckets.lock().expect("quota ledger poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_then_reject_then_refill() {
        let ledger = Quota::new().with_burst(2).with_per_second(1.0).ledger();
        let t0 = Instant::now();
        assert!(ledger.admit_at("c", t0).is_ok());
        assert!(ledger.admit_at("c", t0).is_ok());
        let retry = ledger.admit_at("c", t0).unwrap_err();
        assert_eq!(retry, 1);
        // One second later a single token is back — exactly one.
        let t1 = t0 + Duration::from_secs(1);
        assert!(ledger.admit_at("c", t1).is_ok());
        assert!(ledger.admit_at("c", t1).is_err());
    }

    #[test]
    fn refill_caps_at_burst() {
        let ledger = Quota::new().with_burst(3).with_per_second(100.0).ledger();
        let t0 = Instant::now();
        // A long idle period never grants more than the burst.
        let t1 = t0 + Duration::from_secs(3600);
        for _ in 0..3 {
            assert!(ledger.admit_at("c", t1).is_ok());
        }
        assert!(ledger.admit_at("c", t1).is_err());
    }

    #[test]
    fn clients_are_isolated() {
        let ledger = Quota::new().with_burst(1).with_per_second(0.001).ledger();
        let t0 = Instant::now();
        assert!(ledger.admit_at("a", t0).is_ok());
        assert!(ledger.admit_at("a", t0).is_err());
        assert!(ledger.admit_at("b", t0).is_ok());
        assert_eq!(ledger.tracked_clients(), 2);
    }

    #[test]
    fn departed_clients_are_evicted_once_refilled() {
        let ledger = Quota::new().with_burst(2).with_per_second(1.0).ledger();
        let t0 = Instant::now();
        for i in 0..MAX_TRACKED_CLIENTS {
            assert!(ledger.admit_at(&format!("once-{i}"), t0).is_ok());
        }
        // An hour later every bucket has long since refilled, so each
        // newcomer displaces a departed client instead of growing the
        // table.
        let t1 = t0 + Duration::from_secs(3600);
        for i in 0..1000 {
            assert!(ledger.admit_at(&format!("new-{i}"), t1).is_ok());
        }
        assert!(ledger.tracked_clients() <= MAX_TRACKED_CLIENTS);
    }

    #[test]
    fn slow_refill_reports_long_retry_after() {
        let ledger = Quota::new().with_burst(1).with_per_second(0.1).ledger();
        let t0 = Instant::now();
        assert!(ledger.admit_at("c", t0).is_ok());
        let retry = ledger.admit_at("c", t0).unwrap_err();
        assert_eq!(retry, 10);
    }
}
