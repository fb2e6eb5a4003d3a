//! Per-tenant quality of service: identities, admission policies,
//! deterministic token buckets, and the weighted-fair service state the
//! batcher's [`crate::batcher::plan`] consults when several tenants have
//! ripe work.
//!
//! The model is deliberately small and fully deterministic:
//!
//! * **Token buckets** gate *admission*: a tenant with `rate = Some(r)`
//!   may sustain `r` requests per second with bursts up to `burst`;
//!   beyond that, submissions bounce with
//!   [`crate::ServeError::RateLimited`] instead of occupying queue
//!   capacity another tenant paid for. Refill is the pure function
//!   [`refill`] of elapsed time — no background thread, no jitter.
//! * **Priority tiers** gate *dequeue order*: a ripe batch of a
//!   lower-numbered tier is always selected before any ripe batch of a
//!   higher-numbered one (strict priority between tiers).
//! * **Weights** arbitrate *within* a tier by weighted fair queueing:
//!   each flushed batch charges its tenant `requests / weight` units of
//!   virtual service ([`FairState::charge`]), and the ripe group whose
//!   tenant has the least accumulated service is flushed first. Over any
//!   contended interval every backlogged tenant therefore receives
//!   device batches in proportion to its weight, within one `max_batch`
//!   of slack — the bound the proptests in `tests/qos.rs` pin.
//!
//! Fairness invariants (tested):
//!
//! 1. **No starvation**: a ripe group is flushed after at most
//!    `T − 1` other flushes, where `T` is the number of backlogged
//!    tenants in its tier and no lower tier is backlogged — its service
//!    deficit only grows relative to tenants that keep being served.
//! 2. **Bounded unfairness**: for continuously backlogged tenants `a`,
//!    `b` in one tier, `|service(a) − service(b)|` never exceeds
//!    `max_batch / min(weight_a, weight_b)` virtual-service units.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Identifies one tenant of the serving runtime. Requests carry one
/// ([`crate::Request::tenant`]); it becomes part of the batcher's
/// kernel-compatibility key, so a device batch never mixes tenants and
/// per-batch accounting (fault storms, fairness charges) is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant requests belong to when none is set — the
    /// single-tenant configuration every pre-QoS caller gets.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Admission and scheduling policy for one tenant.
#[derive(Debug, Clone)]
pub struct TenantQos {
    /// Sustained admission rate, requests per second. `None` disables
    /// rate limiting for this tenant.
    pub rate: Option<f64>,
    /// Token-bucket depth: how many requests above the sustained rate a
    /// burst may admit (clamped to ≥ 1 so a full bucket always admits).
    pub burst: f64,
    /// Weighted-fair share within this tenant's tier (> 0). A tenant
    /// with weight 2 receives twice the batches of a weight-1 tenant
    /// when both are backlogged.
    pub weight: f64,
    /// Priority tier; 0 is served before 1, 1 before 2, and so on.
    /// Strict priority: a ripe lower-tier batch always wins.
    pub tier: u8,
    /// Per-tenant coverage SLO overriding
    /// [`crate::ServeFaults::min_coverage`] when set: responses below it
    /// are retried then surfaced as [`crate::ServeError::Degraded`].
    pub min_coverage: Option<f64>,
    /// Per-tenant deadline budget applied to requests that carry none
    /// (wins over [`crate::ServeConfig::default_timeout`]; the
    /// request's own timeout wins over both).
    pub default_timeout: Option<Duration>,
}

impl Default for TenantQos {
    fn default() -> Self {
        Self {
            rate: None,
            burst: 1.0,
            weight: 1.0,
            tier: 1,
            min_coverage: None,
            default_timeout: None,
        }
    }
}

/// The per-tenant QoS table, with a default policy for tenants it does
/// not name. The default [`QosConfig`] applies the default policy to
/// everyone — no rate limits, one tier, equal weights — which makes the
/// whole QoS layer invisible to single-tenant callers.
#[derive(Debug, Clone, Default)]
pub struct QosConfig {
    /// Explicit per-tenant policies.
    pub tenants: BTreeMap<TenantId, TenantQos>,
    /// Policy for tenants absent from `tenants`.
    pub default: TenantQos,
}

impl QosConfig {
    /// The policy governing `tenant`.
    pub fn get(&self, tenant: TenantId) -> &TenantQos {
        self.tenants.get(&tenant).unwrap_or(&self.default)
    }

    /// Builder convenience: returns `self` with `tenant` governed by
    /// `qos`.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId, qos: TenantQos) -> Self {
        self.tenants.insert(tenant, qos);
        self
    }
}

/// Pure token-bucket refill: the token count after `dt` seconds of
/// refill at `rate` tokens/second into a bucket of depth `burst`
/// (clamped to ≥ 1), starting from `tokens`. Deterministic — the bucket
/// state is a function of admission history and elapsed time only.
pub fn refill(tokens: f64, rate: f64, burst: f64, dt: f64) -> f64 {
    (tokens + rate * dt.max(0.0)).min(burst.max(1.0))
}

/// One tenant's token bucket. Created full, so a tenant's first `burst`
/// requests always admit.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket as of `now`.
    pub fn new(qos: &TenantQos, now: Instant) -> Self {
        Self {
            tokens: qos.burst.max(1.0),
            last: now,
        }
    }

    /// Refills for the time elapsed since the previous call, then spends
    /// one token if available. `true` admits the request. Tenants with
    /// `rate: None` always admit (and spend nothing).
    pub fn try_admit(&mut self, qos: &TenantQos, now: Instant) -> bool {
        let Some(rate) = qos.rate else { return true };
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.tokens = refill(self.tokens, rate, qos.burst, dt);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently in the bucket (as of the last refill).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// Renormalization threshold for [`FairState`]: when every tracked
/// tenant's service exceeds this, the minimum is subtracted from all of
/// them. Only service *differences* drive selection, so this is
/// invisible to scheduling; it keeps counters far from the f64 range
/// where increments would be absorbed.
const FAIR_RENORM: f64 = 1e12;

/// Accumulated weighted-fair virtual service per tenant. The batcher
/// charges `requests / weight` per flushed batch and prefers the ripe
/// tenant with the least service; a tenant it has never charged has
/// service 0 (new tenants are served promptly).
#[derive(Debug, Clone, Default)]
pub struct FairState {
    service: BTreeMap<TenantId, f64>,
}

impl FairState {
    /// Virtual service accumulated by `tenant`.
    pub fn service(&self, tenant: TenantId) -> f64 {
        self.service.get(&tenant).copied().unwrap_or(0.0)
    }

    /// Charges `tenant` for a flushed batch of `requests` requests at
    /// fair-share `weight`.
    pub fn charge(&mut self, tenant: TenantId, requests: usize, weight: f64) {
        *self.service.entry(tenant).or_insert(0.0) +=
            requests as f64 / weight.max(f64::MIN_POSITIVE);
        let min = self.service.values().copied().fold(f64::INFINITY, f64::min);
        if min > FAIR_RENORM {
            for v in self.service.values_mut() {
                *v -= min;
            }
        }
    }
}

/// Jain's fairness index over per-tenant allocations: `(Σx)² / (n·Σx²)`,
/// 1.0 when every tenant gets the same normalized allocation, `1/n` when
/// one tenant gets everything. Empty or all-zero input is vacuously
/// fair.
pub fn jain_index(allocations: &[f64]) -> f64 {
    let n = allocations.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_tenant_always_admits() {
        let qos = TenantQos::default();
        let now = Instant::now();
        let mut bucket = TokenBucket::new(&qos, now);
        for _ in 0..10_000 {
            assert!(bucket.try_admit(&qos, now));
        }
    }

    #[test]
    fn bucket_admits_burst_then_throttles() {
        let qos = TenantQos {
            rate: Some(10.0),
            burst: 3.0,
            ..TenantQos::default()
        };
        let now = Instant::now();
        let mut bucket = TokenBucket::new(&qos, now);
        // Full bucket: exactly `burst` back-to-back admissions.
        assert!(bucket.try_admit(&qos, now));
        assert!(bucket.try_admit(&qos, now));
        assert!(bucket.try_admit(&qos, now));
        assert!(!bucket.try_admit(&qos, now));
        // 100 ms at 10 tokens/s refills one token — exactly one more.
        let later = now + Duration::from_millis(100);
        assert!(bucket.try_admit(&qos, later));
        assert!(!bucket.try_admit(&qos, later));
    }

    #[test]
    fn refill_clamps_to_burst_and_never_goes_negative() {
        assert_eq!(refill(0.0, 100.0, 5.0, 3600.0), 5.0);
        assert_eq!(refill(2.0, 10.0, 5.0, 0.0), 2.0);
        // Negative dt (clock skew) refills nothing rather than draining.
        assert_eq!(refill(2.0, 10.0, 5.0, -1.0), 2.0);
        // Degenerate burst is clamped so a full bucket can still admit.
        assert_eq!(refill(0.0, 10.0, 0.0, 100.0), 1.0);
    }

    #[test]
    fn fair_state_charges_by_inverse_weight() {
        let mut fair = FairState::default();
        fair.charge(TenantId(1), 8, 1.0);
        fair.charge(TenantId(2), 8, 4.0);
        assert_eq!(fair.service(TenantId(1)), 8.0);
        assert_eq!(fair.service(TenantId(2)), 2.0);
        assert_eq!(fair.service(TenantId(3)), 0.0);
    }

    #[test]
    fn fair_state_renormalizes_preserving_differences() {
        let mut fair = FairState::default();
        fair.charge(TenantId(1), 1, 1.0);
        fair.charge(TenantId(2), 5, 1.0);
        // Push both far past the threshold; the second charge trips the
        // renormalization (min > FAIR_RENORM) without erasing the gap.
        fair.charge(TenantId(1), 1, 1e-15);
        fair.charge(TenantId(2), 1, 1e-15);
        let diff = fair.service(TenantId(2)) - fair.service(TenantId(1));
        assert!((diff - 4.0).abs() < 1.0, "diff = {diff}");
        assert!(fair.service(TenantId(1)) < FAIR_RENORM * 2.0);
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_index(&[3.0, 3.0, 3.0]), 1.0);
        let skewed = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12, "{skewed}");
        let mild = jain_index(&[1.0, 2.0]);
        assert!(mild > 0.25 && mild < 1.0);
    }

    #[test]
    fn qos_config_falls_back_to_default() {
        let cfg = QosConfig::default().with_tenant(
            TenantId(7),
            TenantQos {
                tier: 0,
                ..TenantQos::default()
            },
        );
        assert_eq!(cfg.get(TenantId(7)).tier, 0);
        assert_eq!(cfg.get(TenantId(8)).tier, 1);
    }
}
