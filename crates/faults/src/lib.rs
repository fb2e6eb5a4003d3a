//! Seeded, deterministic fault injection for the SSAM stack.
//!
//! A [`FaultPlan`] describes *what can go wrong* (DRAM bit flips, link CRC
//! corruption, vault/module outages, stragglers) as rates plus a seed, and a
//! [`RecoveryPolicy`] describes *how the stack responds* (bounded link
//! retries, capped exponential backoff for module failover, degradation and
//! probing thresholds). Every fault decision is a pure function of
//! `(seed, domain, scope, seq, unit)` via a splitmix64-style hash, so a run
//! is bit-reproducible: re-executing the same plan over the same queries
//! injects exactly the same faults. A retried module touch also folds its
//! `attempt` into the key, so each retry draws an independent (but still
//! deterministic) outcome.
//!
//! The [`FaultRecord`] counters travel with telemetry records and obey
//! closure invariants checked by [`FaultRecord::check_closure`]: every
//! injected fault must be corrected (ECC single), recovered (link retry,
//! module failover), or surfaced as lost coverage — none may vanish.

/// Finalizer from splitmix64; a strong 64-bit mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

// Hash domains keep the independent fault channels decorrelated even when
// they share the same (scope, seq, unit) key.
const DOMAIN_BIT_EVENTS: u64 = 1;
const DOMAIN_BIT_KIND: u64 = 2;
const DOMAIN_BIT_VICTIM: u64 = 3;
const DOMAIN_BIT_POS: u64 = 4;
const DOMAIN_CRC: u64 = 5;
const DOMAIN_VAULT_OUT: u64 = 6;
const DOMAIN_MODULE_OUT: u64 = 7;
const DOMAIN_STRAGGLE: u64 = 8;
const DOMAIN_CRASH: u64 = 9;

/// How the stack recovers from injected faults. Separate from the injection
/// rates so recovery behavior can be tuned (or exercised) independently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Module failover attempts after the initial try (sharded-store
    /// reads and writes).
    pub max_module_retries: u32,
    /// Base of the capped exponential backoff between module retries, seconds.
    pub backoff_base: f64,
    /// Backoff ceiling, seconds.
    pub backoff_cap: f64,
    /// Consecutive faulty batches after which a module is marked degraded
    /// and taken out of dispatch.
    pub degrade_after: u32,
    /// A degraded module is probed once every this many batches to detect
    /// recovery.
    pub probe_interval: u64,
    /// How many times ssam-serve re-enqueues a request whose batch failed
    /// (worker panic / degraded coverage with `require_full`).
    pub serve_retry_budget: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_module_retries: 2,
            backoff_base: 5e-6,
            backoff_cap: 100e-6,
            degrade_after: 3,
            probe_interval: 8,
            serve_retry_budget: 1,
        }
    }
}

impl RecoveryPolicy {
    /// Modeled wait before retry `attempt` (1-based): `min(base * 2^(a-1), cap)`.
    pub fn backoff(&self, attempt: u32) -> f64 {
        (self.backoff_base * f64::from(1u32 << (attempt.saturating_sub(1)).min(20)))
            .min(self.backoff_cap)
    }
}

/// A seeded description of the faults to inject. All rates are per
/// *opportunity*: `bit_flip_rate` is expected ECC events per (query, vault)
/// scan, `crc_corruption_rate` is per link-transfer attempt, the outage rates
/// are per (query, vault) / (batch, module), `straggler_rate` per
/// (query, vault).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    /// Expected DRAM bit-flip *events* per (query, vault) scan.
    pub bit_flip_rate: f64,
    /// Fraction of bit-flip events that hit two bits of a word
    /// (detected-but-uncorrectable under SECDED).
    pub double_bit_fraction: f64,
    /// Probability that one result-transfer attempt over the link is
    /// corrupted (caught by CRC, triggering a retransmission).
    pub crc_corruption_rate: f64,
    /// Retransmissions allowed per transfer before the link gives up.
    pub max_link_retries: u32,
    /// Extra seconds charged per retransmission on top of the re-sent wire
    /// time (timeout + reissue overhead).
    pub link_retry_penalty: f64,
    /// Probability a vault is unreachable for a whole (query, vault) scan.
    pub vault_outage_rate: f64,
    /// Vaults that are always out (hard failures).
    pub dead_vaults: Vec<u32>,
    /// Probability a module is unreachable for a whole batch attempt.
    pub module_outage_rate: f64,
    /// Modules that are always out.
    pub dead_modules: Vec<u32>,
    /// Probability a vault runs slow for a (query, vault) scan.
    pub straggler_rate: f64,
    /// Multiplicative slowdown applied to a straggling vault's time.
    pub straggler_slowdown: f64,
    /// Recovery knobs used by the sharded-store and serve layers.
    pub policy: RecoveryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            bit_flip_rate: 0.0,
            double_bit_fraction: 0.0,
            crc_corruption_rate: 0.0,
            max_link_retries: 2,
            link_retry_penalty: 1e-6,
            vault_outage_rate: 0.0,
            dead_vaults: Vec::new(),
            module_outage_rate: 0.0,
            dead_modules: Vec::new(),
            straggler_rate: 0.0,
            straggler_slowdown: 4.0,
            policy: RecoveryPolicy::default(),
        }
    }
}

/// Outcome of sampling the fault channels for one (query, vault) scan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VaultFault {
    /// Vault unreachable: no scan happens, its candidates are lost.
    pub outage: bool,
    /// Total ECC events injected into this scan.
    pub bit_flip_events: u32,
    /// Events that flipped two bits (detected, uncorrectable → vault lost).
    pub double_bit_events: u32,
    /// Corrupted transfer attempts on the result link.
    pub crc_corruptions: u32,
    /// The transfer was corrupted on every allowed attempt.
    pub link_failed: bool,
    /// Multiplicative slowdown; 1.0 means nominal speed.
    pub slowdown: f64,
}

impl VaultFault {
    /// No observable effect on this scan.
    pub fn is_trivial(&self) -> bool {
        !self.outage
            && self.bit_flip_events == 0
            && self.crc_corruptions == 0
            && !self.link_failed
            && self.slowdown == 1.0
    }

    /// ECC detected a double-bit error somewhere in the scan.
    pub fn uncorrectable(&self) -> bool {
        self.double_bit_events > 0
    }

    /// The vault's candidates cannot be trusted/delivered for this query.
    pub fn lost(&self) -> bool {
        self.outage || self.uncorrectable() || self.link_failed
    }
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A moderate everything-at-once preset used by the CI chaos smoke.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan {
            seed,
            bit_flip_rate: 0.08,
            double_bit_fraction: 0.25,
            crc_corruption_rate: 0.05,
            vault_outage_rate: 0.01,
            module_outage_rate: 0.03,
            straggler_rate: 0.05,
            straggler_slowdown: 4.0,
            ..FaultPlan::default()
        }
    }

    /// True when no channel can ever fire.
    pub fn is_zero(&self) -> bool {
        self.bit_flip_rate == 0.0
            && self.crc_corruption_rate == 0.0
            && self.vault_outage_rate == 0.0
            && self.module_outage_rate == 0.0
            && self.straggler_rate == 0.0
            && self.dead_vaults.is_empty()
            && self.dead_modules.is_empty()
    }

    #[inline]
    fn hash(&self, domain: u64, scope: u64, seq: u64, unit: u64, idx: u64) -> u64 {
        let mut h = self.seed ^ GOLDEN;
        for x in [domain, scope, seq, unit, idx] {
            h = mix(h.wrapping_add(GOLDEN) ^ x);
        }
        h
    }

    #[inline]
    fn uniform(&self, domain: u64, scope: u64, seq: u64, unit: u64, idx: u64) -> f64 {
        // 53 high bits → uniform in [0, 1).
        (self.hash(domain, scope, seq, unit, idx) >> 11) as f64 * (1.0 / 9007199254740992.0)
    }

    /// Sample every fault channel for one (query, vault) scan.
    ///
    /// `scope` disambiguates otherwise-identical key streams (store
    /// segment, serve worker index). A vault scan is never retried, so
    /// its key has no attempt; [`FaultPlan::module_outage`] keeps one.
    pub fn vault_fault(&self, scope: u64, query_seq: u64, vault: u64) -> VaultFault {
        let mut f = VaultFault {
            slowdown: 1.0,
            ..VaultFault::default()
        };
        let key_seq = query_seq.wrapping_mul(0x1_0001);
        if self.dead_vaults.contains(&(vault as u32))
            || (self.vault_outage_rate > 0.0
                && self.uniform(DOMAIN_VAULT_OUT, scope, key_seq, vault, 0)
                    < self.vault_outage_rate)
        {
            // Nothing runs and nothing is transferred, so the other channels
            // have no opportunity to fire.
            f.outage = true;
            return f;
        }
        if self.bit_flip_rate > 0.0 {
            let expected = self.bit_flip_rate;
            let mut events = expected.floor() as u32;
            if self.uniform(DOMAIN_BIT_EVENTS, scope, key_seq, vault, 0) < expected.fract() {
                events += 1;
            }
            f.bit_flip_events = events;
            for e in 0..events {
                if self.uniform(DOMAIN_BIT_KIND, scope, key_seq, vault, u64::from(e))
                    < self.double_bit_fraction
                {
                    f.double_bit_events += 1;
                }
            }
        }
        if self.crc_corruption_rate > 0.0 {
            let mut clean = false;
            for a in 0..=self.max_link_retries {
                if self.uniform(DOMAIN_CRC, scope, key_seq, vault, u64::from(a))
                    < self.crc_corruption_rate
                {
                    f.crc_corruptions += 1;
                } else {
                    clean = true;
                    break;
                }
            }
            f.link_failed = !clean;
        }
        if self.straggler_rate > 0.0
            && self.uniform(DOMAIN_STRAGGLE, scope, key_seq, vault, 0) < self.straggler_rate
        {
            f.slowdown = self.straggler_slowdown;
        }
        f
    }

    /// Is the whole module unreachable for this batch attempt?
    pub fn module_outage(&self, scope: u64, batch_seq: u64, module: u64, attempt: u64) -> bool {
        if self.dead_modules.contains(&(module as u32)) {
            return true;
        }
        if self.module_outage_rate == 0.0 {
            return false;
        }
        let key_seq = batch_seq.wrapping_mul(0x1_0001).wrapping_add(attempt);
        self.uniform(DOMAIN_MODULE_OUT, scope, key_seq, module, 0) < self.module_outage_rate
    }

    /// One module touch under the capped-retry failover loop: samples
    /// [`FaultPlan::module_outage`] for attempts `0, 1, …` until the
    /// module answers or `policy.max_module_retries` retries are spent.
    /// Returns the outages seen and whether the module came up; the
    /// retries taken are `outages` when it did and `outages − 1` when it
    /// did not, each waiting [`RecoveryPolicy::backoff`].
    pub fn module_attempts(&self, scope: u64, batch_seq: u64, module: u64) -> (u64, bool) {
        let mut outages = 0u64;
        while self.module_outage(scope, batch_seq, module, outages) {
            outages += 1;
            if outages > u64::from(self.policy.max_module_retries) {
                return (outages, false);
            }
        }
        (outages, true)
    }

    /// Deterministic victim word index for bit-flip event `event` (caller
    /// reduces modulo the shard length).
    pub fn victim_index(&self, scope: u64, query_seq: u64, vault: u64, event: u32) -> u64 {
        self.hash(
            DOMAIN_BIT_VICTIM,
            scope,
            query_seq,
            vault.wrapping_add(u64::from(event) << 32),
            0,
        )
    }

    /// Deterministic distinct bit positions (< `width`) for a flip event.
    /// Returns `(p0, p0)` for single flips and two distinct positions for
    /// doubles.
    pub fn flip_positions(
        &self,
        scope: u64,
        query_seq: u64,
        vault: u64,
        event: u32,
        width: u32,
        double: bool,
    ) -> (u32, u32) {
        let h = self.hash(DOMAIN_BIT_POS, scope, query_seq, vault, u64::from(event));
        let p0 = (h as u32) % width;
        if !double {
            return (p0, p0);
        }
        let mut p1 = ((h >> 32) as u32) % width;
        if p1 == p0 {
            p1 = (p1 + 1) % width;
        }
        (p0, p1)
    }

    /// Parse a `--faults` spec.
    ///
    /// Accepts the presets `none` and `chaos[:seed]`, or a comma-separated
    /// `key=value` list. Keys: `seed`, `bit_flip`, `double_frac`, `crc`,
    /// `link_retries`, `link_penalty`, `vault_out`, `dead_vaults` (`|`-separated
    /// ids), `module_out`, `dead_modules`, `straggle`, `slowdown`,
    /// `module_retries`, `retry_budget`.
    ///
    /// Example: `seed=7,bit_flip=0.1,double_frac=0.2,crc=0.05,vault_out=0.01`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(FaultPlan::none());
        }
        if let Some(rest) = spec.strip_prefix("chaos") {
            let seed = match rest.strip_prefix(':') {
                Some(s) => s
                    .parse::<u64>()
                    .map_err(|e| format!("bad chaos seed {s:?}: {e}"))?,
                None if rest.is_empty() => 0xc4a05,
                None => return Err(format!("bad fault preset {spec:?}")),
            };
            return Ok(FaultPlan::chaos(seed));
        }
        let mut plan = FaultPlan::none();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let fval = || {
                value
                    .parse::<f64>()
                    .map_err(|e| format!("bad value for {key}: {e}"))
            };
            let uval = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("bad value for {key}: {e}"))
            };
            let list = || -> Result<Vec<u32>, String> {
                value
                    .split('|')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        s.parse::<u32>()
                            .map_err(|e| format!("bad id in {key}: {e}"))
                    })
                    .collect()
            };
            match key {
                "seed" => plan.seed = uval()?,
                "bit_flip" => plan.bit_flip_rate = fval()?,
                "double_frac" => plan.double_bit_fraction = fval()?,
                "crc" => plan.crc_corruption_rate = fval()?,
                "link_retries" => plan.max_link_retries = uval()? as u32,
                "link_penalty" => plan.link_retry_penalty = fval()?,
                "vault_out" => plan.vault_outage_rate = fval()?,
                "dead_vaults" => plan.dead_vaults = list()?,
                "module_out" => plan.module_outage_rate = fval()?,
                "dead_modules" => plan.dead_modules = list()?,
                "straggle" => plan.straggler_rate = fval()?,
                "slowdown" => plan.straggler_slowdown = fval()?,
                "module_retries" => plan.policy.max_module_retries = uval()? as u32,
                "retry_budget" => plan.policy.serve_retry_budget = uval()? as u32,
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        for (name, rate) in [
            ("bit_flip", plan.bit_flip_rate),
            ("double_frac", plan.double_bit_fraction),
            ("crc", plan.crc_corruption_rate),
            ("vault_out", plan.vault_outage_rate),
            ("module_out", plan.module_outage_rate),
            ("straggle", plan.straggler_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if plan.straggler_slowdown < 1.0 {
            return Err(format!(
                "slowdown must be >= 1.0, got {}",
                plan.straggler_slowdown
            ));
        }
        Ok(plan)
    }
}

/// Seeded process-crash chooser for crash-recovery testing.
///
/// The mutable store's durability contract is "replaying the WAL after a
/// crash restores bit-identical state". Exercising that contract needs a
/// crash *point* — how many WAL bytes actually reached stable storage
/// before the process died, including torn tails that cut a record in
/// half. `CrashSpec` derives that point deterministically from
/// `(seed, event)` through the same splitmix64 mixer as the other fault
/// channels, so a failing crash case replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Base seed; different seeds give independent crash schedules.
    pub seed: u64,
}

impl CrashSpec {
    /// A crash schedule from a seed.
    pub fn new(seed: u64) -> Self {
        CrashSpec { seed }
    }

    /// How many WAL bytes survive crash number `event` of a log currently
    /// `wal_len` bytes long: uniform over `0..=wal_len`, so whole-record
    /// boundaries, torn tails, and the empty log are all reachable.
    pub fn torn_tail(&self, event: u64, wal_len: u64) -> u64 {
        if wal_len == 0 {
            return 0;
        }
        let mut h = self.seed ^ GOLDEN;
        for x in [DOMAIN_CRASH, event, wal_len] {
            h = mix(h.wrapping_add(GOLDEN) ^ x);
        }
        h % (wal_len + 1)
    }

    /// Per-module torn tail: like [`torn_tail`], but folds the module
    /// (shard replica) id into the hash chain, so a single crash event
    /// cuts every module's WAL at an *independent* point — the realistic
    /// sharded-crash shape where each device lost a different amount of
    /// its unsynced tail. `module` participates in the fold even when the
    /// lengths coincide, so two modules with identical WALs still tear
    /// differently.
    ///
    /// [`torn_tail`]: CrashSpec::torn_tail
    pub fn torn_tail_for(&self, module: u64, event: u64, wal_len: u64) -> u64 {
        if wal_len == 0 {
            return 0;
        }
        let mut h = self.seed ^ GOLDEN;
        for x in [DOMAIN_CRASH, module, event, wal_len] {
            h = mix(h.wrapping_add(GOLDEN) ^ x);
        }
        h % (wal_len + 1)
    }
}

/// Fault accounting that travels with telemetry records.
///
/// The counters obey linear closure invariants (see [`check_closure`]) so
/// they can be summed across vaults, queries, and modules and still balance:
/// an injected fault either leaves a "handled" trace (corrected, retried-ok,
/// failed-over) or a "lost" trace (a unit in `lost_units` with a cause
/// counter and the matching drop in `covered_vectors`).
///
/// [`check_closure`]: FaultRecord::check_closure
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultRecord {
    /// ECC events injected (single- or double-bit).
    pub bit_flip_events: u64,
    /// Single-bit events corrected in place by SECDED.
    pub ecc_corrected: u64,
    /// Double-bit events detected but not correctable.
    pub ecc_uncorrectable: u64,
    /// Corrupted link-transfer attempts caught by CRC.
    pub crc_corruptions: u64,
    /// Corrupted attempts recovered by retransmission (transfer succeeded).
    pub link_retries_ok: u64,
    /// Corrupted attempts on transfers that ultimately failed.
    pub link_failed_attempts: u64,
    /// Transfers abandoned after exhausting retries (one per lost link).
    pub link_failures: u64,
    /// (query, vault) scans skipped because the vault was unreachable.
    pub vault_outages: u64,
    /// Module-batch attempts that found the module unreachable.
    pub module_outages: u64,
    /// (query, vault) scans that ran at a straggler slowdown.
    pub stragglers: u64,
    /// Module touches recovered by failover to the next replica.
    pub failed_over: u64,
    /// Lost units by terminal cause (units also listed in `lost_units`).
    pub lost_ecc: u64,
    pub lost_link: u64,
    pub lost_outage: u64,
    pub lost_module: u64,
    /// Ids of lost units: vault ids at device level, shard ids at
    /// sharded-store level (sharded records also fold in the modules' own
    /// lost vaults).
    pub lost_units: Vec<u32>,
    /// Candidate vectors actually scanned for the query (or batch).
    pub covered_vectors: u64,
    /// Candidate vectors that should have been scanned.
    pub total_vectors: u64,
    /// Modeled time spent on recovery: retransmissions + failover backoff.
    pub recovery_seconds: f64,
}

impl FaultRecord {
    /// Total injected fault events.
    pub fn injected(&self) -> u64 {
        self.bit_flip_events
            + self.crc_corruptions
            + self.vault_outages
            + self.module_outages
            + self.stragglers
    }

    /// Fraction of the candidate set actually scanned; 1.0 when nothing was
    /// expected (e.g. modeled-only records).
    pub fn coverage(&self) -> f64 {
        if self.total_vectors == 0 {
            1.0
        } else {
            self.covered_vectors as f64 / self.total_vectors as f64
        }
    }

    /// True when the record shows no fault activity and full coverage.
    pub fn is_trivial(&self) -> bool {
        self.injected() == 0
            && self.failed_over == 0
            && self.lost_units.is_empty()
            && self.recovery_seconds == 0.0
            && self.covered_vectors == self.total_vectors
    }

    /// Fold `other` into `self`. All invariants are linear, so accumulated
    /// records still pass [`check_closure`](FaultRecord::check_closure).
    pub fn accumulate(&mut self, other: &FaultRecord) {
        self.bit_flip_events += other.bit_flip_events;
        self.ecc_corrected += other.ecc_corrected;
        self.ecc_uncorrectable += other.ecc_uncorrectable;
        self.crc_corruptions += other.crc_corruptions;
        self.link_retries_ok += other.link_retries_ok;
        self.link_failed_attempts += other.link_failed_attempts;
        self.link_failures += other.link_failures;
        self.vault_outages += other.vault_outages;
        self.module_outages += other.module_outages;
        self.stragglers += other.stragglers;
        self.failed_over += other.failed_over;
        self.lost_ecc += other.lost_ecc;
        self.lost_link += other.lost_link;
        self.lost_outage += other.lost_outage;
        self.lost_module += other.lost_module;
        self.lost_units.extend_from_slice(&other.lost_units);
        self.covered_vectors += other.covered_vectors;
        self.total_vectors += other.total_vectors;
        self.recovery_seconds += other.recovery_seconds;
    }

    /// Check that no fault vanished. Returns every violated invariant.
    pub fn check_closure(&self) -> Result<(), String> {
        let mut errs = Vec::new();
        if self.bit_flip_events != self.ecc_corrected + self.ecc_uncorrectable {
            errs.push(format!(
                "ECC leak: {} events != {} corrected + {} uncorrectable",
                self.bit_flip_events, self.ecc_corrected, self.ecc_uncorrectable
            ));
        }
        if self.crc_corruptions != self.link_retries_ok + self.link_failed_attempts {
            errs.push(format!(
                "CRC leak: {} corruptions != {} retried-ok + {} on-failed-links",
                self.crc_corruptions, self.link_retries_ok, self.link_failed_attempts
            ));
        }
        if self.link_failures > 0 && self.link_failed_attempts < self.link_failures {
            errs.push(format!(
                "{} link failures but only {} corrupted attempts on failed links",
                self.link_failures, self.link_failed_attempts
            ));
        }
        let lost = self.lost_ecc + self.lost_link + self.lost_outage + self.lost_module;
        if self.lost_units.len() as u64 != lost {
            errs.push(format!(
                "lost-unit leak: {} units != {} ecc + {} link + {} outage + {} module causes",
                self.lost_units.len(),
                self.lost_ecc,
                self.lost_link,
                self.lost_outage,
                self.lost_module
            ));
        }
        if self.lost_outage != self.vault_outages {
            errs.push(format!(
                "outage leak: {} vault outages != {} vaults lost to outage",
                self.vault_outages, self.lost_outage
            ));
        }
        if self.lost_link != self.link_failures {
            errs.push(format!(
                "link-loss leak: {} link failures != {} vaults lost to link",
                self.link_failures, self.lost_link
            ));
        }
        if self.covered_vectors > self.total_vectors {
            errs.push(format!(
                "coverage overflow: covered {} > total {}",
                self.covered_vectors, self.total_vectors
            ));
        }
        if self.lost_units.is_empty() && self.covered_vectors != self.total_vectors {
            errs.push(format!(
                "silent coverage loss: no lost units but covered {} != total {}",
                self.covered_vectors, self.total_vectors
            ));
        }
        if !self.lost_units.is_empty() && self.covered_vectors == self.total_vectors {
            errs.push(format!(
                "phantom loss: {} lost units but full coverage",
                self.lost_units.len()
            ));
        }
        if !self.recovery_seconds.is_finite() || self.recovery_seconds < 0.0 {
            errs.push(format!("bad recovery_seconds: {}", self.recovery_seconds));
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_trivial_everywhere() {
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        for seq in 0..64 {
            for vault in 0..32 {
                assert!(plan.vault_fault(0, seq, vault).is_trivial());
            }
            assert!(!plan.module_outage(0, seq, seq % 4, 0));
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let plan = FaultPlan::chaos(42);
        let a = plan.vault_fault(3, 17, 5);
        let b = plan.vault_fault(3, 17, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn per_module_torn_tails_are_independent_and_bounded() {
        let crash = CrashSpec::new(0xDEAD_BEEF);
        for event in 0..8u64 {
            for len in [0u64, 1, 17, 4096] {
                for module in 0..6u64 {
                    let cut = crash.torn_tail_for(module, event, len);
                    assert!(cut <= len, "cut {cut} past wal end {len}");
                    assert_eq!(cut, crash.torn_tail_for(module, event, len));
                }
            }
            // Same event + length, different modules: the cut points must
            // decorrelate somewhere across events.
        }
        let differs = (0..16u64).any(|event| {
            crash.torn_tail_for(0, event, 4096) != crash.torn_tail_for(1, event, 4096)
        });
        assert!(differs, "module id never changed the torn-tail point");
        // The per-module variant is a distinct channel from the global one.
        let shifts = (0..16u64)
            .any(|event| crash.torn_tail_for(0, event, 4096) != crash.torn_tail(event, 4096));
        assert!(shifts, "torn_tail_for(0, ..) collapsed onto torn_tail");
    }

    #[test]
    fn seeds_decorrelate() {
        let a = FaultPlan::chaos(1);
        let b = FaultPlan::chaos(2);
        let differs = (0..256)
            .any(|seq| (0..32).any(|v| a.vault_fault(0, seq, v) != b.vault_fault(0, seq, v)));
        assert!(differs);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan {
            seed: 9,
            bit_flip_rate: 0.5,
            double_bit_fraction: 0.5,
            crc_corruption_rate: 0.25,
            vault_outage_rate: 0.1,
            straggler_rate: 0.2,
            ..FaultPlan::default()
        };
        let n = 20_000u64;
        let mut outages = 0u64;
        let mut flips = 0u64;
        let mut stragglers = 0u64;
        for seq in 0..n {
            let f = plan.vault_fault(0, seq, seq % 32);
            if f.outage {
                outages += 1;
                continue;
            }
            flips += u64::from(f.bit_flip_events);
            if f.slowdown > 1.0 {
                stragglers += 1;
            }
        }
        let live = (n - outages) as f64;
        assert!((outages as f64 / n as f64 - 0.1).abs() < 0.02);
        assert!((flips as f64 / live - 0.5).abs() < 0.05);
        assert!((stragglers as f64 / live - 0.2).abs() < 0.02);
    }

    #[test]
    fn dead_vaults_always_out() {
        let plan = FaultPlan {
            dead_vaults: vec![7],
            ..FaultPlan::default()
        };
        for seq in 0..32 {
            assert!(plan.vault_fault(0, seq, 7).outage);
            assert!(!plan.vault_fault(0, seq, 6).outage);
        }
    }

    #[test]
    fn link_retry_bound_is_respected() {
        let plan = FaultPlan {
            seed: 5,
            crc_corruption_rate: 0.9,
            max_link_retries: 2,
            ..FaultPlan::default()
        };
        let mut saw_failure = false;
        let mut saw_recovery = false;
        for seq in 0..512 {
            let f = plan.vault_fault(0, seq, 0);
            assert!(f.crc_corruptions <= plan.max_link_retries + 1);
            if f.link_failed {
                assert_eq!(f.crc_corruptions, plan.max_link_retries + 1);
                saw_failure = true;
            } else if f.crc_corruptions > 0 {
                saw_recovery = true;
            }
        }
        assert!(saw_failure && saw_recovery);
    }

    #[test]
    fn flip_positions_distinct_for_doubles() {
        let plan = FaultPlan::chaos(3);
        for e in 0..64 {
            let (p0, p1) = plan.flip_positions(0, 1, 2, e, 39, true);
            assert_ne!(p0, p1);
            assert!(p0 < 39 && p1 < 39);
            let (s0, s1) = plan.flip_positions(0, 1, 2, e, 39, false);
            assert_eq!(s0, s1);
        }
    }

    #[test]
    fn parser_round_trips_and_rejects() {
        let plan =
            FaultPlan::parse("seed=7,bit_flip=0.1,double_frac=0.2,crc=0.05,link_retries=3,vault_out=0.01,dead_vaults=1|5,straggle=0.1,slowdown=8,module_out=0.02,dead_modules=2,module_retries=4,retry_budget=2")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.bit_flip_rate, 0.1);
        assert_eq!(plan.max_link_retries, 3);
        assert_eq!(plan.dead_vaults, vec![1, 5]);
        assert_eq!(plan.dead_modules, vec![2]);
        assert_eq!(plan.straggler_slowdown, 8.0);
        assert_eq!(plan.policy.max_module_retries, 4);
        assert_eq!(plan.policy.serve_retry_budget, 2);
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("chaos:9").unwrap(), FaultPlan::chaos(9));
        assert!(FaultPlan::parse("chaos").unwrap().bit_flip_rate > 0.0);
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("bit_flip=2.0").is_err());
        assert!(FaultPlan::parse("slowdown=0.5").is_err());
        assert!(FaultPlan::parse("bit_flip").is_err());
    }

    #[test]
    fn closure_catches_leaks() {
        let mut r = FaultRecord {
            bit_flip_events: 3,
            ecc_corrected: 2,
            ecc_uncorrectable: 1,
            lost_ecc: 1,
            lost_units: vec![4],
            covered_vectors: 90,
            total_vectors: 100,
            ..FaultRecord::default()
        };
        r.check_closure().unwrap();
        r.ecc_corrected = 1; // one event vanished
        assert!(r.check_closure().unwrap_err().contains("ECC leak"));
    }

    #[test]
    fn closure_survives_accumulation() {
        let a = FaultRecord {
            crc_corruptions: 2,
            link_retries_ok: 2,
            covered_vectors: 50,
            total_vectors: 50,
            ..FaultRecord::default()
        };
        let mut b = FaultRecord {
            vault_outages: 1,
            lost_outage: 1,
            lost_units: vec![3],
            covered_vectors: 40,
            total_vectors: 50,
            ..FaultRecord::default()
        };
        a.check_closure().unwrap();
        b.check_closure().unwrap();
        b.accumulate(&a);
        b.check_closure().unwrap();
        assert_eq!(b.injected(), 3);
        assert!((b.coverage() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff(1), p.backoff_base);
        assert_eq!(p.backoff(2), p.backoff_base * 2.0);
        assert!(p.backoff(30) <= p.backoff_cap);
    }
}
