//! The assembled HMC module: vaults behind a switch plus external links.
//!
//! Provides the two timing queries the SSAM device model needs:
//!
//! 1. **Internal streaming** — how long vault-local processing units take to
//!    scan a sharded dataset (each vault streams its own shard in
//!    parallel; the module finishes when the largest shard does).
//! 2. **External transfer** — how long host↔module traffic takes over the
//!    links, including FLIT packetization overhead.
//!
//! It also supports interleaved transaction traffic for the
//! standard-memory ("SSAM logic bypassed") operating mode.

use crate::address::AddressMap;
use crate::config::HmcConfig;
use crate::packet::bulk_wire_bytes;
use crate::vault::{VaultController, VaultStats};

/// One HMC module with live vault controllers.
#[derive(Debug, Clone)]
pub struct HmcModule {
    config: HmcConfig,
    vaults: Vec<VaultController>,
    map: AddressMap,
}

impl HmcModule {
    /// Builds a module in SSAM sharded mode.
    pub fn new_sharded(config: HmcConfig) -> Self {
        let map = AddressMap::sharded(&config);
        Self::with_map(config, map)
    }

    /// Builds a module in standard interleaved mode.
    pub fn new_interleaved(config: HmcConfig) -> Self {
        let map = AddressMap::interleaved(&config);
        Self::with_map(config, map)
    }

    fn with_map(config: HmcConfig, map: AddressMap) -> Self {
        let vaults = (0..config.vaults)
            .map(|_| VaultController::new(config.vault_bandwidth, config.access_latency))
            .collect();
        Self {
            config,
            vaults,
            map,
        }
    }

    /// Module configuration.
    pub fn config(&self) -> &HmcConfig {
        &self.config
    }

    /// Issues a read of `[addr, addr+len)` at time `now`, splitting across
    /// vaults per the address map. Returns completion time (all extents
    /// done).
    pub fn read(&mut self, now: f64, addr: u64, len: u64) -> f64 {
        let mut done = now;
        for (vault, bytes) in self.map.split_range(addr, len) {
            let d = self.vaults[vault as usize].read(now, bytes);
            done = done.max(d);
        }
        done
    }

    /// Issues a write of `[addr, addr+len)` at time `now`. Returns
    /// completion time.
    pub fn write(&mut self, now: f64, addr: u64, len: u64) -> f64 {
        let mut done = now;
        for (vault, bytes) in self.map.split_range(addr, len) {
            let d = self.vaults[vault as usize].write(now, bytes);
            done = done.max(d);
        }
        done
    }

    /// Seconds for every vault to stream its shard of a dataset whose
    /// shards are `shard_bytes[v]` — the SSAM scan pattern. The module
    /// finishes when the slowest (largest) shard does.
    ///
    /// # Panics
    /// Panics if more shards than vaults are given.
    pub fn parallel_stream_time(&self, shard_bytes: &[u64]) -> f64 {
        assert!(
            shard_bytes.len() <= self.vaults.len(),
            "more shards ({}) than vaults ({})",
            shard_bytes.len(),
            self.vaults.len()
        );
        shard_bytes
            .iter()
            .zip(&self.vaults)
            .map(|(&b, v)| v.stream_time(b))
            .fold(0.0, f64::max)
    }

    /// Seconds for vault-local compute to stream `total_bytes` divided
    /// evenly across all vaults (the balanced-shard fast path).
    pub fn balanced_stream_time(&self, total_bytes: u64) -> f64 {
        let per = total_bytes.div_ceil(self.config.vaults as u64);
        self.config.access_latency + per as f64 / self.config.vault_bandwidth
    }

    /// Seconds to move `payload_bytes` across the external links,
    /// including FLIT packetization overhead.
    pub fn external_transfer_time(&self, payload_bytes: u64) -> f64 {
        bulk_wire_bytes(payload_bytes) as f64 / self.config.external_bandwidth
    }

    /// Extra link time charged when CRC forces `retries` retransmissions of
    /// a `payload_bytes` transfer: each retry re-sends the wire bytes and
    /// pays a fixed `penalty` (timeout + reissue overhead).
    pub fn external_retry_time(&self, payload_bytes: u64, retries: u32, penalty: f64) -> f64 {
        f64::from(retries) * (self.external_transfer_time(payload_bytes) + penalty)
    }

    /// Mutable access to one vault controller (fault injection hooks).
    pub fn vault_mut(&mut self, vault: usize) -> &mut VaultController {
        &mut self.vaults[vault]
    }

    /// Marks a vault failed; its shard becomes unreachable.
    pub fn fail_vault(&mut self, vault: usize) {
        self.vaults[vault].fail();
    }

    /// Revives a failed vault at nominal speed.
    pub fn revive_vault(&mut self, vault: usize) {
        self.vaults[vault].revive();
    }

    /// Number of vaults currently serving requests.
    pub fn healthy_vaults(&self) -> usize {
        self.vaults.iter().filter(|v| !v.is_failed()).count()
    }

    /// Like [`parallel_stream_time`](Self::parallel_stream_time) but skips
    /// failed vaults instead of returning infinity. Returns the completion
    /// time over healthy vaults and the bytes actually covered — the
    /// degraded-mode scan the fault-tolerant device model uses.
    pub fn degraded_stream_time(&self, shard_bytes: &[u64]) -> (f64, u64) {
        assert!(
            shard_bytes.len() <= self.vaults.len(),
            "more shards ({}) than vaults ({})",
            shard_bytes.len(),
            self.vaults.len()
        );
        let mut t = 0.0f64;
        let mut covered = 0u64;
        for (&b, v) in shard_bytes.iter().zip(&self.vaults) {
            if v.is_failed() {
                continue;
            }
            t = t.max(v.stream_time(b));
            covered += b;
        }
        (t, covered)
    }

    /// Aggregated statistics over all vaults.
    pub fn total_stats(&self) -> VaultStats {
        let mut agg = VaultStats::default();
        for v in &self.vaults {
            let s = v.stats();
            agg.bytes_read += s.bytes_read;
            agg.bytes_written += s.bytes_written;
            agg.transactions += s.transactions;
            agg.busy_time += s.busy_time;
        }
        agg
    }

    /// Per-vault statistics.
    pub fn vault_stats(&self) -> Vec<VaultStats> {
        self.vaults.iter().map(|v| v.stats()).collect()
    }

    /// Achieved internal bandwidth over a window of `elapsed` seconds.
    pub fn achieved_bandwidth(&self, elapsed: f64) -> f64 {
        if elapsed <= 0.0 {
            return 0.0;
        }
        let s = self.total_stats();
        (s.bytes_read + s.bytes_written) as f64 / elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_stream_hits_aggregate_bandwidth() {
        let m = HmcModule::new_sharded(HmcConfig::hmc2());
        // 320 GB over 32 vaults at 10 GB/s each: 1 second (+latency).
        let t = m.balanced_stream_time(320_000_000_000);
        assert!((t - 1.0).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn ddr_equivalent_is_an_order_of_magnitude_slower() {
        // The paper's headline bandwidth claim: 320 GB/s vs 25 GB/s.
        let m = HmcModule::new_sharded(HmcConfig::hmc2());
        let hmc_t = m.balanced_stream_time(25_000_000_000);
        let ddr_t = 1.0; // 25 GB at 25 GB/s
        assert!(ddr_t / hmc_t > 10.0);
    }

    #[test]
    fn parallel_stream_bound_by_largest_shard() {
        let m = HmcModule::new_sharded(HmcConfig::hmc2());
        let mut shards = vec![1_000u64; 32];
        shards[7] = 10_000_000_000; // 1 s at 10 GB/s
        let t = m.parallel_stream_time(&shards);
        assert!((t - 1.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn too_many_shards_rejected() {
        let m = HmcModule::new_sharded(HmcConfig::hmc2());
        let shards = vec![1u64; 33];
        let _ = m.parallel_stream_time(&shards);
    }

    #[test]
    fn interleaved_read_uses_many_vaults() {
        let mut m = HmcModule::new_interleaved(HmcConfig::hmc2());
        m.read(0.0, 0, 256 * 32);
        let active = m.vault_stats().iter().filter(|s| s.bytes_read > 0).count();
        assert_eq!(active, 32);
    }

    #[test]
    fn sharded_read_stays_local() {
        let mut m = HmcModule::new_sharded(HmcConfig::hmc2());
        m.read(0.0, 0, 1 << 20);
        let active = m.vault_stats().iter().filter(|s| s.bytes_read > 0).count();
        assert_eq!(active, 1);
    }

    #[test]
    fn interleaved_read_is_faster_than_sharded_for_one_stream() {
        let cfg = HmcConfig::hmc2();
        let mut inter = HmcModule::new_interleaved(cfg);
        let mut shard = HmcModule::new_sharded(cfg);
        let len = 64 << 20;
        let t_inter = inter.read(0.0, 0, len);
        let t_shard = shard.read(0.0, 0, len);
        assert!(
            t_inter < t_shard,
            "interleaving should parallelize one stream"
        );
    }

    #[test]
    fn external_transfer_includes_packet_overhead() {
        let m = HmcModule::new_sharded(HmcConfig::hmc2());
        // 128 B payload costs 160 B wire.
        let t = m.external_transfer_time(128);
        assert!((t - 160.0 / 240.0e9).abs() < 1e-18);
    }

    #[test]
    fn failed_vault_blocks_parallel_stream_but_degraded_mode_skips_it() {
        let mut m = HmcModule::new_sharded(HmcConfig::hmc2());
        let shards = vec![1_000_000u64; 32];
        let nominal = m.parallel_stream_time(&shards);
        m.fail_vault(5);
        assert_eq!(m.healthy_vaults(), 31);
        assert!(m.parallel_stream_time(&shards).is_infinite());
        let (t, covered) = m.degraded_stream_time(&shards);
        assert!((t - nominal).abs() < 1e-15);
        assert_eq!(covered, 31_000_000);
        m.revive_vault(5);
        let (_, covered) = m.degraded_stream_time(&shards);
        assert_eq!(covered, 32_000_000);
    }

    #[test]
    fn straggler_vault_stretches_the_scan() {
        let mut m = HmcModule::new_sharded(HmcConfig::hmc2());
        let shards = vec![1_000_000u64; 32];
        let nominal = m.parallel_stream_time(&shards);
        m.vault_mut(3).set_slowdown(4.0);
        let slowed = m.parallel_stream_time(&shards);
        assert!(
            (slowed - 4.0 * nominal).abs() < 1e-12,
            "{slowed} vs {nominal}"
        );
    }

    #[test]
    fn retry_time_scales_with_retries() {
        let m = HmcModule::new_sharded(HmcConfig::hmc2());
        let one = m.external_retry_time(1024, 1, 1e-6);
        let three = m.external_retry_time(1024, 3, 1e-6);
        assert_eq!(m.external_retry_time(1024, 0, 1e-6), 0.0);
        assert!(one > 1e-6);
        assert!((three - 3.0 * one).abs() < 1e-18);
    }

    #[test]
    fn stats_aggregate_reads_and_writes() {
        let mut m = HmcModule::new_sharded(HmcConfig::hmc2());
        m.read(0.0, 0, 1000);
        m.write(0.0, 0, 500);
        let s = m.total_stats();
        assert_eq!(s.bytes_read, 1000);
        assert_eq!(s.bytes_written, 500);
        assert!(m.achieved_bandwidth(1.0) > 0.0);
        assert_eq!(m.achieved_bandwidth(0.0), 0.0);
    }
}
