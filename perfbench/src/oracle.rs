//! Answer checks: a reference device's answers for the immutable
//! workloads, reply invariants plus a rebuild comparison for the store,
//! and the telemetry and fault-ledger checks.

use std::sync::Arc;

use ssam_core::device::{DeviceMetric, DeviceQuery, SsamDevice};
use ssam_core::telemetry::Telemetry;
use ssam_knn::{Neighbor, VectorStore};
use ssam_store::Store;

use crate::spec::{device_config, K};

/// A reply reduced to what must match exactly: ids and distance bits.
pub type Answer = Vec<(u32, u32)>;

/// Reduces neighbors to their exact image.
pub fn answer(neighbors: &[Neighbor]) -> Answer {
    neighbors.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// Reference answers for every query of the set, computed with
/// `SsamDevice::query` on a device of its own.
#[derive(Debug)]
pub struct Oracle {
    answers: Vec<Answer>,
}

impl Oracle {
    /// Answers every query in `queries` against `train`, on two threads.
    pub fn compute(train: &VectorStore, queries: &VectorStore) -> Oracle {
        let mut device = SsamDevice::new(device_config());
        device.load_vectors(train);
        let ids: Vec<u32> = (0..queries.len() as u32).collect();
        let halves: Vec<Vec<Answer>> = std::thread::scope(|s| {
            let workers: Vec<_> = ids
                .chunks(ids.len().div_ceil(2).max(1))
                .map(|chunk| {
                    let mut dev = device.clone();
                    std::thread::Builder::new()
                        .name("perfbench-oracle".into())
                        .spawn_scoped(s, move || {
                            chunk
                                .iter()
                                .map(|&q| {
                                    let r = dev
                                        .query(&DeviceQuery::Euclidean(queries.get(q)), K)
                                        .expect("reference query");
                                    answer(&r.neighbors)
                                })
                                .collect()
                        })
                        .expect("spawn oracle thread")
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("oracle thread"))
                .collect()
        });
        Oracle {
            answers: halves.into_iter().flatten().collect(),
        }
    }

    /// The reference answer of query `q`.
    pub fn get(&self, q: u32) -> &Answer {
        &self.answers[q as usize]
    }
}

/// How a read reply is checked.
#[derive(Debug, Clone)]
pub enum Checker {
    /// Exactly equal to the reference answer.
    Oracle(Arc<Oracle>),
    /// Store reads: k results, ordered by (dist, id), no duplicate uid,
    /// every uid inside the workload's uid space.
    Store {
        /// Exclusive upper bound on uids.
        uid_space: u32,
    },
}

impl Checker {
    /// Checks the reply to query `q`.
    pub fn check(&self, q: u32, got: &[Neighbor]) -> Result<(), String> {
        match self {
            Checker::Oracle(o) => {
                let got = answer(got);
                if &got == o.get(q) {
                    Ok(())
                } else {
                    Err(format!("query {q}: got {got:?}, reference {:?}", o.get(q)))
                }
            }
            Checker::Store { uid_space } => check_store_reply(q, got, *uid_space),
        }
    }
}

/// The live set stays far above k on the store workload, so every read
/// must return exactly k neighbors.
fn check_store_reply(q: u32, got: &[Neighbor], uid_space: u32) -> Result<(), String> {
    if got.len() != K {
        return Err(format!("query {q}: {} neighbors, want {K}", got.len()));
    }
    if got.windows(2).any(|w| w[0] >= w[1]) {
        return Err(format!(
            "query {q}: neighbors not strictly ordered by (dist, id): {:?}",
            answer(got)
        ));
    }
    let mut uids: Vec<u32> = got.iter().map(|n| n.id).collect();
    uids.sort_unstable();
    if uids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("query {q}: duplicate uid in {uids:?}"));
    }
    if let Some(u) = uids.iter().find(|&&u| u >= uid_space) {
        return Err(format!("query {q}: uid {u} outside [0, {uid_space})"));
    }
    Ok(())
}

/// Compares `Store::query` with a fresh device built over the store's
/// live set, bit for bit, on the sampled queries. Returns how many
/// queries were compared.
pub fn store_matches_rebuild(
    store: &mut Store,
    queries: &VectorStore,
    sample: &[u32],
) -> Result<usize, String> {
    let live = store.live_set();
    let mut vectors = VectorStore::with_capacity(store.config().dims, live.len());
    for (_, v) in &live {
        vectors.push(v);
    }
    let mut device = SsamDevice::new(store.config().device);
    device.load_vectors(&vectors);
    for &q in sample {
        let qv = queries.get(q);
        let got = store
            .query(qv, DeviceMetric::Euclidean, K)
            .map_err(|e| format!("store query {q}: {e}"))?;
        let want = device
            .query(&DeviceQuery::Euclidean(qv), K)
            .map_err(|e| format!("rebuild query {q}: {e}"))?;
        let want: Answer = want
            .neighbors
            .iter()
            .map(|n| (live[n.id as usize].0, n.dist.to_bits()))
            .collect();
        let got = answer(&got.neighbors);
        if got != want {
            return Err(format!(
                "query {q}: store {got:?} differs from rebuild {want:?}"
            ));
        }
    }
    Ok(sample.len())
}

/// Every record the sink verified is clean and the fault ledger closes.
/// Returns the number of records checked.
pub fn check_telemetry(sink: &Telemetry) -> Result<usize, String> {
    let violations = sink.violations();
    if !violations.is_empty() {
        return Err(format!(
            "{} telemetry violations, first: {}",
            violations.len(),
            violations[0]
        ));
    }
    sink.fault_totals()
        .check_closure()
        .map_err(|e| format!("fault ledger does not close: {e}"))?;
    Ok(sink.len())
}
