//! Seeded inputs: the dataset, the query set, the paced arrival
//! schedule and the op sequence are pure functions of `--seed`. The
//! program under test only ever sees what this module generates.

use std::time::Duration;

use ssam_datasets::generator::generate;
use ssam_datasets::PaperDataset;
use ssam_knn::VectorStore;

use crate::rng::{mix, Rng};
use crate::spec::{Spec, DIMS};

/// One operation against the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A k-NN read of query `query` from the query set.
    Read {
        /// Index into [`Inputs::queries`].
        query: u32,
    },
    /// Insert (or overwrite) `uid` with payload `payload`.
    Insert {
        /// Target uid.
        uid: u32,
        /// Index into [`Inputs::payloads`].
        payload: u32,
    },
    /// Delete `uid`.
    Delete {
        /// Target uid.
        uid: u32,
    },
}

/// One scheduled arrival of the paced phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the phase start at which the op is due.
    pub at: Duration,
    /// The op.
    pub op: Op,
}

/// Everything a run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Vectors loaded before the run (uids `0..vectors` for the store).
    pub train: VectorStore,
    /// Insert payloads (store workloads only; empty otherwise).
    pub payloads: VectorStore,
    /// Distinct query vectors.
    pub queries: VectorStore,
    /// Paced arrival schedule, one list per generator stream.
    pub streams: Vec<Vec<Arrival>>,
    spec: Spec,
    seed: u64,
}

/// Stream tags keep the seed's sub-streams apart.
const DATA_STREAM: u64 = 1;
const SCHEDULE_STREAM: u64 = 2;
const SATURATION_STREAM: u64 = 3 << 40;
const PACED_OPS: u64 = 4 << 40;
const MIX_STREAM: u64 = 5 << 40;

/// Every aligned block of this many consecutive ops holds the store
/// mix's exact counts (6 reads, 3 inserts, 1 delete), so every run puts
/// the store through the same number of writes, seals and compactions.
const MIX_BLOCK: u64 = 10;

impl Inputs {
    /// Generates the inputs of `spec` for `seed`, with a paced schedule
    /// covering `paced`.
    pub fn generate(spec: &Spec, seed: u64, paced: Duration) -> Inputs {
        let payloads = spec.store.map_or(0, |m| m.payloads);
        let total = spec.vectors + payloads;
        let mut ds = PaperDataset::GloVe.scaled_spec(total as f64 / 1.2e6);
        ds.train = total;
        ds.queries = spec.queries;
        ds.seed = mix(seed ^ mix(DATA_STREAM));
        assert_eq!(ds.dims, DIMS, "GloVe stand-in is 100-d");
        let data = generate(&ds);
        let ids: Vec<u32> = (0..total as u32).collect();
        let (base, extra) = ids.split_at(spec.vectors);
        let streams = (0..spec.streams)
            .map(|s| {
                // A Poisson process conditioned on its arrival count: a
                // fixed number of uniform instants, sorted. The count is
                // the same on every seed, so every run offers the same
                // work.
                let mut rng = Rng::new(seed, SCHEDULE_STREAM + s as u64);
                let n = (spec.rate / spec.streams as f64 * paced.as_secs_f64()).round() as u64;
                let mut at: Vec<f64> = (0..n).map(|_| rng.unit() * paced.as_secs_f64()).collect();
                at.sort_by(f64::total_cmp);
                let tag = PACED_OPS + ((s as u64) << 32);
                at.iter()
                    .zip(0..)
                    .map(|(&t, i)| Arrival {
                        at: Duration::from_secs_f64(t),
                        op: draw_op(spec, seed, tag, i),
                    })
                    .collect()
            })
            .collect();
        Inputs {
            train: data.train.subset(base),
            payloads: data.train.subset(extra),
            queries: data.queries,
            streams,
            spec: *spec,
            seed,
        }
    }

    /// The `i`-th op of the saturation phase (unbounded, seeded).
    pub fn saturation_op(&self, i: u64) -> Op {
        draw_op(&self.spec, self.seed, SATURATION_STREAM, i)
    }

    /// The workload these inputs were generated for.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The query vector of a read.
    pub fn query(&self, q: u32) -> &[f32] {
        self.queries.get(q)
    }
}

/// Op `i` of the sequence tagged `tag`, drawn from the workload's mix.
fn draw_op(spec: &Spec, seed: u64, tag: u64, i: u64) -> Op {
    let mut rng = Rng::new(seed, tag + i);
    let nq = spec.queries as u64;
    let Some(m) = spec.store else {
        return Op::Read {
            query: rng.below(nq) as u32,
        };
    };
    // The op's kind is its slot in a seeded shuffle of its block.
    let mut slots: Vec<u64> = (0..MIX_BLOCK).collect();
    let mut block = Rng::new(seed ^ mix(tag), MIX_STREAM + i / MIX_BLOCK);
    for j in (1..slots.len()).rev() {
        let k = block.below(j as u64 + 1) as usize;
        slots.swap(j, k);
    }
    let kind = slots[(i % MIX_BLOCK) as usize] as f64;
    let block_len = MIX_BLOCK as f64;
    if kind < (m.read * block_len).round() {
        Op::Read {
            query: rng.below(nq) as u32,
        }
    } else if kind < ((m.read + m.insert) * block_len).round() {
        Op::Insert {
            uid: rng.below(u64::from(m.uid_space)) as u32,
            payload: rng.below(m.payloads as u64) as u32,
        }
    } else {
        Op::Delete {
            uid: rng.below(u64::from(m.uid_space)) as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::find;

    fn ops(inputs: &Inputs) -> Vec<Op> {
        (0..500).map(|i| inputs.saturation_op(i)).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let spec = find("store_mixed").expect("workload");
        let a = Inputs::generate(spec, 7, Duration::from_secs(2));
        let b = Inputs::generate(spec, 7, Duration::from_secs(2));
        assert_eq!(a.streams, b.streams);
        assert_eq!(ops(&a), ops(&b));
        assert_eq!(a.train.as_flat(), b.train.as_flat());
        assert_eq!(a.queries.as_flat(), b.queries.as_flat());
        assert_eq!(a.payloads.as_flat(), b.payloads.as_flat());
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        let spec = find("store_mixed").expect("workload");
        let a = Inputs::generate(spec, 7, Duration::from_secs(2));
        let b = Inputs::generate(spec, 8, Duration::from_secs(2));
        assert_ne!(a.streams, b.streams);
        assert_ne!(ops(&a), ops(&b));
        assert_ne!(a.train.as_flat(), b.train.as_flat());
        assert_ne!(a.queries.as_flat(), b.queries.as_flat());
    }

    #[test]
    fn schedules_match_the_offered_rate_and_mix() {
        let spec = find("store_mixed").expect("workload");
        let inputs = Inputs::generate(spec, 1, Duration::from_secs(20));
        let arrivals = &inputs.streams[0];
        assert_eq!(arrivals.len() as f64, spec.rate * 20.0);
        for block in arrivals.chunks_exact(MIX_BLOCK as usize) {
            let count = |f: fn(&Op) -> bool| block.iter().filter(|a| f(&a.op)).count();
            assert_eq!(count(|o| matches!(o, Op::Read { .. })), 6);
            assert_eq!(count(|o| matches!(o, Op::Insert { .. })), 3);
            assert_eq!(count(|o| matches!(o, Op::Delete { .. })), 1);
        }
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(inputs.train.len(), spec.vectors);
        assert!(inputs.queries.len() >= 1_000);
    }

    #[test]
    fn tcp_streams_are_independent() {
        let spec = find("tcp_unbatched").expect("workload");
        let inputs = Inputs::generate(spec, 3, Duration::from_secs(4));
        assert_eq!(inputs.streams.len(), 2);
        assert_ne!(inputs.streams[0], inputs.streams[1]);
        assert!(inputs.payloads.is_empty());
    }
}
