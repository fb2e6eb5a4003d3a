//! The per-layer ledger of a traced run: observations the phases made
//! at the program's public boundaries, plus replays that time each
//! layer's public functions on the run's own inputs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ssam_core::analysis::cost::{estimate_with, CostParams};
use ssam_core::device::{raw_distance, DeviceMetric, DeviceQuery, SsamDevice};
use ssam_core::isa::PQUEUE_DEPTH;
use ssam_core::kernels::linear;
use ssam_core::sim::HardwarePriorityQueue;
use ssam_core::telemetry::Telemetry;
use ssam_knn::fixed::Fix32;
use ssam_knn::topk::TopK;
use ssam_knn::{Neighbor, VectorStore};
use ssam_serve::net::{
    decode_reply, decode_request, encode_reply, encode_request, NetClient, NetServer,
};
use ssam_serve::{DeviceAccount, OwnedQuery, Request, Response, Server, ServerStats};
use ssam_store::{decode_stream, Store, StoreStats, Wal, WalRecord};

use crate::cpu::thread_cpu_ns;
use crate::inputs::Inputs;
use crate::run::{lock, Phase, Stand};
use crate::spec::{device_config, serve_config, store_config, Spec, DIMS, K, MAX_BATCH};
use crate::stats::{mean, median, percentile};
use crate::trace::{SpanLog, NO_PARENT};

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.batches", "count"),
    ("serve.rejected", "count"),
    ("net.overhead_us.p50", "us"),
    ("net.overhead_us.p99", "us"),
    ("net.codec_us", "us"),
    ("device.b1_us_per_query", "us"),
    ("device.bmax_us_per_query", "us"),
    ("cost.estimate_us", "us"),
    ("cost.share_b1", "fraction"),
    ("kernel.ns_per_elem", "ns"),
    ("kernel.stream_ns_per_elem", "ns"),
    ("kernel.bound_ratio", "ratio"),
    ("pqueue.insert_ns", "ns"),
    ("topk.merge_us", "us"),
    ("telemetry.us_per_query", "us"),
    ("telemetry.records", "count"),
    ("store.insert_us.p50", "us"),
    ("store.insert_us.p99", "us"),
    ("store.delete_us.p50", "us"),
    ("store.query_us.p50", "us"),
    ("store.segments_per_read", "count"),
    ("store.useful_ratio", "fraction"),
    ("store.seals", "count"),
    ("store.compactions", "count"),
    ("store.compact_ms.total", "ms"),
    ("store.compact_ms.max", "ms"),
    ("store.write_amp", "ratio"),
    ("store.read_during_compaction_p99_ms", "ms"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_write", "bytes"),
    ("gen.late_ms.p99", "ms"),
    ("gen.threads", "count"),
    ("trace.overhead_ms", "ms"),
];

/// CPU time each replay spends, at the least.
const REPLAY_BUDGET: Duration = Duration::from_millis(150);
/// Sequential reads of the `net` replay: 10 beyond its p99.
const NET_REPLAY_READS: usize = 1_000;

/// Per-layer values by name; layers a workload does not exercise stay 0.
#[derive(Debug)]
pub struct Ledger {
    values: Vec<f64>,
}

impl Ledger {
    /// A ledger with every metric at 0.
    pub fn new() -> Self {
        Ledger {
            values: vec![0.0; PER_LAYER.len()],
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let at = PER_LAYER
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.values[at] = if value.is_finite() { value } else { 0.0 };
    }

    /// `(name, value, unit)` in report order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(&(n, u), &v)| (n, v, u))
    }
}

/// What the traced phases observed, for the ledger.
pub struct Observed<'a> {
    /// The traced phases, merged.
    pub traced: &'a Phase,
    /// Read p50 of the untraced and traced paced phases, ms.
    pub paced_p50_ms: (f64, f64),
    /// Server counters before and after the traced phases.
    pub serve: (&'a ServerStats, &'a ServerStats),
    /// Store counters before and after the traced phases.
    pub store: Option<(StoreStats, StoreStats)>,
}

/// Calls `f(0)`, `f(1)`, ... until it has used [`REPLAY_BUDGET`] of
/// thread CPU and run at least `min_calls` times, as one span named
/// after the call; returns calls and CPU ns.
fn replay(
    log: &mut SpanLog,
    name: &'static str,
    min_calls: usize,
    mut f: impl FnMut(usize),
) -> (usize, u64) {
    let t0 = Instant::now();
    let c0 = thread_cpu_ns();
    let budget = REPLAY_BUDGET.as_nanos() as u64;
    let mut calls = 0;
    while calls < min_calls || thread_cpu_ns() - c0 < budget {
        f(calls);
        calls += 1;
    }
    let ns = thread_cpu_ns() - c0;
    log.child(name, 0, NO_PARENT, t0, Instant::now());
    (calls, ns)
}

/// Q16.16 words of `v`, padded to the device's row width.
fn words(v: &[f32], width: usize) -> Vec<i32> {
    let mut out: Vec<i32> = v.iter().map(|&x| Fix32::from_f32(x).0).collect();
    out.resize(width, 0);
    out
}

/// Builds the ledger of a traced run.
pub fn measure(
    spec: &Spec,
    inputs: &Inputs,
    stand: &Stand,
    seen: &Observed<'_>,
    log: &mut SpanLog,
) -> Result<Ledger, String> {
    let mut l = Ledger::new();
    let t = seen.traced;

    if !spec.tcp {
        l.set("serve.submit_us.p50", percentile(&t.submit_us, 0.5));
        l.set("serve.submit_us.p99", percentile(&t.submit_us, 0.99));
    }
    l.set("serve.queue_ms.p50", percentile(&t.queue_ms, 0.5));
    l.set("serve.queue_ms.p99", percentile(&t.queue_ms, 0.99));
    l.set("serve.service_ms.p50", percentile(&t.service_ms, 0.5));
    let (s0, s1) = seen.serve;
    let batches = s1.batches - s0.batches;
    l.set("serve.batches", batches as f64);
    l.set(
        "serve.batch_mean",
        (s1.served - s0.served) as f64 / batches.max(1) as f64,
    );
    let rejected =
        |s: &ServerStats| s.rejected_overload + s.rejected_rate_limited + s.rejected_deadline;
    l.set("serve.rejected", (rejected(s1) - rejected(s0)) as f64);
    l.set("gen.late_ms.p99", percentile(&t.late_ms, 0.99));
    l.set("gen.threads", t.threads as f64);
    l.set("telemetry.records", stand.sink.len() as f64);
    l.set(
        "trace.overhead_ms",
        seen.paced_p50_ms.1 - seen.paced_p50_ms.0,
    );

    // The replays run on a device identical to the served one: the
    // loaded vectors, or the store's live set at the end of the run.
    let (train, store) = match stand.store() {
        Some(s) => {
            let live = lock(&s).live_set();
            let mut vs = VectorStore::with_capacity(DIMS, live.len());
            for (_, v) in &live {
                vs.push(v);
            }
            (vs, Some(s))
        }
        None => (inputs.train.clone(), None),
    };
    let mut device = SsamDevice::new(device_config());
    device.load_vectors(&train);
    let query = |i: usize| inputs.query((i % inputs.queries.len()) as u32);
    replay_device(&mut l, &device, &query, log);
    replay_primitives(&mut l, &train, &query, &device, log);

    if spec.tcp {
        l.set("net.overhead_us.p50", percentile(&t.net_overhead_us, 0.5));
        l.set("net.overhead_us.p99", percentile(&t.net_overhead_us, 0.99));
    } else {
        replay_net(&mut l, &device, &query, log)?;
    }
    replay_codec(&mut l, &mut device, &query, log)?;
    if let (Some(store), Some((st0, st1))) = (store, seen.store) {
        l.set("store.insert_us.p50", percentile(&t.insert_us, 0.5));
        l.set("store.insert_us.p99", percentile(&t.insert_us, 0.99));
        l.set("store.delete_us.p50", percentile(&t.delete_us, 0.5));
        l.set(
            "store.segments_per_read",
            t.segments as f64 / t.store_reads.max(1) as f64,
        );
        l.set(
            "store.useful_ratio",
            t.returned as f64 / (t.returned + t.suppressed).max(1) as f64,
        );
        l.set("store.seals", (st1.seals - st0.seals) as f64);
        l.set(
            "store.compactions",
            (st1.compactions - st0.compactions) as f64,
        );
        l.set(
            "store.compact_ms.total",
            (st1.compact_seconds - st0.compact_seconds) * 1e3,
        );
        l.set("store.compact_ms.max", st1.max_compact_seconds * 1e3);
        let written = |s: &StoreStats| (s.wal_bytes + s.staged_bytes) as f64;
        l.set(
            "store.write_amp",
            (written(&st1) - written(&st0)) / (st1.payload_bytes - st0.payload_bytes).max(1) as f64,
        );
        l.set(
            "store.read_during_compaction_p99_ms",
            percentile(&t.during_compaction_ms, 0.99),
        );
        let wal = lock(&store).wal_bytes().to_vec();
        replay_store(&mut l, &wal, &query, log)?;
    }
    Ok(l)
}

/// `device.*`, `cost.*` and `telemetry.us_per_query`.
fn replay_device<'q>(
    l: &mut Ledger,
    device: &SsamDevice,
    query: &impl Fn(usize) -> &'q [f32],
    log: &mut SpanLog,
) {
    let mut dev = device.clone();
    let batch = |dev: &mut SsamDevice, i: usize, size: usize| {
        let qs: Vec<DeviceQuery<'_>> = (0..size)
            .map(|j| DeviceQuery::Euclidean(query(i * size + j)))
            .collect();
        black_box(dev.query_batch(&qs, K).expect("replay batch"));
    };
    batch(&mut dev, 0, 1);
    let (calls, ns) = replay(log, "device.query_batch.b1", 32, |i| batch(&mut dev, i, 1));
    let b1 = ns as f64 / calls as f64 / 1e3;
    l.set("device.b1_us_per_query", b1);
    let (calls, ns) = replay(log, "device.query_batch.bmax", 8, |i| {
        batch(&mut dev, i, MAX_BATCH)
    });
    let bmax = ns as f64 / (calls * MAX_BATCH) as f64 / 1e3;
    l.set("device.bmax_us_per_query", bmax);
    let mut with_sink = device.clone();
    with_sink.attach_telemetry(&Telemetry::new());
    let (calls, ns) = replay(log, "device.query_batch.telemetry", 8, |i| {
        batch(&mut with_sink, i, MAX_BATCH)
    });
    l.set(
        "telemetry.us_per_query",
        ns as f64 / (calls * MAX_BATCH) as f64 / 1e3 - bmax,
    );

    // The fast path runs the static cost model over the served kernel's
    // program once per (vault, tile), at n = vectors per vault.
    let config = device_config();
    let vaults = config.hmc.vaults.min(device.len());
    let per_vault = device.len().div_ceil(vaults) as u64;
    let kernel = linear::euclidean(DIMS, config.vector_length);
    let params = CostParams::default();
    let (calls, ns) = replay(log, "cost.estimate_with", 16, |_| {
        black_box(estimate_with(
            &kernel.program,
            config.vector_length,
            per_vault,
            &params,
        ));
    });
    let est = ns as f64 / calls as f64 / 1e3;
    l.set("cost.estimate_us", est);
    l.set("cost.share_b1", vaults as f64 * est / b1);
}

/// `kernel.*`, `pqueue.insert_ns` and `topk.merge_us`.
fn replay_primitives<'q>(
    l: &mut Ledger,
    train: &VectorStore,
    query: &impl Fn(usize) -> &'q [f32],
    device: &SsamDevice,
    log: &mut SpanLog,
) {
    let width = device.vec_words();
    let n = train.len();
    let rows: Vec<i32> = train.iter().flat_map(|(_, v)| words(v, width)).collect();
    let scan = |q: &[i32]| -> Vec<i32> {
        rows.chunks_exact(width)
            .map(|c| raw_distance(DeviceMetric::Euclidean, q, c))
            .collect()
    };
    let staged: Vec<Vec<i32>> = (0..64).map(|i| words(query(i), width)).collect();
    let (calls, ns) = replay(log, "kernel.raw_distance", 4, |i| {
        black_box(scan(&staged[i % staged.len()]));
    });
    let elems = (n * width) as f64;
    let kernel = ns as f64 / (calls as f64 * elems);
    l.set("kernel.ns_per_elem", kernel);
    let (calls, ns) = replay(log, "kernel.stream", 4, |_| {
        black_box(
            black_box(&rows)
                .iter()
                .fold(0i32, |a, &w| a.wrapping_add(w)),
        );
    });
    let stream = ns as f64 / (calls as f64 * elems);
    l.set("kernel.stream_ns_per_elem", stream);
    l.set("kernel.bound_ratio", kernel / stream);

    let dists = scan(&staged[0]);
    let chain = K.div_ceil(PQUEUE_DEPTH);
    let (calls, ns) = replay(log, "pqueue.insert", 4, |_| {
        let mut pq = HardwarePriorityQueue::chained(chain);
        for (id, &d) in dists.iter().enumerate() {
            pq.insert(id as i32, d);
        }
        black_box(pq.entries().first().copied());
    });
    l.set("pqueue.insert_ns", ns as f64 / (calls * n) as f64);

    // Host merge: k candidates from each vault's shard, per query.
    let spans = device.shard_spans();
    let candidates: Vec<Vec<Neighbor>> = staged[..8]
        .iter()
        .map(|q| {
            let d = scan(q);
            spans
                .iter()
                .flat_map(|&(first, len)| {
                    let mut shard: Vec<Neighbor> = (first..first + len as u32)
                        .map(|id| Neighbor::new(id, Fix32(d[id as usize]).to_f32()))
                        .collect();
                    shard.sort();
                    shard.truncate(K);
                    shard
                })
                .collect()
        })
        .collect();
    let (calls, ns) = replay(log, "topk.offer", 64, |i| {
        let mut top = TopK::new(K);
        for c in &candidates[i % candidates.len()] {
            top.offer(c.id, c.dist);
        }
        black_box(top.into_sorted());
    });
    l.set("topk.merge_us", ns as f64 / calls as f64 / 1e3);
}

/// `net.overhead_us.*` off the TCP workload: a `NetServer` over a twin of
/// the served device, one blocking client sending reads back to back.
fn replay_net<'q>(
    l: &mut Ledger,
    device: &SsamDevice,
    query: &impl Fn(usize) -> &'q [f32],
    log: &mut SpanLog,
) -> Result<(), String> {
    let server = Server::start(device.clone(), serve_config());
    let net =
        NetServer::bind("127.0.0.1:0", server).map_err(|e| format!("net replay bind: {e}"))?;
    let mut client =
        NetClient::connect(net.local_addr()).map_err(|e| format!("net replay connect: {e}"))?;
    let t0 = Instant::now();
    let mut overhead_us = Vec::with_capacity(NET_REPLAY_READS);
    for i in 0..NET_REPLAY_READS {
        let request = Request::new(OwnedQuery::Euclidean(query(i).to_vec()), K);
        let sent = Instant::now();
        let r = client
            .query(&request)
            .map_err(|e| format!("net replay read {i}: {e}"))?;
        let round_trip = sent.elapsed().as_secs_f64();
        overhead_us.push((round_trip - r.queue_seconds - r.service_seconds) * 1e6);
    }
    log.child("net.replay", 0, NO_PARENT, t0, Instant::now());
    drop(client);
    net.shutdown();
    l.set("net.overhead_us.p50", percentile(&overhead_us, 0.5));
    l.set("net.overhead_us.p99", percentile(&overhead_us, 0.99));
    Ok(())
}

/// `net.codec_us`: one request and one reply through the wire codec.
fn replay_codec<'q>(
    l: &mut Ledger,
    device: &mut SsamDevice,
    query: &impl Fn(usize) -> &'q [f32],
    log: &mut SpanLog,
) -> Result<(), String> {
    let out = device
        .query_batch(&[DeviceQuery::Euclidean(query(0))], K)
        .map_err(|e| format!("codec replay query: {e}"))?;
    let r = &out.results[0];
    let reply = Ok(Response {
        neighbors: r.neighbors.clone(),
        account: DeviceAccount::Device {
            timing: r.timing.clone(),
            batch: out.timing,
        },
        batch_size: 1,
        queue_seconds: 1e-4,
        service_seconds: 1e-3,
        coverage: 1.0,
    });
    let requests: Vec<Request> = (0..64)
        .map(|i| Request::new(OwnedQuery::Euclidean(query(i).to_vec()), K))
        .collect();
    let mut failed = None;
    let (calls, ns) = replay(log, "net.codec", 64, |i| {
        let req = &requests[i % requests.len()];
        let back = decode_request(&encode_request(req));
        let reply = decode_reply(&encode_reply(&reply));
        if back.as_ref() != Ok(req) || !matches!(reply, Ok(Ok(_))) {
            failed = Some(format!("codec round trip {i} lost data"));
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    l.set("net.codec_us", ns as f64 / calls as f64 / 1e3);
    Ok(())
}

/// `store.query_us.p50` on a twin opened from the run's WAL, and the
/// `wal.*` replay of its record stream.
fn replay_store<'q>(
    l: &mut Ledger,
    wal: &[u8],
    query: &impl Fn(usize) -> &'q [f32],
    log: &mut SpanLog,
) -> Result<(), String> {
    let (mut twin, _) = log
        .time("store.open", NO_PARENT, || Store::open(store_config(), wal))
        .map_err(|e| format!("reopening the WAL: {e}"))?;
    let mut wall_us = Vec::new();
    let mut failed = None;
    replay(log, "store.query", 64, |i| {
        let t0 = Instant::now();
        let r = twin.query(query(i), DeviceMetric::Euclidean, K);
        wall_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = r {
            failed = Some(format!("twin query {i}: {e}"));
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    l.set("store.query_us.p50", median(&wall_us));

    let (records, _) = decode_stream(wal);
    let write_bytes: Vec<f64> = records
        .iter()
        .filter(|r| matches!(r, WalRecord::Insert { .. } | WalRecord::Delete { .. }))
        .map(|r| r.encode().len() as f64)
        .collect();
    l.set("wal.bytes_per_write", mean(&write_bytes));
    let (calls, ns) = replay(log, "wal.append", 1, |_| {
        let mut fresh = Wal::new();
        for r in &records {
            fresh.append(r);
            fresh.sync();
        }
        black_box(fresh.len());
    });
    l.set(
        "wal.append_us",
        ns as f64 / (calls * records.len()).max(1) as f64 / 1e3,
    );
    Ok(())
}
