//! The serving benchmark of the SSAM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small_batched --seed 1 --seconds 40 --trace 0
//! ```
//!
//! One run sets the workload's server up several times (reporting the
//! median set-up time), warms it, then measures a paced open loop and a
//! closed loop at saturation. Every reply is checked. With `--trace 0`
//! the last line of standard output is the end-to-end result; with
//! `--trace 1` the run also measures a traced copy of both phases and
//! replays each layer's public functions, and the last line carries the
//! per-layer ledger instead. See `perfbench/README.md`.

mod cpu;
mod inputs;
mod ledger;
mod oracle;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::inputs::Inputs;
use crate::ledger::{Ledger, Observed};
use crate::oracle::{check_telemetry, store_matches_rebuild, Checker, Oracle};
use crate::run::{lock, Ctx, Phase, Stand};
use crate::spec::{find, Spec, SPECS};
use crate::stats::{beyond, median, percentile};
use crate::trace::{SpanLog, Trace};

const USAGE: &str =
    "usage: ssam-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Unmeasured closed-loop warm-up, seconds.
const WARMUP_S: f64 = 0.3;
/// Largest tolerated gap between a paced phase's offered and achieved
/// send rates.
const PACING_TOLERANCE: f64 = 0.05;
/// Queries of the store workload compared against a rebuilt device.
const REBUILD_SAMPLE: u32 = 32;
/// TCP connections the generator may open.
const MAX_CONNECTIONS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(1.0..=120.0).contains(&s) {
                    return Err("--seconds must be within [1, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ssam-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = find(&args.workload) else {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "ssam-perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    match bench(spec, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ssam-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Failures that make a run wrong or invalid.
#[derive(Default)]
struct Verdict {
    wrong: Vec<String>,
    invalid: Vec<String>,
}

impl Verdict {
    fn phase(&mut self, label: &str, p: &Phase) {
        if p.failed > 0 {
            println!(
                "{label}: {} of {} ops failed, first: {}",
                p.failed,
                p.attempted,
                p.first_error.as_deref().unwrap_or("?")
            );
        }
        if p.wrong > 0 {
            self.wrong.push(format!(
                "{label}: {} wrong replies, first: {}",
                p.wrong,
                p.first_wrong.as_deref().unwrap_or("?")
            ));
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        if p.threads > nproc || p.connections > MAX_CONNECTIONS {
            self.invalid.push(format!(
                "{label}: {} generator threads and {} connections on {nproc} cores",
                p.threads, p.connections
            ));
        }
    }

    fn paced(&mut self, label: &str, p: &Phase) {
        self.phase(label, p);
        if p.pacing.is_empty() {
            self.invalid.push(format!("{label}: no paced arrivals"));
        }
        // Each stream on its own: a lagging writer must not hide behind
        // a punctual reader.
        for (i, &(offered, achieved)) in p.pacing.iter().enumerate() {
            let divergence = (achieved - offered).abs() / offered;
            // NaN (no arrivals) counts as diverged.
            if divergence.is_nan() || divergence > PACING_TOLERANCE {
                self.invalid.push(format!(
                    "{label}: stream {i} offered {offered:.1} ops/s but achieved {achieved:.1} ops/s"
                ));
            }
        }
        let n = p.read_ms.len();
        if beyond(n, 0.99) < 10 {
            self.invalid.push(format!(
                "{label}: {n} reads leave fewer than 10 samples beyond p99"
            ));
        }
    }
}

fn bench(spec: &Spec, args: &Args) -> Result<bool, String> {
    let paced_s = args.seconds * spec.paced_share;
    let saturation_s = args.seconds - paced_s;
    let saturation_ops = (spec.peak * saturation_s) as u64;
    let inputs = Inputs::generate(spec, args.seed, Duration::from_secs_f64(paced_s));
    let checker = match spec.store {
        Some(m) => Checker::Store {
            uid_space: m.uid_space,
        },
        None => Checker::Oracle(Arc::new(Oracle::compute(&inputs.train, &inputs.queries))),
    };
    println!(
        "workload {} seed {}: {} vectors x {}-d, {} distinct queries, paced {:.0} ops/s over {} stream(s) for {:.1} s, saturation {} ops",
        spec.name,
        args.seed,
        inputs.train.len(),
        inputs.train.dims(),
        inputs.queries.len(),
        spec.rate,
        spec.streams,
        paced_s,
        saturation_ops
    );

    let mut setups = Vec::with_capacity(SETUPS);
    let mut stand = None;
    for _ in 0..SETUPS {
        if let Some(old) = stand.take() {
            Stand::shut_down(old);
        }
        let (s, took) = Stand::set_up(spec, &inputs, &checker)?;
        setups.push(took);
        stand = Some(s);
    }
    let mut stand = stand.expect("at least one set-up");
    let mut verdict = Verdict::default();

    let ctx = Ctx {
        inputs: &inputs,
        checker: &checker,
        trace: false,
    };
    let (warm, _) = stand.saturate(&ctx, 1, (spec.peak * WARMUP_S) as u64);
    verdict.phase("warm-up", &warm);
    let (paced, _) = stand.paced(&ctx, 2);
    verdict.paced("paced", &paced);

    let (result, attempted, failed) = if args.trace {
        let ctx = Ctx { trace: true, ..ctx };
        traced(
            spec,
            args,
            &mut stand,
            &ctx,
            &paced,
            saturation_ops,
            &mut verdict,
        )?
    } else {
        let before = stand.store_stats();
        let (sat, _) = stand.saturate(&ctx, 3, saturation_ops);
        verdict.phase("saturation", &sat);
        if let (Some(a), Some(b)) = (before, stand.store_stats()) {
            println!(
                "store over saturation: segments {} -> {}, levels {} -> {}, {} seals, {} compactions",
                a.segments,
                b.segments,
                a.levels,
                b.levels,
                b.seals - a.seals,
                b.compactions - a.compactions
            );
        }
        let result = report_end_to_end(spec, &setups, &paced, &sat);
        (
            result,
            paced.attempted + sat.attempted,
            paced.failed + sat.failed,
        )
    };

    if let Some(store) = stand.store() {
        let sample: Vec<u32> = (0..REBUILD_SAMPLE).collect();
        let mut st = lock(&store);
        st.record_account("perfbench end of run");
        match store_matches_rebuild(&mut st, &inputs.queries, &sample) {
            Ok(n) => println!("store equals a rebuild over its live set on {n} queries"),
            Err(e) => verdict.wrong.push(e),
        }
    }
    match check_telemetry(&stand.sink) {
        Ok(n) => println!("telemetry: {n} verified records, 0 violations, fault ledger closes"),
        Err(e) => verdict.wrong.push(e),
    }
    let stats = stand.stats();
    stand.shut_down();
    println!(
        "server: {} submitted, {} served, {} batches (mean {:.2}), {} inserts, {} deletes",
        stats.submitted,
        stats.served,
        stats.batches,
        stats.mean_batch(),
        stats.inserts,
        stats.deletes
    );
    println!(
        "error_rate = {} fraction ({failed} of {attempted} ops failed)",
        failed as f64 / attempted.max(1) as f64
    );
    for w in &verdict.wrong {
        println!("WRONG: {w}");
    }
    for w in &verdict.invalid {
        println!("INVALID: {w}");
    }
    let correct = verdict.wrong.is_empty();
    println!("{}", result_line(correct, attempted, failed, &result));
    Ok(correct && verdict.invalid.is_empty())
}

/// A metric of the result line: name, value, unit.
type Row = (&'static str, f64, &'static str);

/// The traced run: both phases again with spans, then the per-layer
/// replays. Returns the ledger rows and the traced phases' op counts.
fn traced(
    spec: &Spec,
    args: &Args,
    stand: &mut Stand,
    ctx: &Ctx<'_>,
    untraced: &Phase,
    saturation_ops: u64,
    verdict: &mut Verdict,
) -> Result<(Vec<Row>, u64, u64), String> {
    let epoch = Instant::now();
    let serve0 = stand.stats();
    let store0 = stand.store_stats();
    let (paced, mut logs) = stand.paced(ctx, 4);
    verdict.paced("traced paced", &paced);
    let (sat, sat_logs) = stand.saturate(ctx, 5, saturation_ops);
    verdict.phase("traced saturation", &sat);
    logs.extend(sat_logs);
    let serve1 = stand.stats();
    let store1 = stand.store_stats();
    let paced_p50_ms = (median(&untraced.read_ms), median(&paced.read_ms));
    let threads = paced.threads.max(sat.threads);
    let mut both = Phase::default();
    both.merge(paced);
    both.merge(sat);
    both.threads = threads;
    let mut log = SpanLog::new(1 << 20);
    let seen = Observed {
        traced: &both,
        paced_p50_ms,
        serve: (&serve0, &serve1),
        store: store0.zip(store1),
    };
    let ledger = ledger::measure(spec, ctx.inputs, stand, &seen, &mut log).unwrap_or_else(|e| {
        verdict.wrong.push(e);
        Ledger::new()
    });
    logs.push(log);
    let mut trace = Trace::new(epoch);
    for l in logs {
        trace.absorb(l);
    }
    report_trace(&trace, spec, args)?;
    Ok((ledger.rows().collect(), both.attempted, both.failed))
}

/// Prints and collects the end-to-end metrics of an untraced run.
fn report_end_to_end(spec: &Spec, setups: &[f64], paced: &Phase, sat: &Phase) -> Vec<Row> {
    let reads = paced.read_ms.len();
    let ops = sat.completed.max(1) as f64;
    let closed = format!("n={} ops in {:.2} s", sat.completed, sat.wall_s);
    let rows = [
        (
            "setup_s",
            median(setups),
            "s",
            format!("median of {} set-ups: {setups:.4?}", setups.len()),
        ),
        (
            "read_p50_ms",
            median(&paced.read_ms),
            "ms",
            format!("n={reads}"),
        ),
        (
            "read_p99_ms",
            percentile(&paced.read_ms, 0.99),
            "ms",
            format!("n={reads}, {} beyond", beyond(reads, 0.99)),
        ),
        (
            "peak_ops_per_s",
            sat.completed as f64 / sat.wall_s,
            "ops/s",
            closed.clone(),
        ),
        (
            "cpu_us_per_op",
            sat.server_cpu_ns as f64 / ops / 1e3,
            "us",
            closed,
        ),
    ];
    let mut out = Vec::new();
    for (name, value, unit, note) in rows {
        println!("{name} = {value} {unit} ({note})");
        out.push((name, value, unit));
    }
    if spec.store.is_some() {
        let writes = paced.write_ms.len();
        println!("write_p50_ms = {} ms (n={writes})", median(&paced.write_ms));
        println!(
            "write_p99_ms = {} ms (n={writes}, {} beyond)",
            percentile(&paced.write_ms, 0.99),
            beyond(writes, 0.99)
        );
    }
    let tail: Vec<String> = [0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
        .iter()
        .map(|&q| format!("p{} {:.3}", q * 100.0, percentile(&paced.read_ms, q)))
        .collect();
    println!("read tail (ms): {}", tail.join(", "));
    let streams: Vec<String> = paced
        .pacing
        .iter()
        .map(|(o, a)| format!("offered {o:.1} achieved {a:.1} ops/s"))
        .collect();
    println!(
        "pacing: {}; generator late p99 {:.3} ms, {} threads",
        streams.join(", "),
        percentile(&paced.late_ms, 0.99),
        paced.threads
    );
    out
}

/// Writes the spans and prints each layer's self time.
fn report_trace(trace: &Trace, spec: &Spec, args: &Args) -> Result<(), String> {
    let path =
        PathBuf::from("perfbench/out").join(format!("{}-seed{}.spans.jsonl", spec.name, args.seed));
    trace
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", trace.len(), path.display());
    println!(
        "{:<32} {:>9} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for t in trace.self_times() {
        println!(
            "{:<32} {:>9} {:>12.3} {:>12.3}",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(())
}

/// The machine-readable result: the last line of standard output.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Row]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}
