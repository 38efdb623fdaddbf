//! `e2e`: end-to-end benchmark of the tuning service, driven only through
//! its public `JobEngine`, `Journal` and fleet-controller APIs. See
//! README.md for the workloads and metrics.
//!
//! ```text
//! e2e --seed S [--workload W] [--seconds N] [--trace [0|1]] [--json OUT]
//! ```
//!
//! Without `--workload` it re-executes itself once per workload, so peak
//! memory is measured per workload. The last line of a single-workload run
//! is one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (untraced) or the per-layer metrics (`--trace`).

mod metrics;
mod record;
mod stats;
mod workloads;

use metrics::Metric;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use workloads::{Ctx, Unit, Workload};

/// Seconds measured per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

/// Every environment variable that changes how the product runs. A run
/// with any of them set would not measure the product's defaults.
const TUNING_ENV: [&str; 9] = [
    "OTUNE_THREADS",
    "OTUNE_SHARDS",
    "OTUNE_INCREMENTAL",
    "OTUNE_SPARSE_GP",
    "OTUNE_SIMD",
    "OTUNE_JOURNAL_SYNC",
    "OTUNE_JOURNAL_SEGMENT_BYTES",
    "OTUNE_POOL_CUTOFF_NS",
    "OTUNE_CRASH_AT",
];

/// Scratch space for journals, under the working directory.
const SCRATCH_ROOT: &str = ".bench_tmp";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut it = args.peekable();
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
    };
    let mut seed = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            // `--trace` alone, or with an explicit 0 or 1.
            "--trace" => {
                args.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            _ => return Err(format!("unexpected argument {flag}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2e: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<i32, String> {
    let args = parse_args(std::env::args().skip(1))?;
    if let Some(var) = TUNING_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "e2e: {var} is set; unset every OTUNE_* tuning variable so that both sides \
             of a comparison measure the product's defaults"
        );
        return Ok(2);
    }
    match args.workload {
        Some(w) => run_workload(w, &args),
        None => run_all(&args),
    }
}

/// Re-execute this binary once per workload, forwarding the arguments.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut code = 0;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(json) = &args.json {
            cmd.arg("--json")
                .arg(json.with_extension(format!("{}.json", w.name())));
        }
        let status = cmd.status().map_err(|e| format!("run {}: {e}", w.name()))?;
        if !status.success() {
            eprintln!("e2e: workload {} failed ({status})", w.name());
            code = 1;
        }
    }
    Ok(code)
}

/// The run's scratch directory, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn create(w: Workload) -> Result<Scratch, String> {
        let dir = Path::new(SCRATCH_ROOT).join(format!("e2e-{}-{}", w.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run still uses the root.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// Run `unit(0)`, `unit(1)`, … at least `min` times, then as long as one
/// more, taking as long as the last, would end within `budget` of
/// `start`. Returns what completed, and the error that stopped it early.
fn repeat<T>(
    start: Instant,
    budget: Duration,
    min: usize,
    mut unit: impl FnMut(u64) -> Result<T, String>,
) -> (Vec<T>, Result<(), String>) {
    let mut done = Vec::new();
    let mut last = Duration::ZERO;
    while done.len() < min.max(1) || start.elapsed() + last <= budget {
        let t = Instant::now();
        match unit(done.len() as u64) {
            Ok(u) => done.push(u),
            Err(e) => return (done, Err(e)),
        }
        last = t.elapsed();
    }
    (done, Ok(()))
}

#[derive(Serialize)]
struct MetricValue {
    value: f64,
    unit: &'static str,
}

/// The result line.
#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

/// The `--json` report.
#[derive(Serialize)]
struct Report {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    host_parallelism: usize,
    pool_threads: f64,
    shards: usize,
    /// `(setup_s, measured_s, evals, objective gain)` of every unit.
    units: Vec<(f64, f64, u64, f64)>,
    trace_digest: String,
    latency: stats::Summary,
    correct: bool,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    check_failures: Vec<String>,
    metrics: Vec<Metric>,
    spans: Vec<record::BenchSpan>,
}

fn run_workload(w: Workload, args: &Args) -> Result<i32, String> {
    let scratch = Scratch::create(w)?;
    let mut ctx = Ctx {
        rec: record::Recorder::default(),
        seed: args.seed,
        traced: false,
        tmp: scratch.0.clone(),
        failures: Vec::new(),
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);

    // A traced run measures each unit untraced and then traced, so drift
    // in the host's speed affects both alike. The difference is tracing
    // overhead; the first pair also warms the process, so it is left out
    // when there are others.
    let (units, reference, outcome) = if args.trace {
        let (pairs, outcome) = repeat(start, budget, 2, |k| {
            ctx.traced = false;
            let plain = w.unit(&mut ctx, k)?;
            ctx.traced = true;
            Ok((w.unit(&mut ctx, k)?, plain))
        });
        let (units, reference): (Vec<Unit>, Vec<Unit>) = pairs.into_iter().unzip();
        (units, reference, outcome)
    } else {
        let (units, outcome) = repeat(start, budget, w.min_units(), |k| w.unit(&mut ctx, k));
        (units, Vec::new(), outcome)
    };
    if let Err(e) = outcome {
        ctx.failures.push(format!("stopped: {e}"));
    }

    let latency = stats::Summary::of(&metrics::latency_samples(w, &units, &ctx.rec));
    let all = if units.is_empty() {
        Vec::new()
    } else if args.trace {
        let skip = usize::from(units.len() > 1);
        let measured = |us: &[Unit]| us[skip..].iter().map(|u| u.measured_s).sum::<f64>();
        let overhead = measured(&units) / measured(&reference) - 1.0;
        metrics::per_layer(&units, &ctx.rec, overhead)
    } else {
        metrics::end_to_end(w, &units, &ctx.rec)
    };

    let name = w.name();
    let first = units.first();
    let digest = format!("{:016x}", first.map_or(0, |u| u.digest));
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool_threads = first.map_or(0.0, |u| u.pool_threads);
    let shards = otune_core::FleetOptions::from_env().shards;
    for m in &all {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} trace_digest {digest} fnv1a");
    println!("{name} units {} count", units.len());
    println!("{name} host_parallelism {host} threads");
    println!("{name} pool_threads {pool_threads} threads");
    println!("{name} shards {shards} count");
    if let Some(coverage) = metrics::wave_coverage(&units, &ctx.rec) {
        println!("{name} wave_coverage {coverage} fraction");
    }
    let tail = latency
        .tail
        .map_or("none".to_string(), |(q, v)| format!("p{}={v}", q * 100.0));
    println!(
        "{name} latency_s n={} p25={} p50={} p75={} tail:{tail}",
        latency.n, latency.p25, latency.p50, latency.p75
    );
    for failure in &ctx.failures {
        eprintln!("e2e: {name}: check failed: {failure}");
    }

    let correct = ctx.failures.is_empty();
    if let Some(path) = &args.json {
        let report = Report {
            workload: name,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            host_parallelism: host,
            pool_threads,
            shards,
            units: units
                .iter()
                .map(|u| {
                    (
                        u.setup_s,
                        u.measured_s,
                        u.evals,
                        otune_bench::geo_mean(&u.gains),
                    )
                })
                .collect(),
            trace_digest: digest,
            latency,
            correct,
            attempted: ctx.rec.attempted,
            failed: ctx.rec.failed,
            errors: ctx.rec.errors.clone(),
            check_failures: ctx.failures.clone(),
            metrics: all.clone(),
            spans: if args.trace {
                ctx.rec.spans().to_vec()
            } else {
                Vec::new()
            },
        };
        let text = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let line = ResultLine {
        correct,
        attempted: ctx.rec.attempted,
        failed: ctx.rec.failed,
        metrics: all
            .into_iter()
            .map(|m| {
                let value = MetricValue {
                    value: m.value,
                    unit: m.unit,
                };
                (m.name, value)
            })
            .collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(if correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::Churn));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let a = parse(&["--seed", "1", "--trace", "0"]).unwrap();
        assert!(a.workload.is_none() && !a.trace);
        assert!(parse(&["--seed", "1", "--trace"]).unwrap().trace);
        assert!(
            parse(&["--workload", "campaign"]).is_err(),
            "seed is required"
        );
        assert!(parse(&["--seed", "1", "--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1", "0"]).is_err());
    }
}
