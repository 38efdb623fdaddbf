//! Minimal argument parsing for the `otune` binary.

use std::collections::HashMap;
use std::time::Duration;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List available workloads.
    Workloads,
    /// Run one tuning session.
    Tune {
        /// Workload name.
        task: String,
        /// Objective exponent β.
        beta: f64,
        /// Iteration budget.
        budget: usize,
        /// RNG seed.
        seed: u64,
        /// Disable the GP safe region.
        no_safety: bool,
        /// Disable adaptive sub-space generation.
        no_subspace: bool,
        /// Disable approximate gradient descent.
        no_agd: bool,
        /// Optional JSON output path for the runhistory.
        out: Option<String>,
        /// Optional JSONL path for the telemetry event stream (a
        /// `<path>.metrics.json` snapshot is written alongside).
        events: Option<String>,
        /// Optional fault-injection spec, e.g. `oom:0.1,straggler:0.05`
        /// (see [`otune_sparksim::FaultProfile::parse`]).
        fault_profile: Option<String>,
        /// Optional Chrome-trace/Perfetto JSON output path; enables
        /// hierarchical tracing for the run.
        trace: Option<String>,
        /// Optional tuning-corpus JSONL path: the calibration run's
        /// meta-features retrieve a zero-execution bootstrap, and every
        /// completed observation is appended back.
        corpus: Option<String>,
    },
    /// Drive a simulated fleet of periodic tasks through the batched
    /// controller (per-task waves, shared meta store) and print throughput.
    TuneFleet {
        /// Number of simulated tasks (HiBench workloads, cycled).
        tasks: usize,
        /// Periodic executions per task.
        budget: usize,
        /// Wave-pool width override (default: `OTUNE_THREADS`).
        threads: Option<usize>,
        /// RNG seed.
        seed: u64,
        /// Optional JSONL path for the telemetry event stream (a
        /// `<path>.metrics.json` snapshot is written alongside).
        events: Option<String>,
        /// Optional Chrome-trace/Perfetto JSON output path; enables
        /// hierarchical tracing of the waves.
        trace: Option<String>,
        /// Optional Prometheus text-format sidecar path for the final
        /// metrics snapshot.
        prom: Option<String>,
        /// Optional tuning-corpus JSONL path: cold tasks bootstrap from
        /// k-NN retrieval over it, and every completed observation is
        /// appended back.
        corpus: Option<String>,
    },
    /// Run (or resume) a checkpointed tuning campaign under the job
    /// engine, either to completion or as a stdin-driven server.
    TuneServe {
        /// Journal path (JSONL; created if absent, resumed if it already
        /// holds a campaign).
        journal: String,
        /// Number of campaign tasks (first N HiBench workloads).
        tasks: usize,
        /// Waves (per-task tuning budget).
        budget: usize,
        /// Base RNG seed (task i derives seed + i).
        seed: u64,
        /// Objective exponent β.
        beta: f64,
        /// Consecutive failures before a task is dead-lettered.
        max_retries: usize,
        /// Journal a checkpoint (commit marker + sync barrier) every N
        /// completed waves (0 = none).
        checkpoint_every: u64,
        /// Optional stochastic fault-injection spec applied to every task
        /// (see [`otune_sparksim::FaultProfile::parse`]).
        fault_profile: Option<String>,
        /// Optional JSONL path for the telemetry event stream (a
        /// `<path>.metrics.json` snapshot is written alongside).
        events: Option<String>,
        /// Run every remaining wave immediately and exit instead of
        /// serving the stdin protocol.
        auto: bool,
        /// Journal sync policy (`every` | `batch:N` | `barrier`);
        /// defaults to the `OTUNE_JOURNAL_SYNC` environment variable,
        /// then `every`.
        sync: Option<String>,
    },
    /// Compare strategies on one task.
    Compare {
        /// Workload name.
        task: String,
        /// Iteration budget.
        budget: usize,
        /// Seeds (repetitions) per method.
        seeds: u64,
    },
    /// fANOVA parameter importance for one workload.
    Importance {
        /// Workload name.
        task: String,
        /// Random evaluations for the analysis.
        samples: usize,
    },
    /// Replay a telemetry event stream written by `tune --events`.
    Events {
        /// JSONL event-stream path.
        file: String,
        /// Only events of this task.
        task: Option<String>,
        /// Only events of this kind (e.g. `SuggestionMade`).
        kind: Option<String>,
    },
    /// Summarize the metrics snapshot of a tuning session.
    Stats {
        /// Metrics JSON path (or the events path, whose
        /// `<path>.metrics.json` sidecar is used).
        file: String,
        /// Emit the snapshot as machine-readable JSON (stable key order).
        json: bool,
        /// Emit the snapshot in Prometheus text exposition format.
        prom: bool,
    },
    /// Convert the trace spans of a JSONL event stream into a
    /// Chrome-trace/Perfetto JSON file and print latency attribution.
    Trace {
        /// JSONL event-stream path.
        file: String,
        /// Optional Chrome-trace JSON output path.
        out: Option<String>,
    },
    /// Live fleet introspection over a JSONL event stream.
    Top {
        /// JSONL event-stream path.
        file: String,
        /// Refresh at this interval until interrupted (default: render
        /// once and exit).
        watch: Option<Duration>,
    },
    /// Inspect, build, or query a persistent tuning corpus.
    Corpus {
        /// What to do with the corpus.
        action: CorpusAction,
        /// Corpus JSONL path.
        file: String,
    },
    /// Inspect and maintain job-engine journals in a directory.
    Jobs {
        /// What to do with the journals.
        action: JobsAction,
        /// Directory holding `*.jsonl` journals (segments included).
        journal_dir: String,
    },
    /// Print usage.
    Help,
}

/// Sub-action of `otune jobs`.
#[derive(Debug, Clone, PartialEq)]
pub enum JobsAction {
    /// One line per journal: job id, state, waves, last checkpoint seq,
    /// torn tails, segment count.
    List,
    /// Remove completed journals, keeping the `keep` most recent.
    Gc {
        /// Completed journals to keep (most recently modified first).
        keep: usize,
    },
}

/// Sub-action of `otune corpus`.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusAction {
    /// Simulate a fleet and append its outcomes.
    Build {
        /// Number of simulated tasks.
        tasks: usize,
        /// Periodic executions per task.
        budget: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Print record/task/torn counts and how many records retrieval
    /// standardizes over.
    Stats,
    /// k-NN query using a workload's default-run meta-features.
    Query {
        /// Workload name whose features form the query.
        task: String,
        /// Neighbors to retrieve.
        k: usize,
    },
}

/// Argument-parsing failures, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Usage text.
pub const USAGE: &str = "\
otune — online Spark tuning against the built-in simulator

USAGE:
  otune workloads
  otune tune --task <name> [--beta B] [--budget N] [--seed S]
             [--no-safety] [--no-subspace] [--no-agd]
             [--out FILE] [--events FILE] [--fault-profile SPEC]
             [--trace FILE] [--corpus FILE]

  SPEC injects faults into the simulated runs, e.g.
    --fault-profile oom:0.1,straggler:0.05,lost:0.02,tmax:120,seed:7
  (rates per run; `tmax` in seconds kills runs over budget; omitted
  keys default to 0 / off).
  otune tune-fleet [--tasks N] [--budget N] [--threads T] [--seed S]
                   [--events FILE] [--trace FILE] [--prom FILE]
                   [--corpus FILE]

  --corpus attaches a persistent tuning corpus (append-only JSONL):
  cold tasks bootstrap their first suggestions from k-NN retrieval
  over past (meta-features, config, outcome) records instead of
  low-discrepancy burn-in, and every completed observation is
  appended back for future fleets.
  otune tune-serve --journal FILE [--tasks N] [--budget N] [--seed S]
                   [--beta B] [--max-retries K] [--checkpoint-every N]
                   [--fault-profile SPEC] [--events FILE] [--auto]
                   [--sync every|batch:N|barrier]

  tune-serve runs a crash-recoverable campaign: every state transition
  is journaled (fsynced JSONL) and, if FILE already holds a campaign,
  it resumes by replaying every journaled wave — kill -9 safe. With --auto it
  runs all remaining waves and prints the fleet summary; without it,
  it serves a line protocol on stdin (`suggest`, `report <json>`,
  `wave`, `run`, `checkpoint`, `status`, `dlq`, `stop`; EOF pauses).
  Tasks failing more than --max-retries consecutive runs move to the
  dead-letter queue with their full failure history.
  --sync selects the group-commit fsync cadence (default `every`:
  one sync_data per appended line; `batch:N` groups N lines per
  sync; `barrier` syncs only at checkpoints/pause/stop). A checkpoint
  is a commit marker plus a sync barrier: every wave before an acked
  checkpoint survives kill -9 under every policy.
  otune jobs list    --journal-dir DIR
  otune jobs gc      --journal-dir DIR [--keep N]

  jobs list prints one line per journal in DIR: job id, state, waves
  completed, last checkpoint seq, torn tails, segment count. jobs gc
  removes completed journals (and their segments), keeping the
  --keep most recent (default 3).
  otune corpus build --file FILE [--tasks N] [--budget N] [--seed S]
  otune corpus stats --file FILE
  otune corpus query --file FILE --task <name> [--k K]
  otune compare --task <name> [--budget N] [--seeds K]
  otune importance --task <name> [--samples N]
  otune events --file FILE [--task ID] [--kind KIND]
  otune stats --file FILE [--json | --prom]
  otune trace --file FILE [--out TRACE.json]
  otune top --file FILE [--watch S]
  otune help

  Each subcommand rejects flags it does not list above. Counts and
  seeds are non-negative integers, and --seeds and --samples are at
  least 1; --beta and --watch take decimals, and --watch is positive.
  --trace enables hierarchical tracing (deterministic span ids, seeded
  by --seed) and writes a Chrome-trace/Perfetto JSON file loadable at
  ui.perfetto.dev; `otune trace` converts the spans embedded in a
  JSONL event stream instead, and prints per-phase latency
  attribution (exclusive time). `otune top` summarizes a fleet event
  stream: per-task incumbents, wave latency, failures, cache hits.
";

/// Parse a full argv (excluding the program name).
pub fn parse_args(argv: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = argv.first() else {
        return Ok(Command::Help);
    };
    // `corpus` and `jobs` take a positional sub-action before their flags.
    let (action, flag_args) = if cmd == "corpus" {
        match argv.get(1).map(String::as_str) {
            Some(a @ ("build" | "stats" | "query")) => (Some(a), &argv[2..]),
            other => {
                return Err(ParseError(format!(
                    "corpus expects build|stats|query, got {:?}",
                    other.unwrap_or("")
                )))
            }
        }
    } else if cmd == "jobs" {
        match argv.get(1).map(String::as_str) {
            Some(a @ ("list" | "gc")) => (Some(a), &argv[2..]),
            other => {
                return Err(ParseError(format!(
                    "jobs expects list|gc, got {:?}",
                    other.unwrap_or("")
                )))
            }
        }
    } else {
        (None, &argv[1..])
    };
    // Each subcommand accepts only its own flags: value flags, then
    // boolean switches (`--prom` takes a file for `tune-fleet` but is a
    // mode switch for `stats`). Anything else is rejected, so a typo
    // never silently falls back to a default.
    let (value_names, switch_names) = match (cmd.as_str(), action) {
        ("workloads" | "help" | "--help" | "-h", _) => ("", ""),
        ("tune", _) => (
            "task beta budget seed out events fault-profile trace corpus",
            "no-safety no-subspace no-agd",
        ),
        ("tune-fleet", _) => ("tasks budget threads seed events trace prom corpus", ""),
        ("tune-serve", _) => (
            "journal tasks budget seed beta max-retries checkpoint-every fault-profile events sync",
            "auto",
        ),
        ("jobs", Some("list")) => ("journal-dir", ""),
        ("jobs", _) => ("journal-dir keep", ""),
        ("corpus", Some("build")) => ("file tasks budget seed", ""),
        ("corpus", Some("stats")) => ("file", ""),
        ("corpus", _) => ("file task k", ""),
        ("compare", _) => ("task budget seeds", ""),
        ("importance", _) => ("task samples", ""),
        ("events", _) => ("file task kind", ""),
        ("stats", _) => ("file", "json prom"),
        ("trace", _) => ("file out", ""),
        ("top", _) => ("file watch", ""),
        (other, _) => {
            return Err(ParseError(format!(
                "unknown subcommand {other:?}; try `otune help`"
            )))
        }
    };
    let subcommand = match action {
        Some(a) => format!("{cmd} {a}"),
        None => cmd.clone(),
    };
    let (flags, switches) = split_flags(flag_args, value_names, switch_names, &subcommand)?;
    let get = |k: &str| flags.get(k).cloned();
    let req_task =
        || get("task").ok_or_else(|| ParseError("missing required --task <name>".into()));
    let num = |k: &str, default: f64| -> Result<f64, ParseError> {
        match get(k) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("--{k} expects a number, got {v:?}"))),
        }
    };
    match cmd.as_str() {
        "workloads" => Ok(Command::Workloads),
        "tune" => {
            let beta = num("beta", 0.5)?;
            if !(0.0..=1.0).contains(&beta) {
                return Err(ParseError(format!("--beta must lie in [0, 1], got {beta}")));
            }
            Ok(Command::Tune {
                task: req_task()?,
                beta,
                budget: int(&flags, "budget")?.unwrap_or(20),
                seed: int(&flags, "seed")?.unwrap_or(0),
                no_safety: switches.contains(&"no-safety".to_string()),
                no_subspace: switches.contains(&"no-subspace".to_string()),
                no_agd: switches.contains(&"no-agd".to_string()),
                out: get("out"),
                events: get("events"),
                fault_profile: get("fault-profile"),
                trace: get("trace"),
                corpus: get("corpus"),
            })
        }
        "tune-fleet" => Ok(Command::TuneFleet {
            tasks: int(&flags, "tasks")?.unwrap_or(50),
            budget: int(&flags, "budget")?.unwrap_or(5),
            threads: int(&flags, "threads")?,
            seed: int(&flags, "seed")?.unwrap_or(0),
            events: get("events"),
            trace: get("trace"),
            prom: get("prom"),
            corpus: get("corpus"),
        }),
        "tune-serve" => {
            let beta = num("beta", 0.5)?;
            if !(0.0..=1.0).contains(&beta) {
                return Err(ParseError(format!("--beta must lie in [0, 1], got {beta}")));
            }
            let sync = get("sync");
            if let Some(s) = &sync {
                if otune_core::telemetry::SyncPolicy::parse(s).is_none() {
                    return Err(ParseError(format!(
                        "--sync expects every|batch:N|barrier, got {s:?}"
                    )));
                }
            }
            Ok(Command::TuneServe {
                journal: get("journal")
                    .ok_or_else(|| ParseError("missing required --journal FILE".into()))?,
                tasks: int(&flags, "tasks")?.unwrap_or(4),
                budget: int(&flags, "budget")?.unwrap_or(8),
                seed: int(&flags, "seed")?.unwrap_or(42),
                beta,
                max_retries: int(&flags, "max-retries")?.unwrap_or(3),
                checkpoint_every: int(&flags, "checkpoint-every")?.unwrap_or(2),
                fault_profile: get("fault-profile"),
                events: get("events"),
                auto: switches.contains(&"auto".to_string()),
                sync,
            })
        }
        "jobs" => {
            let journal_dir = get("journal-dir")
                .ok_or_else(|| ParseError("missing required --journal-dir DIR".into()))?;
            let action = match action.expect("jobs action parsed above") {
                "list" => JobsAction::List,
                _ => JobsAction::Gc {
                    keep: int(&flags, "keep")?.unwrap_or(3),
                },
            };
            Ok(Command::Jobs {
                action,
                journal_dir,
            })
        }
        "corpus" => {
            let file =
                get("file").ok_or_else(|| ParseError("missing required --file FILE".into()))?;
            let action = match action.expect("corpus action parsed above") {
                "build" => CorpusAction::Build {
                    tasks: int(&flags, "tasks")?.unwrap_or(16),
                    budget: int(&flags, "budget")?.unwrap_or(5),
                    seed: int(&flags, "seed")?.unwrap_or(0),
                },
                "stats" => CorpusAction::Stats,
                _ => CorpusAction::Query {
                    task: req_task()?,
                    k: int(&flags, "k")?.unwrap_or(3),
                },
            };
            Ok(Command::Corpus { action, file })
        }
        "compare" => Ok(Command::Compare {
            task: req_task()?,
            budget: int(&flags, "budget")?.unwrap_or(30),
            seeds: at_least_one(&flags, "seeds")?.unwrap_or(2),
        }),
        "importance" => Ok(Command::Importance {
            task: req_task()?,
            samples: at_least_one(&flags, "samples")?.unwrap_or(150),
        }),
        "events" => Ok(Command::Events {
            file: get("file").ok_or_else(|| ParseError("missing required --file FILE".into()))?,
            task: get("task"),
            kind: get("kind"),
        }),
        "stats" => {
            let json = switches.contains(&"json".to_string());
            let prom = switches.contains(&"prom".to_string());
            if json && prom {
                return Err(ParseError(
                    "--json and --prom are mutually exclusive".into(),
                ));
            }
            Ok(Command::Stats {
                file: get("file")
                    .ok_or_else(|| ParseError("missing required --file FILE".into()))?,
                json,
                prom,
            })
        }
        "trace" => Ok(Command::Trace {
            file: get("file").ok_or_else(|| ParseError("missing required --file FILE".into()))?,
            out: get("out"),
        }),
        "top" => Ok(Command::Top {
            file: get("file").ok_or_else(|| ParseError("missing required --file FILE".into()))?,
            watch: get("watch")
                .map(|v| {
                    // NaN, infinities, non-positive values and intervals
                    // past `Duration`'s range (~1.8e19 s) are all rejected
                    // here, not after the first frame.
                    v.parse::<f64>()
                        .ok()
                        .filter(|&s| s > 0.0)
                        .and_then(|s| Duration::try_from_secs_f64(s).ok())
                        .ok_or_else(|| {
                            ParseError(format!(
                                "--watch expects a positive number of seconds, at most 1.8e19, got {v:?}"
                            ))
                        })
                })
                .transpose()?,
        }),
        // `help`, `--help` or `-h`: every other name was rejected above.
        _ => Ok(Command::Help),
    }
}

/// An optional integer flag (counts and seeds): a fraction, a sign or
/// `NaN` is rejected rather than cast.
fn int<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    k: &str,
) -> Result<Option<T>, ParseError> {
    flags
        .get(k)
        .map(|v| {
            v.parse()
                .map_err(|_| ParseError(format!("--{k} expects a non-negative integer, got {v:?}")))
        })
        .transpose()
}

/// An optional count flag that must be at least 1: zero seeds or samples
/// leave nothing to average or fit.
fn at_least_one<T: std::str::FromStr + PartialOrd + From<u8>>(
    flags: &HashMap<String, String>,
    k: &str,
) -> Result<Option<T>, ParseError> {
    match int::<T>(flags, k)? {
        Some(n) if n < T::from(1) => Err(ParseError(format!("--{k} must be at least 1, got 0"))),
        n => Ok(n),
    }
}

/// Split `--key value` pairs and boolean `--switch` flags, rejecting any
/// key that `subcommand` does not accept. `value_names` and
/// `switch_names` are space-separated flag names.
fn split_flags(
    args: &[String],
    value_names: &str,
    switch_names: &str,
    subcommand: &str,
) -> Result<(HashMap<String, String>, Vec<String>), ParseError> {
    let accepts = |names: &str, key: &str| names.split_whitespace().any(|n| n == key);
    let mut flags = HashMap::new();
    let mut switches = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(key) = arg.strip_prefix("--") else {
            return Err(ParseError(format!(
                "unexpected positional argument {arg:?}"
            )));
        };
        if accepts(switch_names, key) {
            switches.push(key.to_string());
            i += 1;
        } else if !accepts(value_names, key) {
            return Err(ParseError(format!(
                "unknown flag --{key} for `otune {subcommand}`"
            )));
        } else {
            let value = args
                .get(i + 1)
                .ok_or_else(|| ParseError(format!("--{key} expects a value")))?;
            flags.insert(key.to_string(), value.clone());
            i += 2;
        }
    }
    Ok((flags, switches))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_tune_with_defaults() {
        let cmd = parse_args(&argv("tune --task terasort")).unwrap();
        assert_eq!(
            cmd,
            Command::Tune {
                task: "terasort".into(),
                beta: 0.5,
                budget: 20,
                seed: 0,
                no_safety: false,
                no_subspace: false,
                no_agd: false,
                out: None,
                events: None,
                fault_profile: None,
                trace: None,
                corpus: None,
            }
        );
    }

    #[test]
    fn parses_tune_with_everything() {
        let cmd = parse_args(&argv(
            "tune --task kmeans --beta 1 --budget 30 --seed 7 --no-agd --out h.json --events e.jsonl --fault-profile oom:0.1,tmax:90 --trace t.json",
        ))
        .unwrap();
        match cmd {
            Command::Tune {
                task,
                beta,
                budget,
                seed,
                no_agd,
                no_safety,
                out,
                events,
                fault_profile,
                trace,
                ..
            } => {
                assert_eq!(task, "kmeans");
                assert_eq!(beta, 1.0);
                assert_eq!(budget, 30);
                assert_eq!(seed, 7);
                assert!(no_agd);
                assert!(!no_safety);
                assert_eq!(out.as_deref(), Some("h.json"));
                assert_eq!(events.as_deref(), Some("e.jsonl"));
                assert_eq!(fault_profile.as_deref(), Some("oom:0.1,tmax:90"));
                assert_eq!(trace.as_deref(), Some("t.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn events_and_stats_parse() {
        assert_eq!(
            parse_args(&argv(
                "events --file run.jsonl --task wc --kind SuggestionMade"
            ))
            .unwrap(),
            Command::Events {
                file: "run.jsonl".into(),
                task: Some("wc".into()),
                kind: Some("SuggestionMade".into()),
            }
        );
        assert_eq!(
            parse_args(&argv("events --file run.jsonl")).unwrap(),
            Command::Events {
                file: "run.jsonl".into(),
                task: None,
                kind: None
            }
        );
        assert_eq!(
            parse_args(&argv("stats --file run.jsonl")).unwrap(),
            Command::Stats {
                file: "run.jsonl".into(),
                json: false,
                prom: false,
            }
        );
        assert!(parse_args(&argv("events")).is_err());
        assert!(parse_args(&argv("stats")).is_err());
    }

    #[test]
    fn stats_modes_trace_and_top_parse() {
        assert_eq!(
            parse_args(&argv("stats --file m.json --json")).unwrap(),
            Command::Stats {
                file: "m.json".into(),
                json: true,
                prom: false,
            }
        );
        assert_eq!(
            parse_args(&argv("stats --file m.json --prom")).unwrap(),
            Command::Stats {
                file: "m.json".into(),
                json: false,
                prom: true,
            }
        );
        assert!(parse_args(&argv("stats --file m.json --json --prom")).is_err());
        assert_eq!(
            parse_args(&argv("trace --file run.jsonl --out t.json")).unwrap(),
            Command::Trace {
                file: "run.jsonl".into(),
                out: Some("t.json".into()),
            }
        );
        assert_eq!(
            parse_args(&argv("top --file run.jsonl")).unwrap(),
            Command::Top {
                file: "run.jsonl".into(),
                watch: None,
            }
        );
        assert_eq!(
            parse_args(&argv("top --file run.jsonl --watch 2")).unwrap(),
            Command::Top {
                file: "run.jsonl".into(),
                watch: Some(Duration::from_secs(2)),
            }
        );
        assert!(parse_args(&argv("trace")).is_err());
        assert!(parse_args(&argv("top --file x --watch soon")).is_err());
    }

    #[test]
    fn rejects_bad_beta_and_missing_task() {
        assert!(parse_args(&argv("tune --task x --beta 1.5")).is_err());
        assert!(parse_args(&argv("tune")).is_err());
        assert!(parse_args(&argv("compare")).is_err());
    }

    #[test]
    fn rejects_unknown_subcommand_and_positionals() {
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("tune --task x stray")).is_err());
        assert!(parse_args(&argv("tune --task")).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_non_integer_counts() {
        let err = |s: &str| parse_args(&argv(s)).unwrap_err().0;
        // A misspelled flag names itself and its subcommand.
        let e = err("tune-serve --journal J --tasks 1 --budget 1 --auto --budgett 9");
        assert!(e.contains("--budgett") && e.contains("tune-serve"), "{e}");
        let e = err("tune-serve --journal J --tasks 1 --budget 1 --auto --chekpoint-every 3");
        assert!(e.contains("--chekpoint-every"), "{e}");
        // An unknown switch does not swallow the next flag as its value.
        let e = err("tune --task terasort --no-safty --no-agd");
        assert!(
            e.contains("--no-safty") && e.contains("`otune tune`"),
            "{e}"
        );
        // Flags belong to their own subcommand (and corpus/jobs action).
        assert!(err("stats --file m.json --budget 3").contains("--budget"));
        assert!(err("corpus stats --file c.jsonl --k 3").contains("`otune corpus stats`"));
        assert!(err("jobs list --journal-dir d --keep 2").contains("--keep"));
        assert!(err("tune --task x --").contains("unknown flag --"));
        // Counts and seeds are integers: no truncation, sign or NaN cast.
        for bad in [
            "tune-serve --journal J --tasks 2.9 --auto",
            "tune-serve --journal J --budget -5 --auto",
            "tune-serve --journal J --seed NaN --auto",
            "tune-serve --journal J --max-retries 1e3",
            "tune-serve --journal J --checkpoint-every 0.5",
            "tune --task x --budget 20.0",
            "tune-fleet --tasks inf",
            "jobs gc --journal-dir d --keep -1",
            "corpus query --file c --task t --k 2.5",
            "compare --task sort --seeds 1.5",
            "importance --task sort --samples NaN",
        ] {
            assert!(err(bad).contains("expects a non-negative integer"), "{bad}");
        }
        // Zero seeds or samples and unusable refresh intervals fail at
        // parse time instead of printing NaN or panicking mid-run.
        for bad in [
            "compare --task sort --seeds 0",
            "importance --task sort --samples 0",
        ] {
            assert!(err(bad).contains("must be at least 1"), "{bad}");
        }
        for watch in ["inf", "1e300", "nan", "0", "-1"] {
            let e = err(&format!("top --file run.jsonl --watch {watch}"));
            assert!(e.contains("--watch expects a positive"), "{watch}: {e}");
        }
        // The task map has no partitions: the old count flag is unknown,
        // not silently ignored.
        let e = err("tune-fleet --shards 2");
        assert!(e.contains("unknown flag --shards"), "{e}");
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_tune_fleet() {
        assert_eq!(
            parse_args(&argv("tune-fleet")).unwrap(),
            Command::TuneFleet {
                tasks: 50,
                budget: 5,
                threads: None,
                seed: 0,
                events: None,
                trace: None,
                prom: None,
                corpus: None,
            }
        );
        assert_eq!(
            parse_args(&argv(
                "tune-fleet --tasks 200 --budget 3 --threads 2 --seed 9 --events f.jsonl --trace t.json --prom m.prom"
            ))
            .unwrap(),
            Command::TuneFleet {
                tasks: 200,
                budget: 3,
                threads: Some(2),
                seed: 9,
                events: Some("f.jsonl".into()),
                trace: Some("t.json".into()),
                prom: Some("m.prom".into()),
                corpus: None,
            }
        );
        assert!(parse_args(&argv("tune-fleet --threads x")).is_err());
    }

    #[test]
    fn parses_corpus_flag_and_subcommand() {
        match parse_args(&argv("tune --task terasort --corpus c.jsonl")).unwrap() {
            Command::Tune { corpus, .. } => assert_eq!(corpus.as_deref(), Some("c.jsonl")),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&argv("tune-fleet --tasks 8 --corpus c.jsonl")).unwrap() {
            Command::TuneFleet { corpus, .. } => assert_eq!(corpus.as_deref(), Some("c.jsonl")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_args(&argv(
                "corpus build --file c.jsonl --tasks 8 --budget 3 --seed 5"
            ))
            .unwrap(),
            Command::Corpus {
                action: CorpusAction::Build {
                    tasks: 8,
                    budget: 3,
                    seed: 5,
                },
                file: "c.jsonl".into(),
            }
        );
        assert_eq!(
            parse_args(&argv("corpus stats --file c.jsonl")).unwrap(),
            Command::Corpus {
                action: CorpusAction::Stats,
                file: "c.jsonl".into(),
            }
        );
        assert_eq!(
            parse_args(&argv("corpus query --file c.jsonl --task terasort --k 5")).unwrap(),
            Command::Corpus {
                action: CorpusAction::Query {
                    task: "terasort".into(),
                    k: 5,
                },
                file: "c.jsonl".into(),
            }
        );
        assert!(parse_args(&argv("corpus")).is_err());
        assert!(parse_args(&argv("corpus frobnicate --file c.jsonl")).is_err());
        assert!(parse_args(&argv("corpus build")).is_err());
        assert!(parse_args(&argv("corpus query --file c.jsonl")).is_err());
    }

    #[test]
    fn parses_tune_serve() {
        assert_eq!(
            parse_args(&argv("tune-serve --journal j.jsonl")).unwrap(),
            Command::TuneServe {
                journal: "j.jsonl".into(),
                tasks: 4,
                budget: 8,
                seed: 42,
                beta: 0.5,
                max_retries: 3,
                checkpoint_every: 2,
                fault_profile: None,
                events: None,
                auto: false,
                sync: None,
            }
        );
        assert_eq!(
            parse_args(&argv(
                "tune-serve --journal j.jsonl --tasks 3 --budget 6 --seed 9 --beta 1 \
                 --max-retries 2 --checkpoint-every 3 --fault-profile oom:0.1 \
                 --events e.jsonl --auto"
            ))
            .unwrap(),
            Command::TuneServe {
                journal: "j.jsonl".into(),
                tasks: 3,
                budget: 6,
                seed: 9,
                beta: 1.0,
                max_retries: 2,
                checkpoint_every: 3,
                fault_profile: Some("oom:0.1".into()),
                events: Some("e.jsonl".into()),
                auto: true,
                sync: None,
            }
        );
        assert!(parse_args(&argv("tune-serve")).is_err());
        assert!(parse_args(&argv("tune-serve --journal j --beta 2")).is_err());
    }

    #[test]
    fn parses_tune_serve_durability_flags() {
        match parse_args(&argv("tune-serve --journal j.jsonl --sync batch:8")).unwrap() {
            Command::TuneServe { sync, .. } => assert_eq!(sync.as_deref(), Some("batch:8")),
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&argv("tune-serve --journal j.jsonl")).unwrap() {
            Command::TuneServe { sync, .. } => {
                assert_eq!(sync, None, "defaults to the environment")
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&argv("tune-serve --journal j --sync sometimes")).is_err());
        assert!(parse_args(&argv("tune-serve --journal j --sync batch:0")).is_err());
    }

    #[test]
    fn parses_jobs_subcommands() {
        assert_eq!(
            parse_args(&argv("jobs list --journal-dir /var/jobs")).unwrap(),
            Command::Jobs {
                action: JobsAction::List,
                journal_dir: "/var/jobs".into(),
            }
        );
        assert_eq!(
            parse_args(&argv("jobs gc --journal-dir d --keep 5")).unwrap(),
            Command::Jobs {
                action: JobsAction::Gc { keep: 5 },
                journal_dir: "d".into(),
            }
        );
        assert_eq!(
            parse_args(&argv("jobs gc --journal-dir d")).unwrap(),
            Command::Jobs {
                action: JobsAction::Gc { keep: 3 },
                journal_dir: "d".into(),
            }
        );
        assert!(parse_args(&argv("jobs compact --journal-dir d")).is_err());
        assert!(parse_args(&argv("jobs")).is_err());
        assert!(parse_args(&argv("jobs frobnicate --journal-dir d")).is_err());
        assert!(parse_args(&argv("jobs list")).is_err());
    }

    #[test]
    fn compare_and_importance() {
        assert_eq!(
            parse_args(&argv("compare --task sort --budget 10 --seeds 3")).unwrap(),
            Command::Compare {
                task: "sort".into(),
                budget: 10,
                seeds: 3
            }
        );
        assert_eq!(
            parse_args(&argv("importance --task bayes")).unwrap(),
            Command::Importance {
                task: "bayes".into(),
                samples: 150
            }
        );
    }
}
