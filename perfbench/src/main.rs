//! End-to-end benchmark of the ScrubJay service over loopback TCP.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explore_cold|dashboard_hot|stream_ingest> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs in this one process: the service behind its real
//! TCP front end (binary wire, default configuration, no fault plan) and
//! closed-loop clients on loopback. Inputs are a pure function of
//! `--seed`. With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it also replays the same inputs through the public entry
//! point of each layer under spans and prints the per-layer metrics.
//! Outputs are checked outside the timed window; the last stdout line is
//! the JSON result. See `perfbench/README.md` for what each workload and
//! metric is for.

mod dashboard;
mod explore;
mod inputs;
mod layers;
mod measure;
mod served;
mod stream;
mod watchdog;
mod wireclient;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::{median, tail, Metric, Outcome};

/// Set-ups timed per run unless a workload asks for more; `setup_s` is
/// their median and the last one is the system that gets measured.
pub const SETUPS: usize = 3;

/// Whole-run budget; a run still going after this is a failed run.
const RUN_BUDGET: Duration = Duration::from_secs(170);

/// How long stopping clients and servers may take.
const TEARDOWN_BUDGET: Duration = Duration::from_secs(20);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Client-side timings of the measured ops, plus how the run went.
#[derive(Default)]
pub struct Measured {
    /// Op latency at the client, ms (completed ops only).
    pub op_ms: Vec<f64>,
    /// Send-to-result-frame latency, ms.
    pub emit_ms: Vec<f64>,
    /// Wall time of the measured window, s.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output or validity checks; any entry fails the run.
    pub problems: Vec<String>,
}

/// What one workload measured: end-to-end timings, set-up times, and
/// (traced runs only) per-layer metrics.
pub struct Report {
    pub measured: Measured,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub layers: Vec<Metric>,
    /// Workload parameters for the provenance line.
    pub params: Vec<(&'static str, String)>,
}

/// Run `setup` `runs` times, tearing down all but the last, and return
/// the last together with every set-up time. Memory the allocator kept
/// from set-up is handed back before the measured window starts.
pub fn timed_setups<S>(
    runs: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::with_capacity(runs);
    let mut last = None;
    for i in 0..runs {
        let started = Instant::now();
        let s = setup()?;
        times.push(started.elapsed().as_secs_f64());
        if i + 1 < runs {
            teardown(s);
        } else {
            last = Some(s);
        }
    }
    measure::release_free_memory();
    Ok((last.expect("at least one set-up"), times))
}

/// Bound a teardown: a hang becomes a failed run instead of a stuck one.
pub fn bounded_teardown<T>(what: &str, f: impl FnOnce() -> T) -> T {
    watchdog::phase(&format!("teardown of {what}"), TEARDOWN_BUDGET, f)
}

fn end_to_end(report: &Report) -> Vec<Metric> {
    let m = &report.measured;
    let (op_tail, _) = tail(&m.op_ms).unwrap_or((0.0, 0.0));
    vec![
        Metric {
            name: "op_p50_ms",
            value: median(&m.op_ms),
            unit: "ms",
        },
        Metric {
            name: "op_tail_ms",
            value: op_tail,
            unit: "ms",
        },
        Metric {
            name: "ops_per_s",
            value: m.op_ms.len() as f64 / m.wall_s,
            unit: "1/s",
        },
        Metric {
            name: "emit_p50_ms",
            value: median(&m.emit_ms),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(&report.setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: report.peak_rss_mb,
            unit: "MiB",
        },
    ]
}

fn provenance(args: &Args, report: &Report) -> String {
    let m = &report.measured;
    let tail_pct = tail(&m.op_ms)
        .map(|(_, p)| format!("{p:.2}"))
        .unwrap_or("n/a".into());
    let mut pairs: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or("unknown".into()),
        ),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", env!("PERFBENCH_COMMIT").to_string()),
        ("source_fnv", env!("PERFBENCH_SOURCE_FNV").to_string()),
        ("op_samples", m.op_ms.len().to_string()),
        ("emit_samples", m.emit_ms.len().to_string()),
        ("op_tail_percentile", tail_pct),
        ("setup_runs", report.setup_s.len().to_string()),
        ("measured_wall_s", format!("{:.3}", m.wall_s)),
        (
            "failed_ops_ratio",
            format!("{}", m.failed as f64 / m.attempted.max(1) as f64),
        ),
    ];
    pairs.extend(report.params.iter().map(|(k, v)| (*k, v.clone())));
    measure::describe(&pairs)
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "explore_cold" => explore::run(args),
        "dashboard_hot" => dashboard::run(args),
        "stream_ingest" => stream::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Where the traced run writes its spans (inside the checkout).
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.trace.json", args.workload, args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    watchdog::start();
    watchdog::arm_run(RUN_BUDGET);
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let provenance = provenance(&args, &report);
    let m = &report.measured;
    for p in &m.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = m.problems.is_empty();
    let outcome = Outcome {
        correct,
        attempted: m.attempted,
        failed: m.failed,
        metrics: if args.trace {
            report.layers
        } else {
            end_to_end(&report)
        },
    };
    println!("provenance {provenance}");
    println!("{}", outcome.to_json());
    if correct && m.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
