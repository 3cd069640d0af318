//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <batch-hub|oneshot-small|serve-mixed> --seed N --seconds S --trace <0|1>
//! ```
//!
//! It prints every metric with its unit and sample count, then, as the
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace
//! 1`). Every result is checked against an independent path; any
//! mismatch makes the run exit with status 1. See README.md.

mod batch_hub;
mod inputs;
mod metrics;
mod oneshot;
mod pipeline;
mod serve_mixed;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::Report;
use trace::{Span, Tracer};

/// Workload names, in BENCHMARK.json order.
pub const WORKLOADS: [&str; 3] = ["batch-hub", "oneshot-small", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Tracing metrics shared by the workloads: the share of the `root`
/// spans (jobs, queries) no layer span covers, and the cost of tracing
/// as traced minus untraced median latency.
pub fn trace_metrics(
    r: &mut Report,
    spans: &[Span],
    selfs: &[u64],
    root: Option<&str>,
    traced: &[f64],
    untraced: &[f64],
) {
    if let Some(root) = root {
        let (glue, total) = spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == root)
            .fold((0u64, 0u64), |(g, t), (s, &own)| {
                (g + own, t + s.duration_ns())
            });
        r.set("trace.glue_share", glue as f64 / total as f64, 0);
    }
    let (on, off) = (stats::median(traced), stats::median(untraced));
    let n = traced.len() + untraced.len();
    r.set("trace.overhead_ms", (on - off) * 1e3, n);
    r.set("trace.overhead_share", (on - off) / off, n);
}

/// Where the spans of a traced run go: under the build directory, which
/// is ignored by git.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    base.join("perfbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let run = match args.workload.as_str() {
        "batch-hub" => batch_hub::run,
        "oneshot-small" => oneshot::run,
        _ => serve_mixed::run,
    };
    let (mut report, tracer): (Report, Tracer) = run(args.seed, args.seconds, args.trace, origin);
    report.set("error_rate", report.error_rate(), 0);
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    print!("{}", report.summary());
    if args.trace {
        let spans = tracer.spans();
        let path = spans_path(&args.workload, args.seed);
        match trace::write_jsonl(&path, spans, &trace::self_times(spans)) {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    println!("{}", report.result_line(args.trace));
    if report.failed > 0 || report.attempted == 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
