//! `hare-count` — command-line temporal motif counter.
//!
//! The shape of the original paper's artifact (a counting executable),
//! rebuilt on this workspace's library:
//!
//! ```text
//! hare-count --input edges.txt --delta 600 [--threads N] [--json]
//! hare-count --dataset CollegeMsg --delta 600           # registry stand-in
//! hare-count --input edges.txt --delta 600 --only pairs # FAST-Pair
//! hare-count --input edges.txt --delta 600 --window 3600 --slack 60
//!                                                       # sliding window
//! ```

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use hare::query::{self, Answer, Kind, Mode, Query, QueryError};
use hare::stream_sample::{StreamSampleConfig, StreamingEstimator};
use hare::streaming::StreamError;
use hare::windowed::WindowedCounter;
use hare::MotifCategory;
use temporal_graph::io::{load_edges, load_graph, LoadOptions};
use temporal_graph::stats::GraphStats;
use temporal_graph::util::FxHashMap;
use temporal_graph::{NodeId, TemporalGraph, Timestamp};

const USAGE: &str = "\
hare-count: exact δ-temporal motif counting (FAST/HARE, ICDE 2022)

USAGE:
    hare-count (--input FILE | --dataset NAME [--scale K]) --delta SECONDS [options]

OPTIONS:
    --input FILE        SNAP-style edge list: 'src dst timestamp' per line
    --dataset NAME      generate a Table II stand-in from the registry
    --scale K           stand-in scale divisor (default 1)
    --delta SECONDS     the motif time window δ >= 0 (required)
    --threads N         worker threads, at most 1024 (default: all cores;
                        1 = sequential FAST)
    --only CATEGORY     pairs | stars | triangles | all (default all)
    --timestamp-col N   zero-based timestamp column (default 2)
    --json              machine-readable output
    --stats             print graph statistics only
    --no-timing         omit wall-clock timing for byte-stable output
    --lanes LAYOUT      timestamp-lane layout: raw | compressed (default
                        raw). compressed bit-packs per-node timestamp
                        deltas; counts are bit-identical either way
    --chunk-budget B    out-of-core exact counting: stream delta-haloed
                        time chunks through the fused kernel, keeping
                        the resident lane arenas under B bytes per
                        chunk. Bit-identical to in-RAM counting. Exact
                        all-motif mode only (no --only/--window/
                        --approx/--stats/--nodes)
    --profile           print a per-phase kernel timing table (scan /
                        fold / chunk_load / summarise) to stderr after
                        counting. stdout stays byte-identical to the
                        unprofiled run — the probe only observes phase
                        boundaries. Exact, --approx and --chunk-budget
                        modes (no --window/--stats/--nodes)
    --help              this text

APPROXIMATE (interval-sampling) MODE:
    --approx            estimate counts instead of counting exactly:
                        windows of length (window-factor * delta) are
                        kept with probability --prob, counted exactly,
                        and rescaled into unbiased per-motif estimates
                        with confidence intervals
    --prob P            window keep probability in (0, 1] (default 0.1);
                        1.0 reproduces the exact counts bit-identically
    --ci LEVEL          confidence level in (0, 1) (default 0.95)
    --window-factor C   sampling window length factor c >= 1 (default 10)
    --seed S            sampling seed (default 42; same seed, same windows)

PER-NODE (local motif profile) MODE:
    --nodes             per-node motif participation profiles instead of
                        the global matrix: stars attribute to their
                        center, pairs to both endpoints, triangles to
                        all three vertices. Alone, emits one sparse
                        profile per participating node; with a ranking
                        flag, emits a single ranking
    --rank-motif M      rank nodes by participation in motif M (M11..M66),
                        ties broken by node id; emits the top --top-k
                        rows (default 10)
    --top-k K           with --rank-motif: rows to emit; alone: rank the
                        K most anomalous nodes by the L2 norm of their
                        per-motif z-scores against the graph-wide
                        profile distribution

STREAMING (sliding-window) MODE:
    --window SECONDS    enable streaming: exact counts over the trailing
                        window W >= delta; emits one motif matrix per tick
    --slack SECONDS     reorder slack: accept arrivals up to this far
                        behind the newest timestamp (default 0); later
                        arrivals are dropped and reported, not fatal
    --tick SECONDS      tick interval in event time (default: the window)
    --memory-budget B   bounded-memory estimation: keep a deterministic
                        seeded interval reservoir of at most B bytes and
                        emit per-tick unbiased estimates with stderr and
                        confidence intervals instead of exact counts
                        (the keep probability p halves as the stream
                        fills the budget). Requires --window; accepts
                        --ci/--window-factor/--seed; a budget large
                        enough to retain the whole window reproduces the
                        exact ticks bit-identically

SERVICE PARITY:
    The long-running `hare-serve` daemon answers the same queries over
    HTTP with bodies byte-identical to this tool's --json --no-timing
    output. Both parse their parameters through one query type
    (`hare::query`: URL param `window_factor` is --window-factor here,
    `k` is --top-k, `motif` is --rank-motif, `engine=approx` is
    --approx) and render through one wire schema (`hare::report`).
    See docs/SERVICE.md.
";

#[derive(Debug, Default)]
struct Opts {
    input: Option<String>,
    dataset: Option<String>,
    scale: usize,
    timestamp_col: usize,
    json: bool,
    stats: bool,
    no_timing: bool,
    window: Option<i64>,
    slack: i64,
    tick: Option<i64>,
    lanes: String,
    chunk_budget: Option<usize>,
    memory_budget: Option<u64>,
    profile: bool,
    /// Every mode but `--stats` has one; `--window` modes read their δ,
    /// threads and estimator settings from it.
    query: Option<Query>,
}

/// The flags that carry a query key, with the key each one sets
/// (`--approx` sets `engine=approx` and takes no value).
const QUERY_FLAGS: [(&str, &str); 10] = [
    ("--delta", "delta"),
    ("--threads", "threads"),
    ("--approx", "engine"),
    ("--only", "only"),
    ("--prob", "prob"),
    ("--ci", "ci"),
    ("--window-factor", "window_factor"),
    ("--seed", "seed"),
    ("--top-k", "k"),
    ("--rank-motif", "motif"),
];

/// The flag spelling of a query or stream key.
fn flag_of(key: &str) -> String {
    QUERY_FLAGS.iter().find(|(_, k)| *k == key).map_or_else(
        || format!("--{}", key.replace('_', "-")),
        |(f, _)| f.to_string(),
    )
}

/// How `hare-count` selects each mode, for error messages.
fn mode_name(mode: Mode) -> Option<&'static str> {
    Some(match mode {
        Mode::Exact => "exact counting",
        Mode::Approx => "--approx",
        Mode::NodeProfile => "--nodes",
        Mode::TopNodes => "--nodes ranking",
        Mode::Window => "--window",
        Mode::Budget => "--memory-budget",
    })
}

/// Parse the value of a numeric flag, no smaller than `min`.
fn number<T: FromStr + Display + PartialOrd + Copy>(
    flag: &str,
    raw: &str,
    min: T,
) -> Result<T, String> {
    query::at_least(raw, min).map_err(|e| format!("{flag} {e}"))
}

fn render_err(e: QueryError) -> String {
    format!("{} {}", flag_of(&e.key), e.message)
}

fn parse_lanes(name: &str) -> Result<temporal_graph::LaneLayout, String> {
    match name {
        "raw" => Ok(temporal_graph::LaneLayout::Raw),
        "compressed" => Ok(temporal_graph::LaneLayout::Compressed),
        other => Err(format!("expected 'raw' or 'compressed', got {other:?}")),
    }
}

/// The adapter from flags to a [`Query`]: query flags become
/// `(key, value)` pairs for [`Query::parse`], which owns every rule
/// about them; the checks left here are about the flags only this tool
/// has (input, output, storage and streaming).
fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        scale: 1,
        timestamp_col: 2,
        lanes: "raw".into(),
        ..Opts::default()
    };
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    let mut nodes = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&str, String> {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} requires a value"))
        };
        if let Some(&(flag, key)) = QUERY_FLAGS.iter().find(|(f, _)| f == arg) {
            let v = if key == "engine" {
                "approx"
            } else {
                value(flag)?
            };
            pairs.push((key, v));
            continue;
        }
        match arg.as_str() {
            "--input" => o.input = Some(value("--input")?.into()),
            "--dataset" => o.dataset = Some(value("--dataset")?.into()),
            "--scale" => o.scale = number("--scale", value("--scale")?, 1)?,
            "--timestamp-col" => {
                o.timestamp_col = number("--timestamp-col", value("--timestamp-col")?, 0)?
            }
            "--json" => o.json = true,
            "--stats" => o.stats = true,
            "--no-timing" => o.no_timing = true,
            "--window" => o.window = Some(number("--window", value("--window")?, 0)?),
            "--slack" => o.slack = number("--slack", value("--slack")?, 0)?,
            "--tick" => o.tick = Some(number("--tick", value("--tick")?, 1)?),
            "--nodes" => nodes = true,
            "--lanes" => o.lanes = value("--lanes")?.into(),
            "--chunk-budget" => {
                o.chunk_budget = Some(number("--chunk-budget", value("--chunk-budget")?, 1)?)
            }
            "--memory-budget" => {
                o.memory_budget = Some(number("--memory-budget", value("--memory-budget")?, 1)?)
            }
            "--profile" => o.profile = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if o.input.is_none() && o.dataset.is_none() {
        return Err("one of --input or --dataset is required".into());
    }
    if o.input.is_some() && o.dataset.is_some() {
        return Err("--input and --dataset are mutually exclusive".into());
    }
    parse_lanes(&o.lanes).map_err(|e| format!("--lanes: {e}"))?;
    let stream = o.window.is_some();
    if o.memory_budget.is_some() && !stream {
        return Err("--memory-budget requires --window (streaming mode)".into());
    }
    if !stream && (o.slack != 0 || o.tick.is_some()) {
        return Err("--slack/--tick require --window".into());
    }
    if stream && o.lanes != "raw" {
        return Err("--lanes is not supported with --window".into());
    }
    if o.stats {
        // The graph shape needs no query: --delta and --threads are
        // tolerated (and ignored), every other query flag is refused.
        let modes = [
            (stream, "--window"),
            (nodes, "--nodes"),
            (o.chunk_budget.is_some(), "--chunk-budget"),
            (o.profile, "--profile"),
        ];
        let other = (modes.iter().find(|(on, _)| *on).map(|(_, f)| f.to_string())).or_else(|| {
            pairs
                .iter()
                .find(|(k, _)| !matches!(*k, "delta" | "threads"))
                .map(|(k, _)| flag_of(k))
        });
        return match other {
            Some(flag) => Err(format!("--stats is not supported with {flag}")),
            None => Ok(o),
        };
    }
    if nodes && stream {
        return Err("--nodes is not supported with --window".into());
    }
    let mode = match (o.window, o.memory_budget) {
        (Some(_), None) => Mode::Window,
        (Some(_), Some(_)) => Mode::Budget,
        _ if !nodes => Mode::Exact,
        _ if pairs.iter().any(|(k, _)| matches!(*k, "k" | "motif")) => Mode::TopNodes,
        _ => Mode::NodeProfile,
    };
    let q = Query::parse(mode, &pairs, mode_name).map_err(render_err)?;
    if let Some(w) = o.window {
        query::check_stream(q.delta, w, o.slack, o.memory_budget).map_err(render_err)?;
    }
    let batch = !stream;
    if o.chunk_budget.is_some() && !(batch && q.kind == (Kind::Exact { only: None })) {
        return Err(
            "--chunk-budget is exclusive with --only/--window/--approx/--stats/--nodes".into(),
        );
    }
    if o.profile && !(batch && matches!(q.kind, Kind::Exact { .. } | Kind::Approx { .. })) {
        return Err("--profile is not supported with --window/--stats/--nodes".into());
    }
    o.query = Some(q);
    Ok(o)
}

/// The arrival stream for `--window` mode: `(src, dst, t)` in delivery
/// order (file order / generation order), ids compacted, self-loops kept
/// so the engine's rejection policy is what drops them.
fn load_stream(o: &Opts) -> Result<Vec<(NodeId, NodeId, Timestamp)>, String> {
    let Some(path) = &o.input else {
        let g = generate(o)?;
        return Ok(g.edges().iter().map(|e| (e.src, e.dst, e.t)).collect());
    };
    let raw = load_edges(path, &load_options(o)).map_err(|e| format!("loading {path}: {e}"))?;
    let mut remap: FxHashMap<u64, NodeId> = FxHashMap::default();
    let mut intern = |x: u64| -> NodeId {
        let next = remap.len() as NodeId;
        *remap.entry(x).or_insert(next)
    };
    Ok(raw
        .into_iter()
        .map(|(s, d, t)| (intern(s), intern(d), t))
        .collect())
}

fn load_options(o: &Opts) -> LoadOptions {
    LoadOptions {
        timestamp_column: o.timestamp_col,
        ..LoadOptions::default()
    }
}

/// The `--dataset` registry stand-in at `--scale`.
fn generate(o: &Opts) -> Result<TemporalGraph, String> {
    let name = o.dataset.as_deref().unwrap_or_default();
    let d = hare_datasets::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = hare_datasets::all().iter().map(|d| d.name).collect();
        format!("unknown dataset {name:?}; known: {}", names.join(", "))
    })?;
    Ok(d.generate(o.scale))
}

/// Cumulative drop statistics of a streaming run.
#[derive(Debug, Default)]
struct DropStats {
    late: u64,
    self_loops: u64,
}

/// The engine behind `--window` mode: exact live-window counting, or —
/// with `--memory-budget` — the bounded-memory streaming estimator.
/// Both mirror the same acceptance semantics, so tick cadence and drop
/// counters are identical for the same stream.
enum StreamEngine {
    Exact(Box<WindowedCounter>),
    Budget(Box<StreamingEstimator>),
}

impl StreamEngine {
    fn push(&mut self, src: NodeId, dst: NodeId, t: Timestamp) -> Result<(), StreamError> {
        match self {
            StreamEngine::Exact(wc) => wc.push(src, dst, t),
            StreamEngine::Budget(est) => est.push(src, dst, t),
        }
    }

    fn advance_to(&mut self, t: Timestamp) {
        match self {
            StreamEngine::Exact(wc) => wc.advance_to(t),
            StreamEngine::Budget(est) => est.advance_to(t),
        }
    }

    fn flush(&mut self) {
        match self {
            StreamEngine::Exact(wc) => wc.flush(),
            StreamEngine::Budget(est) => est.flush(),
        }
    }
}

fn emit_tick(o: &Opts, engine: &StreamEngine, tick_t: Timestamp, drops: &DropStats) {
    match engine {
        StreamEngine::Exact(wc) => {
            if o.json {
                let body =
                    hare::report::windowed_tick_body(tick_t, wc, drops.late, drops.self_loops);
                print!("{}", hare::report::render(&body));
            } else {
                let matrix = wc.counts();
                println!(
                    "tick t={tick_t} | live edges {} | total motifs {} | late dropped {}",
                    wc.live_edges(),
                    matrix.total(),
                    drops.late
                );
                println!("{matrix}");
            }
        }
        StreamEngine::Budget(est) => {
            let tick = est.estimates();
            if o.json {
                let body = hare::report::stream_tick_body(
                    tick_t,
                    o.slack,
                    &tick,
                    drops.late,
                    drops.self_loops,
                );
                print!("{}", hare::report::render(&body));
            } else {
                println!(
                    "tick t={tick_t} | retained {} edges ({}/{} B) | p={} | total estimate {:.1} \
                     | late dropped {}",
                    tick.retained_edges,
                    tick.retained_bytes,
                    tick.budget_bytes,
                    tick.prob,
                    tick.total_estimate(),
                    drops.late
                );
            }
        }
    }
}

/// Sliding-window streaming mode: feed the arrival stream through a
/// `WindowedCounter` (or, under `--memory-budget`, the bounded-memory
/// estimator), emitting the live-window motif matrix at every
/// event-time tick boundary and once more at the final watermark.
fn run_stream(o: &Opts, q: &Query, window: Timestamp) -> Result<(), String> {
    let tick = o.tick.unwrap_or_else(|| window.max(1));
    let arrivals = load_stream(o)?;

    let mut wc = match (o.memory_budget, &q.kind) {
        (
            Some(budget),
            &Kind::Approx {
                ci,
                window_factor,
                seed,
                ..
            },
        ) => StreamEngine::Budget(Box::new(StreamingEstimator::new(StreamSampleConfig {
            slack: o.slack,
            window_factor,
            confidence: ci,
            seed,
            threads: q.threads,
            ..StreamSampleConfig::new(q.delta, window, budget)
        }))),
        _ => StreamEngine::Exact(Box::new(WindowedCounter::with_slack(
            q.delta, window, o.slack,
        ))),
    };
    let mut drops = DropStats::default();
    let mut next_boundary: Option<Timestamp> = None;
    let mut max_accepted: Option<Timestamp> = None;
    for &(src, dst, t) in &arrivals {
        // Drop self-loops before the boundary catch-up below: their
        // timestamp must not advance the ticks (a rejected arrival far
        // in the future would otherwise emit spurious empty ticks and
        // raise the acceptance floor past still-valid in-slack edges).
        if src == dst {
            drops.self_loops += 1;
            continue;
        }
        // Emit every boundary the stream has safely passed: a boundary B
        // is final once an arrival exceeds B + slack (nothing at or
        // before B can arrive any more). Late arrivals can't reach here
        // with t beyond a pending boundary's slack (they are below the
        // acceptance floor, which trails the last accepted timestamp).
        while let Some(boundary) = next_boundary {
            if t <= boundary + o.slack {
                break;
            }
            wc.advance_to(boundary);
            emit_tick(o, &wc, boundary, &drops);
            next_boundary = Some(boundary + tick);
        }
        match wc.push(src, dst, t) {
            Ok(()) => {
                max_accepted = Some(max_accepted.map_or(t, |m| m.max(t)));
                if next_boundary.is_none() {
                    next_boundary = Some(t + tick);
                }
            }
            Err(StreamError::OutOfOrder { .. }) => drops.late += 1,
            Err(StreamError::SelfLoop) => drops.self_loops += 1,
        }
    }
    if let Some(final_t) = max_accepted {
        // Drain the trailing boundaries *before* the final flush:
        // advance_to(B) processes exactly the buffered arrivals with
        // t <= B, so each tick still reports the window as of B (a
        // flush first would fast-forward the watermark past them).
        while let Some(boundary) = next_boundary {
            if boundary >= final_t {
                break;
            }
            wc.advance_to(boundary);
            emit_tick(o, &wc, boundary, &drops);
            next_boundary = Some(boundary + tick);
        }
        wc.flush();
        // Final tick at the end-of-stream watermark.
        emit_tick(o, &wc, final_t, &drops);
    } else if !o.json {
        println!("empty stream: nothing to count");
    }
    Ok(())
}

/// The human-readable tables of the batch modes; `--json` prints
/// [`Answer::render`] instead.
fn print_text(o: &Opts, answer: &Answer, stats: &GraphStats, delta: Timestamp, secs: f64) {
    let timing = |verb: &str| {
        if o.no_timing {
            String::new()
        } else {
            format!(" | {verb} in {secs:.3}s")
        }
    };
    let graph = format!(
        "graph: {} nodes, {} edges | delta = {delta}s",
        stats.num_nodes, stats.num_edges
    );
    match answer {
        Answer::Exact(matrix) => {
            println!("{graph}{}", timing("counted"));
            println!("{matrix}");
            for (label, cat) in [
                ("pair", MotifCategory::Pair),
                ("star", MotifCategory::Star),
                ("triangle", MotifCategory::Triangle),
            ] {
                println!("{label:>9} total: {}", matrix.category_total(cat));
            }
            // Grid layout (rows/cols to motif identities) is documented in
            // `hare::motif`.
            println!("    total: {}", matrix.total());
        }
        Answer::Approx {
            est,
            window_factor,
            seed,
        } => {
            println!(
                "{graph} | approx p={:.3} c={window_factor} ci={:.0}% seed={seed} | windows {}/{}{}",
                est.prob,
                est.confidence * 100.0,
                est.windows_sampled,
                est.windows_total,
                timing("counted"),
            );
            println!(
                "{:>6} {:>14} {:>12} {:>14} {:>14}",
                "motif", "estimate", "stderr", "ci_lo", "ci_hi"
            );
            for (m, e) in est.iter() {
                println!(
                    "{:>6} {:>14.1} {:>12.1} {:>14.1} {:>14.1}",
                    m.to_string(),
                    e.estimate,
                    e.stderr,
                    e.ci_lo,
                    e.ci_hi
                );
            }
            println!("total estimate: {:.1}", est.total_estimate());
        }
        Answer::Profiles { profiles, .. } => {
            println!(
                "{graph} | {} participating nodes{}",
                profiles.len(),
                timing("computed")
            );
            for (u, p) in profiles.iter() {
                let cells: Vec<String> = p
                    .iter()
                    .filter(|&(_, n)| n > 0)
                    .map(|(m, n)| format!("{m}:{n}"))
                    .collect();
                println!("node {u:>8} | total {:>8} | {}", p.total(), cells.join(" "));
            }
        }
        Answer::ByMotif {
            profiles,
            motif,
            k,
            rows,
        } => {
            println!(
                "top {k} nodes by {motif} participation | delta = {delta}s | {} participating nodes",
                profiles.len()
            );
            println!("{:>10} {:>12}", "node", "count");
            for (u, n) in rows {
                println!("{u:>10} {n:>12}");
            }
        }
        Answer::ByZscore { profiles, k, rows } => {
            println!(
                "top {k} anomalous nodes by z-score norm | delta = {delta}s | {} participating nodes",
                profiles.len()
            );
            println!("{:>10} {:>12}", "node", "score");
            for (u, sc) in rows {
                println!("{u:>10} {sc:>12.3}");
            }
        }
    }
}

fn run(o: &Opts) -> Result<(), String> {
    if let (Some(q), Some(window)) = (&o.query, o.window) {
        return run_stream(o, q, window);
    }
    let graph = match &o.input {
        Some(path) => {
            load_graph(path, &load_options(o)).map_err(|e| format!("loading {path}: {e}"))?
        }
        None => generate(o)?,
    };
    let layout = parse_lanes(&o.lanes)?;
    let graph = graph.into_lane_layout(layout);

    let stats = GraphStats::compute(&graph);
    let Some(q) = &o.query else {
        // --stats: the graph shape only.
        if o.json {
            print!(
                "{}",
                hare::report::render(&hare::report::graph_stats_body(&stats))
            );
        } else {
            println!(
                "nodes {}  edges {}  span {}  max-degree {}  mean-degree {:.2}",
                stats.num_nodes,
                stats.num_edges,
                stats.time_span,
                stats.max_degree,
                stats.mean_degree
            );
        }
        return Ok(());
    };

    let start = std::time::Instant::now();
    // `--profile` threads a wall-clock probe through the kernel's phase
    // seams; the probe only observes boundaries, so the answer — and
    // therefore stdout — is bit-identical to the unprofiled run.
    let probe = o.profile.then(hare::WallClockProbe::new);
    let answer = if let Some(budget) = o.chunk_budget {
        // Out-of-core path: stream delta-haloed chunks under the budget.
        // Counter addition is commutative, so the matrix (and therefore
        // the rendered body) is bit-identical to the in-RAM path.
        let src = hare::InMemorySource::from_graph(&graph);
        let cfg = hare::OocConfig {
            delta: q.delta,
            budget_bytes: budget,
            lane_layout: layout,
        };
        let (counts, _stats) = match &probe {
            Some(p) => hare::count_motifs_ooc_probed(&src, cfg, p),
            None => hare::count_motifs_ooc(&src, cfg),
        }
        .map_err(|e| format!("out-of-core counting: {e}"))?;
        Answer::Exact(Box::new(counts.matrix))
    } else {
        match &probe {
            Some(p) => q.compute(&graph, p),
            None => q.compute(&graph, &hare::NoopProbe),
        }
    };
    let secs = start.elapsed().as_secs_f64();
    if let Some(p) = &probe {
        eprint!("{}", p.render_table());
    }
    if o.json {
        // Timing is the one nondeterministic field; --no-timing omits
        // it so output is byte-stable (golden-file tests rely on it).
        print!(
            "{}",
            answer.render(q.delta, &stats, (!o.no_timing).then_some(secs))
        );
    } else {
        print_text(o, &answer, &stats, q.delta, secs);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn query(o: &Opts) -> &Query {
        o.query.as_ref().expect("a query mode")
    }

    /// `(prob, ci, window_factor, seed)` of an `--approx` or
    /// `--memory-budget` run.
    fn approx(o: &Opts) -> (f64, f64, i64, u64) {
        match query(o).kind {
            Kind::Approx {
                prob,
                ci,
                window_factor,
                seed,
            } => (prob, ci, window_factor, seed),
            ref other => panic!("not an estimator query: {other:?}"),
        }
    }

    #[test]
    fn parses_minimal_invocation() {
        let o = parse_args(&args(&["--input", "x.txt", "--delta", "600"])).unwrap();
        assert_eq!(o.input.as_deref(), Some("x.txt"));
        assert_eq!(o.query.as_ref().map(|q| q.delta), Some(600));
        assert_eq!(query(&o).kind, Kind::Exact { only: None });
    }

    #[test]
    fn rejects_missing_source_and_conflicts() {
        assert!(parse_args(&args(&["--delta", "600"])).is_err());
        assert!(parse_args(&args(&["--input", "a", "--dataset", "b", "--delta", "1"])).is_err());
    }

    #[test]
    fn rejects_zero_scale() {
        let e = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--delta",
            "1",
            "--scale",
            "0",
        ]))
        .unwrap_err();
        assert!(e.contains("--scale"), "{e}");
    }

    #[test]
    fn rejects_bad_only() {
        let e =
            parse_args(&args(&["--input", "x", "--delta", "1", "--only", "wedges"])).unwrap_err();
        assert!(e.contains("--only"));
    }

    #[test]
    fn stats_mode_needs_no_delta() {
        let o = parse_args(&args(&["--dataset", "CollegeMsg", "--stats"])).unwrap();
        assert!(o.stats);
        assert!(o.query.is_none());
    }

    #[test]
    fn help_flag_yields_empty_error() {
        assert_eq!(parse_args(&args(&["--help"])).unwrap_err(), "");
    }

    #[test]
    fn parses_streaming_flags() {
        let o = parse_args(&args(&[
            "--input", "x.txt", "--delta", "600", "--window", "3600", "--slack", "60", "--tick",
            "300",
        ]))
        .unwrap();
        assert_eq!(o.window, Some(3600));
        assert_eq!(o.slack, 60);
        assert_eq!(o.tick, Some(300));
    }

    #[test]
    fn rejects_bad_streaming_combinations() {
        // window below delta
        let e =
            parse_args(&args(&["--input", "x", "--delta", "600", "--window", "10"])).unwrap_err();
        assert!(e.contains("--window"), "{e}");
        // window without delta
        assert!(parse_args(&args(&["--input", "x", "--window", "10", "--stats"])).is_err());
        // slack/tick without window
        assert!(parse_args(&args(&["--input", "x", "--delta", "1", "--slack", "5"])).is_err());
        assert!(parse_args(&args(&["--input", "x", "--delta", "1", "--tick", "5"])).is_err());
        // streaming is exclusive with --stats and --only
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--window", "5", "--stats"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--window", "5", "--only", "pairs"
        ]))
        .is_err());
        // negative slack, zero tick
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--window", "5", "--slack", "-1"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--window", "5", "--tick", "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_lane_and_chunk_budget_flags() {
        let o = parse_args(&args(&["--input", "x", "--delta", "1"])).unwrap();
        assert_eq!(o.lanes, "raw");
        assert_eq!(o.chunk_budget, None);
        let o = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--lanes",
            "compressed",
            "--chunk-budget",
            "65536",
        ]))
        .unwrap();
        assert_eq!(o.lanes, "compressed");
        assert_eq!(o.chunk_budget, Some(65536));
    }

    #[test]
    fn rejects_bad_lane_and_chunk_budget_combinations() {
        // unknown layout name
        let e =
            parse_args(&args(&["--input", "x", "--delta", "1", "--lanes", "simd"])).unwrap_err();
        assert!(e.contains("--lanes"), "{e}");
        // lanes other than raw with the streaming window
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--window",
            "5",
            "--lanes",
            "compressed"
        ]))
        .is_err());
        // zero budget
        let e = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--chunk-budget",
            "0",
        ]))
        .unwrap_err();
        assert!(e.contains("--chunk-budget"), "{e}");
        // budget is exclusive with every non-default mode
        for extra in [
            ["--only", "pairs"].as_slice(),
            ["--window", "5"].as_slice(),
            ["--approx"].as_slice(),
            ["--stats"].as_slice(),
            ["--nodes"].as_slice(),
        ] {
            let mut v = args(&["--input", "x", "--delta", "1", "--chunk-budget", "4096"]);
            v.extend(extra.iter().map(|s| (*s).to_string()));
            assert!(parse_args(&v).is_err(), "expected rejection for {extra:?}");
        }
    }

    #[test]
    fn parses_memory_budget_flags() {
        let o = parse_args(&args(&[
            "--input",
            "x.txt",
            "--delta",
            "600",
            "--window",
            "3600",
            "--memory-budget",
            "1048576",
            "--seed",
            "7",
            "--ci",
            "0.99",
            "--window-factor",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.memory_budget, Some(1_048_576));
        let (_, ci, window_factor, seed) = approx(&o);
        assert_eq!(seed, 7);
        assert_eq!(ci, 0.99);
        assert_eq!(window_factor, 2);
    }

    #[test]
    fn rejects_bad_memory_budget_combinations() {
        // budget without --window
        let e = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--memory-budget",
            "4096",
        ]))
        .unwrap_err();
        assert!(e.contains("--memory-budget requires --window"), "{e}");
        // zero budget
        let e = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--window",
            "5",
            "--memory-budget",
            "0",
        ]))
        .unwrap_err();
        assert!(e.contains("--memory-budget"), "{e}");
        // exclusive with the other engines (transitively via --window)
        for extra in [
            ["--approx"].as_slice(),
            ["--nodes"].as_slice(),
            ["--stats"].as_slice(),
            ["--chunk-budget", "4096"].as_slice(),
        ] {
            let mut v = args(&[
                "--input",
                "x",
                "--delta",
                "1",
                "--window",
                "5",
                "--memory-budget",
                "4096",
            ]);
            v.extend(extra.iter().map(|s| (*s).to_string()));
            assert!(parse_args(&v).is_err(), "expected rejection for {extra:?}");
        }
        // --prob stays approx-only; bad ci / window-factor rejected here too
        for extra in [["--prob", "0.5"], ["--ci", "1"], ["--window-factor", "0"]] {
            let mut v = args(&[
                "--input",
                "x",
                "--delta",
                "1",
                "--window",
                "5",
                "--memory-budget",
                "4096",
            ]);
            v.extend(args(extra.as_slice()));
            assert!(parse_args(&v).is_err(), "expected rejection for {extra:?}");
        }
        // sampling knobs still rejected without either estimator
        let e = parse_args(&args(&["--input", "x", "--delta", "1", "--seed", "9"])).unwrap_err();
        assert!(e.contains("--memory-budget"), "{e}");
    }

    #[test]
    fn memory_budget_mode_runs_on_registry_dataset() {
        let o = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "8",
            "--delta",
            "600",
            "--window",
            "86400",
            "--memory-budget",
            "65536",
            "--json",
        ]))
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn parses_approx_flags() {
        let o = parse_args(&args(&[
            "--input",
            "x.txt",
            "--delta",
            "600",
            "--approx",
            "--prob",
            "0.3",
            "--ci",
            "0.99",
            "--window-factor",
            "5",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(matches!(query(&o).kind, Kind::Approx { .. }));
        let (prob, ci, window_factor, seed) = approx(&o);
        assert_eq!(prob, 0.3);
        assert_eq!(ci, 0.99);
        assert_eq!(window_factor, 5);
        assert_eq!(seed, 7);
    }

    #[test]
    fn rejects_bad_approx_combinations() {
        // approx without delta
        assert!(parse_args(&args(&["--input", "x", "--approx", "--stats"])).is_err());
        // approx is exclusive with streaming, --stats and --only
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--approx", "--window", "5"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--approx", "--stats"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--approx", "--only", "pairs"
        ]))
        .is_err());
        // out-of-range parameters
        for (flag, bad) in [
            ("--prob", "0"),
            ("--prob", "1.5"),
            ("--ci", "1"),
            ("--ci", "0"),
        ] {
            assert!(
                parse_args(&args(&[
                    "--input", "x", "--delta", "1", "--approx", flag, bad
                ]))
                .is_err(),
                "{flag} {bad} should be rejected"
            );
        }
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--approx",
            "--window-factor",
            "0"
        ]))
        .is_err());
        // sampling flags without --approx
        let e = parse_args(&args(&["--input", "x", "--delta", "1", "--prob", "0.5"])).unwrap_err();
        assert!(e.contains("--approx"), "{e}");
    }

    #[test]
    fn approx_mode_runs_on_registry_dataset() {
        let o = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "8",
            "--delta",
            "600",
            "--approx",
            "--prob",
            "0.5",
            "--json",
        ]))
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn no_timing_flag_parses() {
        let o = parse_args(&args(&["--input", "x", "--delta", "1", "--no-timing"])).unwrap();
        assert!(o.no_timing);
    }

    #[test]
    fn profile_flag_parses_and_composes() {
        let o = parse_args(&args(&["--input", "x", "--delta", "1", "--profile"])).unwrap();
        assert!(o.profile);
        // Composes with the approx and out-of-core engines.
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--approx",
            "--profile"
        ]))
        .is_ok());
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--chunk-budget",
            "4096",
            "--profile",
        ]))
        .is_ok());
        // Rejected where no probed seam is wired.
        for extra in [
            ["--window", "5"].as_slice(),
            ["--stats"].as_slice(),
            ["--nodes"].as_slice(),
        ] {
            let mut v = args(&["--input", "x", "--delta", "1", "--profile"]);
            v.extend(extra.iter().map(|s| (*s).to_string()));
            let e = parse_args(&v).unwrap_err();
            assert!(e.contains("--profile"), "{extra:?}: {e}");
        }
    }

    #[test]
    fn profiled_run_executes_on_registry_dataset() {
        for extra in [
            vec![],
            vec!["--approx", "--prob", "0.5"],
            vec!["--chunk-budget", "65536"],
        ] {
            let mut a = vec![
                "--dataset",
                "CollegeMsg",
                "--scale",
                "8",
                "--delta",
                "600",
                "--profile",
                "--json",
            ];
            a.extend(extra);
            let o = parse_args(&args(&a)).unwrap();
            run(&o).unwrap();
        }
    }

    #[test]
    fn streaming_mode_runs_on_registry_dataset() {
        let o = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "8",
            "--delta",
            "600",
            "--window",
            "86400",
            "--json",
        ]))
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn end_to_end_on_registry_dataset() {
        let o = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "4",
            "--delta",
            "600",
            "--threads",
            "2",
            "--json",
        ]))
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn parses_nodes_flags() {
        let o = parse_args(&args(&[
            "--input",
            "x.txt",
            "--delta",
            "600",
            "--nodes",
            "--rank-motif",
            "M65",
            "--top-k",
            "5",
        ]))
        .unwrap();
        let Kind::TopNodes { motif, k } = query(&o).kind else {
            panic!("not a --nodes query: {o:?}");
        };
        assert_eq!(Some(k), Some(5));
        assert_eq!(motif.map(|m| m.to_string()).as_deref(), Some("M65"));
    }

    #[test]
    fn rejects_bad_nodes_combinations() {
        // --nodes requires --delta
        assert!(parse_args(&args(&["--input", "x", "--nodes", "--stats"])).is_err());
        // exclusive with the other engines and with --only/--stats
        for extra in [
            ["--window", "5"],
            ["--approx", "--nodes"],
            ["--only", "pairs"],
        ] {
            let mut a = args(&["--input", "x", "--delta", "1", "--nodes"]);
            a.extend(args(extra.as_slice()));
            assert!(parse_args(&a).is_err(), "{extra:?}");
        }
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--nodes", "--stats"
        ]))
        .is_err());
        // ranking flags require --nodes
        let e = parse_args(&args(&["--input", "x", "--delta", "1", "--top-k", "3"])).unwrap_err();
        assert!(e.contains("--nodes"), "{e}");
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--rank-motif",
            "M65"
        ]))
        .is_err());
        // zero k, invalid motif name
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--nodes", "--top-k", "0"
        ]))
        .is_err());
        let e = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--nodes",
            "--rank-motif",
            "M70",
        ]))
        .unwrap_err();
        assert!(e.contains("--rank-motif"), "{e}");
    }

    #[test]
    fn nodes_mode_runs_on_registry_dataset() {
        for extra in [vec![], vec!["--top-k", "5"], vec!["--rank-motif", "M66"]] {
            let mut a = vec![
                "--dataset",
                "CollegeMsg",
                "--scale",
                "8",
                "--delta",
                "600",
                "--nodes",
                "--json",
            ];
            a.extend(extra);
            let o = parse_args(&args(&a)).unwrap();
            run(&o).unwrap();
        }
    }

    #[test]
    fn only_variants_run() {
        for only in ["pairs", "stars", "triangles"] {
            let o = parse_args(&args(&[
                "--dataset",
                "Bitcoinalpha",
                "--scale",
                "4",
                "--delta",
                "600",
                "--only",
                only,
                "--json",
            ]))
            .unwrap();
            run(&o).unwrap();
        }
    }
}
