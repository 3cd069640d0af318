//! `batch-hub`: one large hub-heavy graph (the WikiTalk-family stand-in
//! at 1/8 scale), parsed from SNAP text, built, and counted at δ = 3600
//! at the default thread count and at one thread.
//!
//! A *job* is one [`pipeline::run`] on it. After each job the same graph
//! is counted again with the single-threaded fused kernel
//! (`hare::count_motifs`, the paper's FAST), and the two matrices must
//! agree. Once per run the graph is also counted out of core at a ⅛
//! lane budget, which must agree as well.

use std::time::{Duration, Instant};

use hare::{Hare, InMemorySource, OocConfig};
use temporal_graph::stats::mean_window_degree;
use temporal_graph::{TemporalGraph, Timestamp};

use crate::inputs::{derive, fingerprint, snap_text, stand_in};
use crate::metrics::{peak_rss_mb, Report};
use crate::pipeline::{self, Samples};
use crate::stats::median;
use crate::trace::{self_secs, self_times, Tracer};

/// The motif window of every count.
pub const DELTA: Timestamp = 3600;
/// Divisor of the WikiTalk stand-in's size.
pub const SCALE: usize = 8;
/// Times the traced run repeats each once-per-run layer call (the
/// per-category kernels and the out-of-core count).
const LAYER_REPEATS: usize = 3;
/// Jobs run even when `--seconds` is shorter.
const MIN_JOBS: usize = 3;

/// The SNAP text of the run's graph (`scale` divides the WikiTalk
/// edge count; the workload uses [`SCALE`]).
#[must_use]
pub fn input(seed: u64, scale: usize) -> String {
    snap_text(&stand_in("WikiTalk", scale, derive(seed, "batch-hub", 0)).generate())
}

/// Run the workload for about `seconds` of measured jobs.
pub fn run(seed: u64, seconds: u64, traced: bool, origin: Instant) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut tracer = Tracer::new(origin, traced);
    let text = input(seed, SCALE);
    let engine = Hare::default();

    let mut samples = Samples::default();
    let mut last: Option<(TemporalGraph, hare::MotifMatrix)> = None;
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while samples.latency.len() < MIN_JOBS || start.elapsed() < budget {
        let req = samples.latency.len() as u64;
        // The traced run alternates traced and untraced jobs so the
        // difference measures what the spans cost.
        let on = traced && req.is_multiple_of(2);
        tracer.set_enabled(on);
        // Free the previous graph first so peak memory is one job's.
        drop(last.take());
        let t0 = Instant::now();
        let job = tracer.span("job", req, |t| pipeline::run(t, req, &text, DELTA, &engine));
        let latency = t0.elapsed().as_secs_f64();
        let job = match job {
            Ok(job) => job,
            Err(e) => {
                report.check(false, || e);
                break;
            }
        };
        let t1 = Instant::now();
        let fast = tracer.span("hare.count_motifs", req, |_| {
            hare::count_motifs(&job.graph, DELTA)
        });
        samples.push(&job, latency, t1.elapsed().as_secs_f64(), on);
        report.check(fast.matrix == job.matrix, || {
            format!(
                "job {req}: Hare({} threads) != FAST",
                engine.effective_threads()
            )
        });
        report.check(
            job.body == pipeline::expected_body(&job.graph, DELTA, &fast.matrix),
            || format!("job {req}: rendered body differs"),
        );
        last = Some((job.graph, fast.matrix));
    }
    tracer.set_enabled(traced);

    let Some((graph, fast)) = last else {
        return (report, tracer);
    };
    // Out of core at a 1/8 lane budget: checked once, and timed
    // `LAYER_REPEATS` times in the traced run.
    let budget_bytes = graph.num_edges() * hare::ooc::LANE_BYTES_PER_EDGE / 8 + 1;
    let src = InMemorySource::from_graph(&graph);
    for _ in 0..if traced { LAYER_REPEATS } else { 1 } {
        let ooc = tracer.span("ooc.count", 0, |_| {
            hare::count_motifs_ooc(&src, OocConfig::new(DELTA, budget_bytes))
        });
        match ooc {
            Ok((counts, stats)) => {
                report.check(counts.matrix == fast, || "OOC at 1/8 budget != FAST".into());
                report.set("ooc.chunks", stats.chunks as f64, 0);
                report.set(
                    "ooc.peak_resident_bytes",
                    stats.peak_resident_lane_bytes as f64,
                    0,
                );
                report.set("ooc.forced_cuts", stats.forced_cuts as f64, 0);
            }
            Err(e) => report.check(false, || format!("OOC failed: {e}")),
        }
    }
    drop(src);

    samples.report(&mut report);
    let n = samples.latency.len();
    let speedup = samples.speedup();
    report.set("hare.speedup", speedup, n);
    report.set(
        "hare.efficiency",
        speedup / engine.effective_threads() as f64,
        n,
    );
    report.set("graph.edges", graph.num_edges() as f64, 0);
    report.set("graph.nodes", graph.num_nodes() as f64, 0);
    report.set("motifs.total", fast.total() as f64, 0);
    report.set(
        "input.fingerprint",
        fingerprint([text.as_bytes()]) as f64,
        0,
    );

    if traced {
        for _ in 0..LAYER_REPEATS {
            tracer.span("fast_star.fast_star", 0, |_| {
                std::hint::black_box(hare::fast_star::fast_star(&graph, DELTA))
            });
            tracer.span("fast_tri.fast_tri", 0, |_| {
                std::hint::black_box(hare::fast_tri::fast_tri(&graph, DELTA))
            });
            tracer.span("fast_pair.fast_pair", 0, |_| {
                std::hint::black_box(hare::fast_pair::fast_pair(&graph, DELTA))
            });
        }
        let events = mean_window_degree(&graph, DELTA) * 2.0 * graph.num_edges() as f64;
        report.set("fused.window_events", events, 0);
        layer_metrics(&mut report, &tracer, text.len(), &samples);
    }
    report.set("peak_rss_mb", peak_rss_mb(), 0);
    (report, tracer)
}

fn layer_metrics(r: &mut Report, t: &Tracer, text_bytes: usize, samples: &Samples) {
    let spans = t.spans();
    let selfs = self_times(spans);
    let layer = |name: &str| {
        let v = self_secs(spans, &selfs, name);
        (median(&v), v.len())
    };
    let (parse, n) = layer("io.read_edges");
    r.set("io.parse_s", parse, n);
    r.set("io.parse_mb_s", text_bytes as f64 / 1e6 / parse, n);
    for (metric, span) in [
        ("builder.build_s", "builder.build"),
        ("stats.compute_s", "stats.compute"),
        ("ooc.count_s", "ooc.count"),
        ("fast_star.star_s", "fast_star.fast_star"),
        ("fast_tri.tri_s", "fast_tri.fast_tri"),
        ("fast_pair.pair_s", "fast_pair.fast_pair"),
    ] {
        let (v, n) = layer(span);
        r.set(metric, v, n);
    }
    crate::trace_metrics(
        r,
        spans,
        &selfs,
        Some("job"),
        &samples.traced,
        &samples.untraced,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_repeats_for_a_seed_and_changes_with_it() {
        let fp = |seed| fingerprint([input(seed, 4096).as_bytes()]);
        assert_eq!(fp(9), fp(9));
        assert_ne!(fp(9), fp(10));
    }
}
