//! `oneshot-small`: a stream of independent queries shaped like
//! `hare-count --input F --delta D --json`, each on its own small
//! CollegeMsg-family graph (≈20 k edges). A query is one
//! [`pipeline::run`] at the default thread count; the same graph is then
//! counted at one thread, outside the query's time.
//!
//! Queries cycle through a pool of [`POOL`] seeded graphs and the δ
//! values in [`DELTAS`]. Before timing, every (graph, δ) pair is
//! counted by FAST and by the independent EX baseline, which must
//! agree; each timed query's body must then equal the body rendered
//! from that FAST count.

use std::time::{Duration, Instant};

use hare::Hare;
use temporal_graph::io::{graph_from_raw, read_edges, LoadOptions};
use temporal_graph::Timestamp;

use crate::inputs::{derive, fingerprint, snap_text, stand_in};
use crate::metrics::{peak_rss_mb, Report};
use crate::pipeline::{self, Samples};
use crate::stats::median;
use crate::trace::{self_secs, self_times, Tracer};

/// Motif windows the queries cycle through.
pub const DELTAS: [Timestamp; 3] = [600, 3600, 86_400];
/// Distinct query graphs (coprime with the δ count, so every pair
/// occurs).
pub const POOL: usize = 8;
/// Queries run even when `--seconds` is shorter.
const MIN_QUERIES: usize = 30;

/// The SNAP texts of the query graphs (`scale` divides CollegeMsg's
/// edge count; the workload uses 1).
#[must_use]
pub fn inputs(seed: u64, scale: usize) -> Vec<String> {
    (0..POOL as u64)
        .map(|i| snap_text(&stand_in("CollegeMsg", scale, derive(seed, "oneshot", i)).generate()))
        .collect()
}

/// Run the workload for about `seconds` of queries.
pub fn run(seed: u64, seconds: u64, traced: bool, origin: Instant) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut tracer = Tracer::new(origin, traced);
    let texts = inputs(seed, 1);

    // The oracle pass: FAST against EX on every (graph, δ), once.
    let opts = LoadOptions::default();
    let (mut edges, mut nodes, mut motifs) = (0usize, 0usize, 0u64);
    let mut expected: Vec<[String; 3]> = Vec::with_capacity(POOL);
    for (i, text) in texts.iter().enumerate() {
        let g = match read_edges(text.as_bytes(), &opts) {
            Ok(raw) => graph_from_raw(raw, &opts),
            Err(e) => {
                report.check(false, || format!("graph {i}: parse failed: {e}"));
                return (report, tracer);
            }
        };
        edges += g.num_edges();
        nodes += g.num_nodes();
        expected.push(DELTAS.map(|delta| {
            let fast = hare::count_motifs(&g, delta);
            let ex = hare_baselines::ex::count_all(&g, delta);
            report.check(fast.matrix == ex, || {
                format!("graph {i} δ={delta}: FAST != EX")
            });
            motifs += fast.total();
            pipeline::expected_body(&g, delta, &fast.matrix)
        }));
    }

    let mut samples = Samples::default();
    let (engine, one_thread) = (Hare::default(), Hare::with_threads(1));
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while samples.latency.len() < MIN_QUERIES || start.elapsed() < budget {
        let q = samples.latency.len();
        let req = q as u64;
        let (g, d) = (q % POOL, q % DELTAS.len());
        let delta = DELTAS[d];
        let on = traced && q.is_multiple_of(2);
        tracer.set_enabled(on);
        let t0 = Instant::now();
        let query = tracer.span("query", req, |t| {
            pipeline::run(t, req, &texts[g], delta, &engine)
        });
        let latency = t0.elapsed().as_secs_f64();
        let query = match query {
            Ok(query) => query,
            Err(e) => {
                report.check(false, || e);
                break;
            }
        };
        let t1 = Instant::now();
        let single = tracer.span("hare.count_1t", req, |_| {
            one_thread.count_matrix(&query.graph, delta, None)
        });
        samples.push(&query, latency, t1.elapsed().as_secs_f64(), on);
        report.check(query.body == expected[g][d], || {
            format!("query {q} (graph {g}, δ={delta}): body differs from FAST")
        });
        report.check(single == query.matrix, || {
            format!("query {q}: 1-thread count differs")
        });
    }
    tracer.set_enabled(traced);

    samples.report(&mut report);
    report.set("graph.edges", edges as f64, 0);
    report.set("graph.nodes", nodes as f64, 0);
    report.set("motifs.total", motifs as f64, 0);
    report.set(
        "input.fingerprint",
        fingerprint(texts.iter().map(String::as_bytes)) as f64,
        0,
    );
    if traced {
        layer_metrics(&mut report, &tracer, &samples);
    }
    report.set("peak_rss_mb", peak_rss_mb(), 0);
    (report, tracer)
}

fn layer_metrics(r: &mut Report, t: &Tracer, samples: &Samples) {
    let spans = t.spans();
    let selfs = self_times(spans);
    let query_secs: f64 = spans
        .iter()
        .filter(|s| s.name == "query")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum();
    for (metric, share, span) in [
        ("io.parse_ms", "io.parse.share", "io.read_edges"),
        ("builder.build_ms", "builder.build.share", "builder.build"),
        ("stats.compute_ms", "stats.compute.share", "stats.compute"),
        ("report.render_ms", "report.render.share", "report.render"),
        ("hare.count_ms", "hare.count.share", "hare.count_matrix"),
    ] {
        let v = self_secs(spans, &selfs, span);
        r.set(metric, median(&v) * 1e3, v.len());
        r.set(share, v.iter().sum::<f64>() / query_secs, v.len());
    }
    let single = self_secs(spans, &selfs, "hare.count_1t");
    r.set("hare.count_1t_ms", median(&single) * 1e3, single.len());
    let par = self_secs(spans, &selfs, "hare.count_matrix");
    r.set(
        "hare.par_overhead",
        median(&par) / median(&single),
        single.len(),
    );
    crate::trace_metrics(
        r,
        spans,
        &selfs,
        Some("query"),
        &samples.traced,
        &samples.untraced,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_change_with_it() {
        let fp = |seed| fingerprint(inputs(seed, 8).iter().map(String::as_bytes));
        assert_eq!(fp(3), fp(3));
        assert_ne!(fp(3), fp(4));
        let texts = inputs(3, 8);
        assert_eq!(texts.len(), POOL);
        assert!(
            texts.windows(2).all(|w| w[0] != w[1]),
            "pool graphs are distinct"
        );
    }
}
