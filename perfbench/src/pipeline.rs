//! The query `batch-hub` and `oneshot-small` both time: what
//! `hare-count --input F --delta D --json` does, from SNAP text in
//! memory to the rendered body.

use std::time::Instant;

use hare::{Hare, MotifMatrix};
use temporal_graph::io::{graph_from_raw, read_edges, LoadOptions};
use temporal_graph::stats::GraphStats;
use temporal_graph::{TemporalGraph, Timestamp};

use crate::metrics::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// One query's outputs and phase times.
pub struct Query {
    /// The graph the query built (counted again at one thread after).
    pub graph: TemporalGraph,
    /// `Hare`'s count at the engine's thread count.
    pub matrix: MotifMatrix,
    /// The rendered JSON body.
    pub body: String,
    /// Parse + build + stats, in seconds.
    pub setup: f64,
    /// The count, in seconds.
    pub count: f64,
}

/// Parse → build → stats → `Hare::count_matrix` → render, with a span
/// around each layer call.
pub fn run(
    t: &mut Tracer,
    req: u64,
    text: &str,
    delta: Timestamp,
    engine: &Hare,
) -> Result<Query, String> {
    let opts = LoadOptions::default();
    let t0 = Instant::now();
    let raw = t
        .span("io.read_edges", req, |_| read_edges(text.as_bytes(), &opts))
        .map_err(|e| format!("parse failed: {e}"))?;
    let graph = t.span("builder.build", req, |_| graph_from_raw(raw, &opts));
    let stats = t.span("stats.compute", req, |_| GraphStats::compute(&graph));
    let setup = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let matrix = t.span("hare.count_matrix", req, |_| {
        engine.count_matrix(&graph, delta, None)
    });
    let count = t1.elapsed().as_secs_f64();
    let body = t.span("report.render", req, |_| {
        hare::report::render(&hare::report::exact_body(
            stats.num_nodes,
            stats.num_edges,
            delta,
            &matrix,
            None,
        ))
    });
    Ok(Query {
        graph,
        matrix,
        body,
        setup,
        count,
    })
}

/// The body a query must render: `exact_body` of an independent count.
#[must_use]
pub fn expected_body(g: &TemporalGraph, delta: Timestamp, matrix: &MotifMatrix) -> String {
    hare::report::render(&hare::report::exact_body(
        g.num_nodes(),
        g.num_edges(),
        delta,
        matrix,
        None,
    ))
}

/// Per-query samples, in seconds.
#[derive(Debug, Default)]
pub struct Samples {
    /// Whole-query latency.
    pub latency: Vec<f64>,
    setup: Vec<f64>,
    count: Vec<f64>,
    count_1t: Vec<f64>,
    /// Latencies of traced queries (traced run only).
    pub traced: Vec<f64>,
    /// Latencies of untraced queries.
    pub untraced: Vec<f64>,
}

impl Samples {
    /// Record one query and its one-thread recount. The first query
    /// warms caches and the allocator, so it is left out of the traced
    /// vs untraced comparison.
    pub fn push(&mut self, q: &Query, latency: f64, count_1t: f64, traced: bool) {
        if !self.latency.is_empty() {
            (if traced {
                &mut self.traced
            } else {
                &mut self.untraced
            })
            .push(latency);
        }
        self.latency.push(latency);
        self.setup.push(q.setup);
        self.count.push(q.count);
        self.count_1t.push(count_1t);
    }

    /// Median one-thread count ÷ median count.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        median(&self.count_1t) / median(&self.count)
    }

    /// Set the end-to-end metrics, and the tails the sample supports.
    pub fn report(&self, r: &mut Report) {
        let n = self.latency.len();
        r.set("setup_s", median(&self.setup), n);
        r.set("count_s", median(&self.count), n);
        r.set("count_1t_s", median(&self.count_1t), n);
        r.set("latency_p50_ms", median(&self.latency) * 1e3, n);
        r.set(
            "throughput_qps",
            n as f64 / self.latency.iter().sum::<f64>(),
            n,
        );
        for (name, p) in [("latency_p90_ms", 90.0), ("latency_p99_ms", 99.0)] {
            if let Some(v) = percentile(&self.latency, p) {
                r.set(name, v * 1e3, n);
            }
        }
    }
}
