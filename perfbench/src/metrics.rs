//! The metric catalogue (kept equal to `BENCHMARK.json` by a self-test)
//! and the result report every workload fills in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name, stable across versions of the benchmark.
    pub name: &'static str,
    /// Unit printed beside the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Metrics a user of the system sees, printed by every untraced run on
/// every workload (see README.md for each workload's definition).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("count_s", "s", "lower"),
    def("count_1t_s", "s", "lower"),
    def("latency_p50_ms", "ms", "lower"),
    def("throughput_qps", "1/s", "higher"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Metrics of single layers, printed by the traced run. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[Def] = &[
    // Tails and failures of the end-to-end path.
    def("latency_p90_ms", "ms", "lower"),
    def("latency_p99_ms", "ms", "lower"),
    def("error_rate", "ratio", "lower"),
    // batch-hub: set-up layers.
    def("io.parse_s", "s", "lower"),
    def("io.parse_mb_s", "MB/s", "higher"),
    def("builder.build_s", "s", "lower"),
    def("stats.compute_s", "s", "lower"),
    // batch-hub: kernels and scheduler.
    def("fast_star.star_s", "s", "lower"),
    def("fast_tri.tri_s", "s", "lower"),
    def("fast_pair.pair_s", "s", "lower"),
    def("hare.speedup", "ratio", "higher"),
    def("hare.efficiency", "ratio", "higher"),
    def("ooc.count_s", "s", "lower"),
    def("ooc.chunks", "count", "lower"),
    def("ooc.peak_resident_bytes", "bytes", "lower"),
    def("ooc.forced_cuts", "count", "lower"),
    // Exact counts of the inputs and outputs.
    def("graph.edges", "count", "higher"),
    def("graph.nodes", "count", "higher"),
    def("motifs.total", "count", "higher"),
    def("input.fingerprint", "id", "higher"),
    def("fused.window_events", "count", "lower"),
    // oneshot-small: per-query layers.
    def("io.parse_ms", "ms", "lower"),
    def("builder.build_ms", "ms", "lower"),
    def("stats.compute_ms", "ms", "lower"),
    def("report.render_ms", "ms", "lower"),
    def("hare.count_ms", "ms", "lower"),
    def("hare.count_1t_ms", "ms", "lower"),
    def("hare.par_overhead", "ratio", "lower"),
    def("io.parse.share", "ratio", "lower"),
    def("builder.build.share", "ratio", "lower"),
    def("stats.compute.share", "ratio", "lower"),
    def("report.render.share", "ratio", "lower"),
    def("hare.count.share", "ratio", "lower"),
    // serve-mixed: client-side classes and server-side counters.
    def("http.hit_ms", "ms", "lower"),
    def("api.miss_ms", "ms", "lower"),
    def("sessions.push_ms", "ms", "lower"),
    def("catalog.upload_ms", "ms", "lower"),
    def("cache.hit_ratio", "ratio", "higher"),
    def("cache.evictions", "count", "lower"),
    def("server.count_mean_ms", "ms", "lower"),
    def("server.sessions_mean_ms", "ms", "lower"),
    def("server.datasets_mean_ms", "ms", "lower"),
    def("http.wait_ms", "ms", "lower"),
    def("queue.rejected", "count", "lower"),
    def("windowed.edges_per_s", "1/s", "higher"),
    // The tracing itself.
    def("trace.glue_share", "ratio", "lower"),
    def("trace.overhead_ms", "ms", "lower"),
    def("trace.overhead_share", "ratio", "lower"),
];

/// Look a declared metric up by name.
fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// What one run measured and how many operations it checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Operations attempted (queries, jobs, requests, checks).
    pub attempted: u64,
    /// Operations whose result was wrong or that failed outright.
    pub failed: u64,
}

impl Report {
    /// Record `value` for the declared metric `name`, measured over
    /// `samples` samples (0 for a single count).
    ///
    /// # Panics
    /// On an undeclared name: the catalogue and the workloads disagree.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(find(name).is_some(), "metric {name} is not declared");
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name, (value, samples));
    }

    /// Count one checked operation; `ok = false` marks it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: MISMATCH: {}", what());
        }
    }

    /// Human-readable lines: every recorded metric with unit and sample
    /// count, then the failure ratio.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if d.name == "error_rate" {
                continue;
            }
            if let Some(&(v, n)) = self.values.get(d.name) {
                let samples = if n > 0 {
                    format!("  (n={n})")
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "{:<26} {v:>16.6} {:<6} {:<6}{samples}",
                    d.name, d.unit, d.better
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<26} {:>16.6} ratio  lower   ({} failed of {} attempted)",
            "error_rate",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        out
    }

    /// Failed ÷ attempted operations.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run).
    ///
    /// # Panics
    /// When a run without failures did not measure an end-to-end metric:
    /// every workload must define every one of them.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = serde_json::Map::new();
        for d in defs {
            let value = match self.values.get(d.name) {
                Some(&(v, _)) => v,
                // A run that failed before measuring reports 0s.
                None if traced || self.failed > 0 => 0.0,
                None => panic!("end-to-end metric {} was not measured", d.name),
            };
            metrics.insert(
                d.name.to_string(),
                serde_json::json!({"value": value, "unit": d.unit}),
            );
        }
        let line = serde_json::json!({
            "correct": self.failed == 0 && self.attempted > 0,
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        });
        line.to_string()
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(list: &serde_json::Value) -> Vec<(String, String, String)> {
        list.as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("string field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc["end_to_end"]), ours(END_TO_END));
        assert_eq!(declared(&doc["per_layer"]), ours(PER_LAYER));
        let names: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_fills_missing_layers_with_zero() {
        let mut r = Report::default();
        r.check(true, String::new);
        for d in END_TO_END {
            r.set(d.name, 1.5, 3);
        }
        r.set("io.parse_s", 0.25, 3);
        let untraced = serde_json::from_str(&r.result_line(false)).expect("json");
        assert_eq!(untraced["correct"], serde_json::Value::Bool(true));
        assert_eq!(untraced["metrics"]["setup_s"]["value"].as_f64(), Some(1.5));
        assert_eq!(untraced["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert!(untraced["metrics"].get("io.parse_s").is_none());
        let traced = serde_json::from_str(&r.result_line(true)).expect("json");
        assert_eq!(
            traced["metrics"]["io.parse_s"]["value"].as_f64(),
            Some(0.25)
        );
        assert_eq!(
            traced["metrics"]["http.hit_ms"]["value"].as_f64(),
            Some(0.0)
        );
        r.check(false, || "forced".into());
        let failed = serde_json::from_str(&r.result_line(false)).expect("json");
        assert_eq!(failed["correct"], serde_json::Value::Bool(false));
        assert_eq!(failed["failed"].as_u64(), Some(1));
    }
}
