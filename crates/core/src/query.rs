//! One query type for every front-end.
//!
//! `hare-count` flags and `hare-serve` URL parameters name the same
//! things: δ, the thread budget, the engine and its knobs, the per-node
//! ranking. Both surfaces turn their input into `(key, value)` pairs and
//! hand them to [`Query::parse`]. One static key table holds a row per
//! key: the [`Mode`]s that accept it, its default, and its parse and
//! range check. A key given to a mode its row does not list is rejected
//! with a message naming the modes that do take it, so the CLI and the
//! daemon cannot disagree on what a query means.
//!
//! A parsed [`Query`] owns the rest of the contract: its
//! [`cache_key`](Query::cache_key) (the daemon's result-cache key) and
//! its execution, [`Query::compute`], whose [`Answer`] renders into the
//! [`report`] bodies both front-ends emit byte for byte.

use std::fmt::Display;
use std::str::FromStr;

use temporal_graph::stats::GraphStats;
use temporal_graph::{NodeId, TemporalGraph, Timestamp};

use crate::fingerprint::{rank_by_zscore, top_k_nodes, NodeProfiles, ProfileDistribution};
use crate::motif::{Motif, MotifCategory};
use crate::report;
use crate::sample::{SampleConfig, SampledCounter, SampledCounts};
use crate::{Hare, HareConfig, MotifMatrix, Probe};

/// Upper bound on a query's `threads`: far above any real core count.
/// The value only caps a query's share of the process-wide worker pool
/// (at most `max(cores − 1, 1)` helpers plus the calling thread), so even
/// this many spawns no thread; the bound rejects absurd requests early.
pub const MAX_QUERY_THREADS: usize = 1024;

/// What a front-end asks for; the columns of the key table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Exact counting, all motifs or one category (the default).
    Exact,
    /// Interval-sampling estimation (`engine=approx`).
    Approx,
    /// Per-node motif profiles.
    NodeProfile,
    /// A top-k node ranking, by one motif or by z-score anomaly.
    TopNodes,
    /// Exact counts over a sliding window (`hare-count --window`).
    Window,
    /// The bounded-memory streaming estimator (`--memory-budget`).
    Budget,
}

const ALL: &[Mode] = &[
    Mode::Exact,
    Mode::Approx,
    Mode::NodeProfile,
    Mode::TopNodes,
    Mode::Window,
    Mode::Budget,
];

/// What a [`Query`] computes.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    /// Exact counts; `only` restricts them to one motif category.
    Exact {
        /// `None` counts all 36 motifs.
        only: Option<MotifCategory>,
    },
    /// Interval-sampling estimates with confidence intervals.
    Approx {
        /// Window keep probability, in (0, 1].
        prob: f64,
        /// Confidence level, in (0, 1).
        ci: f64,
        /// Sampling window length in units of δ, at least 1.
        window_factor: i64,
        /// Sampling seed.
        seed: u64,
    },
    /// Per-node motif participation profiles.
    NodeProfile {
        /// One node, or `None` for every participating node.
        node: Option<NodeId>,
    },
    /// The top `k` nodes by participation in `motif`, or by z-score
    /// anomaly when `motif` is `None`.
    TopNodes {
        /// The motif to rank by.
        motif: Option<Motif>,
        /// Rows to return, at least 1.
        k: usize,
    },
}

/// One validated query: the window δ, the thread budget and the kind.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// The motif time window δ, at least 0.
    pub delta: Timestamp,
    /// Worker threads (0 = all cores); results do not depend on it.
    pub threads: usize,
    /// What to compute.
    pub kind: Kind,
}

/// A rejected `(key, value)` pair. `message` leaves the key out, so each
/// front-end can put it in its own spelling (`--prob` or `'prob'`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryError {
    /// The key at fault.
    pub key: String,
    /// What is wrong with it, phrased to follow the key.
    pub message: String,
}

impl QueryError {
    fn new(key: &str, message: String) -> QueryError {
        QueryError {
            key: key.to_string(),
            message,
        }
    }
}

/// Every value a key can set.
#[derive(Default)]
struct Params {
    delta: Option<Timestamp>,
    threads: usize,
    only: Option<MotifCategory>,
    prob: f64,
    ci: f64,
    window_factor: i64,
    seed: u64,
    k: usize,
    motif: Option<Motif>,
}

/// One row of the key table.
struct Row {
    key: &'static str,
    /// The modes that accept the key.
    modes: &'static [Mode],
    /// The value an absent key takes; `None` leaves it unset.
    default: Option<&'static str>,
    /// Parse, range-check and store a value.
    set: fn(&mut Params, &str) -> Result<(), String>,
}

const fn row(
    key: &'static str,
    modes: &'static [Mode],
    default: Option<&'static str>,
    set: fn(&mut Params, &str) -> Result<(), String>,
) -> Row {
    Row {
        key,
        modes,
        default,
        set,
    }
}

const ESTIMATORS: &[Mode] = &[Mode::Approx, Mode::Budget];

/// The key table: every key either front-end may send.
const KEYS: [Row; 10] = [
    row("delta", ALL, None, |p, v| {
        at_least(v, 0).map(|d| p.delta = Some(d))
    }),
    row("threads", ALL, Some("0"), |p, v| {
        let bound = format_args!("at most {MAX_QUERY_THREADS}");
        within(v, |t| t <= MAX_QUERY_THREADS, bound).map(|t| p.threads = t)
    }),
    // Read before the other keys too: it picks between the two kinds
    // of `/count` (see `Query::parse`).
    row(
        "engine",
        &[Mode::Exact, Mode::Approx],
        Some("exact"),
        |_, v| match v {
            "exact" | "approx" => Ok(()),
            _ => Err(format!("must be exact or approx, got {v:?}")),
        },
    ),
    row("only", &[Mode::Exact], Some("all"), |p, v| {
        report::parse_only(v).map(|o| p.only = o)
    }),
    row("prob", &[Mode::Approx], Some("0.1"), |p, v| {
        within(v, |x| x > 0.0 && x <= 1.0, "in (0, 1]").map(|x| p.prob = x)
    }),
    row("ci", ESTIMATORS, Some("0.95"), |p, v| {
        within(v, |x| x > 0.0 && x < 1.0, "in (0, 1)").map(|x| p.ci = x)
    }),
    row("window_factor", ESTIMATORS, Some("10"), |p, v| {
        at_least(v, 1).map(|c| p.window_factor = c)
    }),
    row("seed", ESTIMATORS, Some("42"), |p, v| {
        number(v).map(|s| p.seed = s)
    }),
    row("k", &[Mode::TopNodes], Some("10"), |p, v| {
        at_least(v, 1).map(|k| p.k = k)
    }),
    row("motif", &[Mode::TopNodes], None, |p, v| {
        let m = v
            .parse()
            .map_err(|_| format!("has invalid value {v:?}, not M11..M66"))?;
        p.motif = Some(m);
        Ok(())
    }),
];

fn number<T: FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("has invalid value {v:?}"))
}

fn within<T: FromStr + Display + Copy>(
    v: &str,
    ok: impl Fn(T) -> bool,
    range: impl Display,
) -> Result<T, String> {
    let x = number(v)?;
    if ok(x) {
        Ok(x)
    } else {
        Err(format!("must be {range}, got {x}"))
    }
}

/// Parse `v` as a `T` no smaller than `min`; the error reads "must be at
/// least {min}, got …", to follow the key. The table's lower-bound
/// check, shared with `hare-count`'s own numeric flags (`--tick`,
/// `--scale`, the byte budgets).
pub fn at_least<T: FromStr + Display + PartialOrd + Copy>(v: &str, min: T) -> Result<T, String> {
    within(v, |x| x >= min, format_args!("at least {min}"))
}

impl Query {
    /// Build a query for `mode` from `(key, value)` pairs; for a repeated
    /// key the last value wins. Under [`Mode::Exact`] an `engine=approx`
    /// pair selects [`Mode::Approx`]. The two streaming modes check their
    /// keys through the same rows and yield the batch kind whose values
    /// they use: [`Kind::Exact`] for `Window`, [`Kind::Approx`] (its
    /// `ci`, `window_factor` and `seed`) for `Budget`.
    ///
    /// `names` spells a mode in error messages the way the caller's
    /// surface selects it (`--approx`, `engine=approx`), or `None` for a
    /// mode the surface does not offer.
    pub fn parse(
        mode: Mode,
        pairs: &[(&str, &str)],
        names: fn(Mode) -> Option<&'static str>,
    ) -> Result<Query, QueryError> {
        let mut mode = mode;
        if matches!(mode, Mode::Exact | Mode::Approx) {
            match pairs.iter().rev().find(|(k, _)| *k == "engine") {
                Some((_, "exact")) => mode = Mode::Exact,
                Some((_, "approx")) => mode = Mode::Approx,
                _ => {}
            }
        }
        let mut p = Params::default();
        for row in &KEYS {
            if let Some(value) = row.default {
                (row.set)(&mut p, value).map_err(|m| QueryError::new(row.key, m))?;
            }
        }
        for &(key, value) in pairs {
            let Some(row) = KEYS.iter().find(|r| r.key == key) else {
                return Err(QueryError::new(key, "is not a known parameter".into()));
            };
            if !row.modes.contains(&mode) {
                let takers: Vec<&str> = row.modes.iter().filter_map(|&m| names(m)).collect();
                return Err(QueryError::new(
                    key,
                    format!(
                        "is not supported with {}; it is accepted by {}",
                        names(mode).unwrap_or("this query"),
                        takers.join(" and ")
                    ),
                ));
            }
            (row.set)(&mut p, value).map_err(|m| QueryError::new(key, m))?;
        }
        let delta = p
            .delta
            .ok_or_else(|| QueryError::new("delta", "is required (seconds)".into()))?;
        let kind = match mode {
            Mode::Exact | Mode::Window => Kind::Exact { only: p.only },
            Mode::Approx | Mode::Budget => Kind::Approx {
                prob: p.prob,
                ci: p.ci,
                window_factor: p.window_factor,
                seed: p.seed,
            },
            Mode::NodeProfile => Kind::NodeProfile { node: None },
            Mode::TopNodes => Kind::TopNodes {
                motif: p.motif,
                k: p.k,
            },
        };
        Ok(Query {
            delta,
            threads: p.threads,
            kind,
        })
    }

    /// The result-cache key of the query, less δ (the cache keys δ
    /// apart). `threads` is left out: results are bit-identical across
    /// thread counts.
    #[must_use]
    pub fn cache_key(&self) -> String {
        match &self.kind {
            Kind::Exact { only } => {
                let only = match only {
                    None => "all",
                    Some(MotifCategory::Pair) => "pairs",
                    Some(MotifCategory::Star) => "stars",
                    Some(MotifCategory::Triangle) => "triangles",
                };
                format!("exact/only={only}")
            }
            Kind::Approx {
                prob,
                ci,
                window_factor,
                seed,
            } => format!("approx/prob={prob}/ci={ci}/wf={window_factor}/seed={seed}"),
            Kind::NodeProfile { node: Some(u) } => format!("nodes/node={u}"),
            Kind::NodeProfile { node: None } => "nodes/all".into(),
            Kind::TopNodes { motif: Some(m), k } => format!("nodes/top/motif={m}/k={k}"),
            Kind::TopNodes { motif: None, k } => format!("nodes/top/rank=zscore/k={k}"),
        }
    }

    /// Run the query on `g`. `probe` observes the kernel's phase
    /// boundaries (exact and approx kinds); the answer does not depend
    /// on it.
    pub fn compute<P: Probe>(&self, g: &TemporalGraph, probe: &P) -> Answer {
        let (delta, threads) = (self.delta, self.threads);
        let profiles = || NodeProfiles::compute(g, delta, threads);
        match self.kind {
            Kind::Exact { only } => {
                let hare = Hare::new(HareConfig {
                    num_threads: threads,
                    ..HareConfig::default()
                });
                Answer::Exact(Box::new(hare.count_matrix_probed(g, delta, only, probe)))
            }
            Kind::Approx {
                prob,
                ci,
                window_factor,
                seed,
            } => {
                let counter = SampledCounter::new(SampleConfig {
                    prob,
                    window_factor,
                    confidence: ci,
                    seed,
                    threads,
                });
                Answer::Approx {
                    est: Box::new(counter.count_probed(g, delta, probe)),
                    window_factor,
                    seed,
                }
            }
            Kind::NodeProfile { node } => Answer::Profiles {
                profiles: profiles(),
                node,
            },
            Kind::TopNodes {
                motif: Some(motif),
                k,
            } => {
                let profiles = profiles();
                let rows = top_k_nodes(&profiles, motif, k);
                Answer::ByMotif {
                    profiles,
                    motif,
                    k,
                    rows,
                }
            }
            Kind::TopNodes { motif: None, k } => {
                let profiles = profiles();
                let rows = rank_by_zscore(&profiles, &ProfileDistribution::compute(&profiles), k);
                Answer::ByZscore { profiles, k, rows }
            }
        }
    }

    /// [`compute`](Query::compute), rendered as the daemon serves it: no
    /// timing, so the bytes are stable and cacheable.
    pub fn run<P: Probe>(&self, g: &TemporalGraph, stats: &GraphStats, probe: &P) -> String {
        self.compute(g, probe).render(self.delta, stats, None)
    }
}

/// The result of [`Query::compute`], with what rendering it needs.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// The motif grid.
    Exact(Box<MotifMatrix>),
    /// Sampled estimates and the window settings that produced them.
    Approx {
        /// The estimates.
        est: Box<SampledCounts>,
        /// Sampling window length in units of δ.
        window_factor: i64,
        /// Sampling seed.
        seed: u64,
    },
    /// Per-node profiles: one node's, or every participating node's.
    Profiles {
        /// Every participating node's profile.
        profiles: NodeProfiles,
        /// The node asked for, if one was.
        node: Option<NodeId>,
    },
    /// The top `k` nodes by participation in `motif`.
    ByMotif {
        /// Every participating node's profile.
        profiles: NodeProfiles,
        /// The motif ranked by.
        motif: Motif,
        /// Rows asked for.
        k: usize,
        /// `(node, count)`, count descending, node ascending on ties.
        rows: Vec<(NodeId, u64)>,
    },
    /// The top `k` nodes by z-score anomaly.
    ByZscore {
        /// Every participating node's profile.
        profiles: NodeProfiles,
        /// Rows asked for.
        k: usize,
        /// `(node, score)`, most anomalous first.
        rows: Vec<(NodeId, f64)>,
    },
}

impl Answer {
    /// The wire bytes: one rendered [`report`] body, or one line per node
    /// for every node's profile. `seconds` is written into the exact and
    /// approx bodies only; the per-node bodies are timing-free.
    #[must_use]
    pub fn render(&self, delta: Timestamp, stats: &GraphStats, seconds: Option<f64>) -> String {
        let (nodes, edges) = (stats.num_nodes, stats.num_edges);
        match self {
            Answer::Exact(matrix) => {
                report::render(&report::exact_body(nodes, edges, delta, matrix, seconds))
            }
            Answer::Approx {
                est,
                window_factor,
                seed,
            } => report::render(&report::approx_body(
                nodes,
                edges,
                delta,
                *window_factor,
                *seed,
                est,
                seconds,
            )),
            Answer::Profiles {
                profiles,
                node: Some(u),
            } => {
                let profile = profiles.get(*u).copied().unwrap_or_default();
                report::render(&report::node_profile_body(*u, delta, &profile))
            }
            Answer::Profiles {
                profiles,
                node: None,
            } => profiles
                .iter()
                .map(|(u, p)| report::render(&report::node_profile_body(u, delta, p)))
                .collect(),
            Answer::ByMotif { motif, k, rows, .. } => {
                report::render(&report::top_nodes_body(delta, *motif, *k, rows))
            }
            Answer::ByZscore { k, rows, .. } => {
                report::render(&report::zscore_nodes_body(delta, *k, rows))
            }
        }
    }
}

/// The sliding-window rules shared by `hare-count --window` and
/// `POST /sessions`: δ ≥ 0, a window W ≥ δ, reorder slack ≥ 0, and a
/// memory budget, if any, of at least one byte.
pub fn check_stream(
    delta: Timestamp,
    window: Timestamp,
    slack: Timestamp,
    memory_budget: Option<u64>,
) -> Result<(), QueryError> {
    let fail = |key: &str, message: String| Err(QueryError::new(key, message));
    if delta < 0 {
        return fail("delta", format!("must be at least 0, got {delta}"));
    }
    if window < delta {
        return fail("window", format!("must be >= delta ({window} < {delta})"));
    }
    if slack < 0 {
        return fail("slack", format!("must be at least 0, got {slack}"));
    }
    if memory_budget == Some(0) {
        return fail("memory_budget", "must be at least 1 byte".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(m: Mode) -> Option<&'static str> {
        Some(match m {
            Mode::Exact => "EXACT",
            Mode::Approx => "APPROX",
            Mode::NodeProfile => "NODES",
            Mode::TopNodes => "TOP",
            Mode::Window => "WINDOW",
            Mode::Budget => "BUDGET",
        })
    }

    fn parse(mode: Mode, pairs: &[(&str, &str)]) -> Result<Query, QueryError> {
        Query::parse(mode, pairs, names)
    }

    fn key(mode: Mode, pairs: &[(&str, &str)]) -> String {
        parse(mode, pairs).unwrap().cache_key()
    }

    #[test]
    fn cache_keys_are_pinned_for_every_kind_and_default() {
        let d = ("delta", "600");
        assert_eq!(key(Mode::Exact, &[d]), "exact/only=all");
        assert_eq!(key(Mode::Exact, &[d, ("only", "all")]), "exact/only=all");
        assert_eq!(
            key(Mode::Exact, &[d, ("engine", "exact")]),
            "exact/only=all"
        );
        assert_eq!(
            key(Mode::Exact, &[d, ("only", "triangles")]),
            "exact/only=triangles"
        );
        let approx = "approx/prob=0.1/ci=0.95/wf=10/seed=42";
        assert_eq!(key(Mode::Exact, &[d, ("engine", "approx")]), approx);
        assert_eq!(
            key(Mode::Exact, &[d, ("engine", "approx"), ("prob", "0.10")]),
            approx
        );
        assert_eq!(
            key(
                Mode::Exact,
                &[
                    d,
                    ("engine", "approx"),
                    ("prob", "0.5"),
                    ("ci", "0.99"),
                    ("window_factor", "3"),
                    ("seed", "7"),
                ]
            ),
            "approx/prob=0.5/ci=0.99/wf=3/seed=7"
        );
        let mut q = parse(Mode::NodeProfile, &[d]).unwrap();
        q.kind = Kind::NodeProfile { node: Some(3) };
        assert_eq!(q.cache_key(), "nodes/node=3");
        assert_eq!(key(Mode::TopNodes, &[d]), "nodes/top/rank=zscore/k=10");
        assert_eq!(
            key(Mode::TopNodes, &[d, ("motif", "m65"), ("k", "2")]),
            "nodes/top/motif=M65/k=2"
        );
        // threads never reaches the key.
        assert_eq!(key(Mode::Exact, &[d, ("threads", "7")]), "exact/only=all");
    }

    #[test]
    fn every_key_is_accepted_by_exactly_the_modes_its_row_lists() {
        for row in &KEYS {
            let value = match row.key {
                "delta" => "1",
                "motif" => "M65",
                _ => row.default.unwrap(),
            };
            for &mode in ALL {
                let got = parse(mode, &[("delta", "1"), (row.key, value)]);
                if row.modes.contains(&mode) {
                    assert!(got.is_ok(), "{} under {mode:?}: {got:?}", row.key);
                } else {
                    let e = got.unwrap_err();
                    assert_eq!(e.key, row.key, "{mode:?}");
                    assert!(e.message.contains(names(mode).unwrap()), "{e:?}");
                    for &taker in row.modes {
                        assert!(e.message.contains(names(taker).unwrap()), "{e:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn values_are_range_checked_once_for_every_mode() {
        for (mode, k, v) in [
            (Mode::Exact, "delta", "-5"),
            (Mode::Window, "delta", "-1"),
            (Mode::TopNodes, "delta", "abc"),
            (Mode::NodeProfile, "threads", "1025"),
            (Mode::Exact, "engine", "warp"),
            (Mode::Exact, "only", "wedges"),
            (Mode::Approx, "prob", "0"),
            (Mode::Approx, "prob", "1.5"),
            (Mode::Budget, "ci", "1"),
            (Mode::Approx, "window_factor", "0"),
            (Mode::Budget, "seed", "-1"),
            (Mode::TopNodes, "k", "0"),
            (Mode::TopNodes, "motif", "M70"),
        ] {
            let mut pairs = vec![("delta", "1"), (k, v)];
            if k == "delta" {
                pairs.remove(0);
            }
            let e = parse(mode, &pairs).unwrap_err();
            assert_eq!(e.key, k, "{mode:?} {k}={v}: {e:?}");
        }
        let e = parse(Mode::Exact, &[]).unwrap_err();
        assert_eq!(e.key, "delta");
        let e = parse(Mode::Exact, &[("delta", "1"), ("prb", "0.5")]).unwrap_err();
        assert_eq!(e.key, "prb");
        assert!(parse(Mode::Approx, &[("delta", "0"), ("prob", "1")]).is_ok());
    }

    #[test]
    fn last_value_wins_and_engine_picks_the_count_kind() {
        let q = parse(
            Mode::Exact,
            &[("threads", "4"), ("delta", "1"), ("threads", "2")],
        )
        .unwrap();
        assert_eq!((q.delta, q.threads), (1, 2));
        let q = parse(
            Mode::Exact,
            &[("prob", "0.5"), ("delta", "1"), ("engine", "approx")],
        );
        assert!(matches!(q.unwrap().kind, Kind::Approx { prob, .. } if prob == 0.5));
        let q = parse(Mode::Budget, &[("delta", "1"), ("seed", "7")]).unwrap();
        assert!(matches!(q.kind, Kind::Approx { seed: 7, .. }));
        assert!(parse(Mode::Budget, &[("delta", "1"), ("engine", "approx")]).is_err());
    }

    #[test]
    fn stream_rules_name_the_field_at_fault() {
        assert!(check_stream(10, 10, 0, None).is_ok());
        for (args, key) in [
            ((-1, 10, 0, None), "delta"),
            ((10, 5, 0, None), "window"),
            ((10, 20, -1, None), "slack"),
            ((10, 20, 0, Some(0)), "memory_budget"),
        ] {
            let (d, w, s, b) = args;
            assert_eq!(check_stream(d, w, s, b).unwrap_err().key, key);
        }
    }
}
