//! `serve-mixed`: an in-process `hare-serve` (workers = available
//! cores, `--preload CollegeMsg:8`) under a closed loop of one client
//! thread per core. Each client waits for every reply before sending
//! its next request, drawn from a seeded mix:
//!
//! * 75% `GET /count` with a δ from the warmed hot set (cache hits);
//! * 15% `GET /count` with a δ never asked before (cache misses that
//!   run the kernel; every other one asks for `threads=1`);
//! * 10% `POST /sessions/{id}/edges`: the next batch of the client's
//!   chronological edge stream into its own exact session.
//!
//! In place of a draw, each client also sends `POST /datasets` (a
//! few-thousand-edge SNAP body under a fresh name) every
//! [`UPLOAD_EVERY`].
//!
//! Checks: every `/count` body equals the body the library renders from
//! a FAST count, uploads answer 201 with the right edge count, and each
//! session's final tick equals a local `WindowedCounter` fed the same
//! batches. Any other status, I/O error or mismatch fails.

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use hare::WindowedCounter;
use hare_serve::http::client;
use hare_serve::{Server, ServerConfig, ServerHandle};
use serde_json::Value;
use temporal_graph::{NodeId, TemporalGraph, Timestamp};

use crate::inputs::{derive, fingerprint, fnv1a, snap_text, splitmix64, stand_in};
use crate::metrics::{peak_rss_mb, Report};
use crate::stats::{mean, median, percentile};
use crate::trace::{self_secs, self_times, Tracer};

/// The warmed δ values hits draw from.
pub const HOT: [Timestamp; 3] = [600, 3600, 86_400];
/// The registry stand-in the server preloads, and its scale divisor
/// (`hare-serve --preload CollegeMsg:8`). It is the same for every seed,
/// so the cost of a miss does not change with the seed.
const DATASET: &str = "CollegeMsg";
const PRELOAD_SCALE: usize = 8;
/// Session windows: δ and the live window W.
const SESSION_DELTA: Timestamp = 600;
const SESSION_WINDOW: Timestamp = 3600;
/// Cache misses draw δ from `[MISS_DELTA_MIN, MISS_DELTA_MIN + SPAN)`,
/// the range the hot set spans.
const MISS_DELTA_MIN: Timestamp = 601;
const MISS_DELTA_SPAN: u64 = 86_000;
/// Edges per session push.
const PUSH_BATCH: usize = 50;
/// Distinct upload bodies (each upload still gets a fresh name).
const UPLOAD_POOL: u64 = 16;
/// Each client uploads once per this interval. Uploaded graphs stay in
/// the catalog, so a fixed pace (rather than a share of requests) keeps
/// memory growth independent of throughput.
const UPLOAD_EVERY: Duration = Duration::from_millis(100);
/// Server start-ups per run; `setup_s` is their median and the last
/// one serves the load.
const SETUPS: usize = 25;

type Edge = (NodeId, NodeId, Timestamp);

/// Everything the run sends, derived from the seed.
pub struct Inputs {
    /// Upload bodies' SNAP text with their edge counts.
    pub uploads: Vec<(String, usize)>,
    /// One chronological edge stream per client.
    pub streams: Vec<Vec<Edge>>,
    /// Fingerprint over all of the above.
    pub fingerprint: u64,
}

/// Generate the inputs for `clients` clients: the upload bodies are
/// CollegeMsg stand-ins at `1/(8·scale)` size, the session streams at
/// `1/scale` (the workload uses `scale` = 1).
#[must_use]
pub fn inputs(seed: u64, clients: usize, scale: usize) -> Inputs {
    let uploads: Vec<(String, usize)> = (0..UPLOAD_POOL)
        .map(|i| {
            let g = stand_in("CollegeMsg", 8 * scale, derive(seed, "serve-upload", i)).generate();
            (snap_text(&g), g.num_edges())
        })
        .collect();
    let stream_graphs: Vec<TemporalGraph> = (0..clients as u64)
        .map(|c| stand_in("CollegeMsg", scale, derive(seed, "serve-session", c)).generate())
        .collect();
    let stream_texts: Vec<String> = stream_graphs.iter().map(snap_text).collect();
    let streams = stream_graphs
        .iter()
        .map(|g| g.edges().iter().map(|e| (e.src, e.dst, e.t)).collect())
        .collect();
    let fingerprint = fingerprint(
        uploads
            .iter()
            .map(|(t, _)| t.as_bytes())
            .chain(stream_texts.iter().map(String::as_bytes)),
    );
    Inputs {
        uploads,
        streams,
        fingerprint,
    }
}

/// A client's endless chronological stream: the base stream replayed
/// with each lap shifted past the previous one's last timestamp.
struct Stream<'a> {
    edges: &'a [Edge],
    next: usize,
}

impl Stream<'_> {
    fn batch(&mut self) -> Vec<Edge> {
        let n = self.edges.len();
        let (first, last) = (self.edges[0].2, self.edges[n - 1].2);
        let start = self.next;
        self.next += PUSH_BATCH;
        (start..start + PUSH_BATCH)
            .map(|i| {
                let lap = (i / n) as i64;
                let (s, d, t) = self.edges[i % n];
                (s, d, t - first + lap * (last - first + 1))
            })
            .collect()
    }
}

/// The `/count` body the library renders from a FAST count, and the
/// count's total.
fn body_for(delta: Timestamp, g: &TemporalGraph) -> (String, u64) {
    let fast = hare::count_motifs(g, delta);
    let body = hare::report::render(&hare::report::exact_body(
        g.num_nodes(),
        g.num_edges(),
        delta,
        &fast.matrix,
        None,
    ));
    (body, fast.total())
}

fn expect(
    resp: std::io::Result<client::Response>,
    status: u16,
) -> Result<client::Response, String> {
    match resp {
        Ok(r) if r.status == status => Ok(r),
        Ok(r) => Err(format!(
            "status {} (want {status}): {}",
            r.status,
            r.text().trim_end()
        )),
        Err(e) => Err(format!("i/o error: {e}")),
    }
}

/// Bind a server with the preload, warm the hot set and create one
/// session per client.
fn start(hot: &[String], clients: usize) -> Result<(ServerHandle, Vec<u64>), String> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: clients,
        preload: vec![(DATASET.into(), PRELOAD_SCALE)],
        ..ServerConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    let addr = handle.addr();
    for (delta, want) in HOT.iter().zip(hot) {
        let r = expect(
            client::get(addr, &format!("/count?dataset={DATASET}&delta={delta}")),
            200,
        )?;
        if r.text() != *want {
            return Err(format!("warm-up δ={delta}: body differs from FAST"));
        }
    }
    let mut sessions = Vec::with_capacity(clients);
    for _ in 0..clients {
        let spec =
            serde_json::json!({"delta": SESSION_DELTA, "window": SESSION_WINDOW}).to_string();
        let r = expect(client::post(addr, "/sessions", &spec), 201)?;
        let id = r.json().ok().and_then(|v| v["session"].as_u64());
        sessions.push(id.ok_or("session create: no id")?);
    }
    Ok((handle, sessions))
}

/// Request classes of the mix, also the span names.
const HIT: &str = "http.hit";
const MISS: &str = "api.miss";
const MISS_1T: &str = "api.miss_1t";
const PUSH: &str = "sessions.push";
const UPLOAD: &str = "catalog.upload";

struct ClientOut {
    /// Per request: class, latency in seconds and whether it was traced.
    requests: Vec<(&'static str, f64, bool)>,
    /// Per miss: δ and the FNV-1a hash of the body. Bodies are checked
    /// after the load; keeping only hashes keeps this process's memory
    /// independent of how many requests it served.
    misses: Vec<(Timestamp, u64)>,
    /// The local replay of everything this client pushed.
    replay: Replay,
    pushed_edges: usize,
    failures: Vec<String>,
}

struct Load<'a> {
    addr: SocketAddr,
    inp: &'a Inputs,
    hot: &'a [String],
    deadline: Instant,
    traced: bool,
    seed: u64,
    clients: usize,
}

/// One request of the mix, built before the clock starts.
enum Kind {
    Hit(usize),
    Miss(Timestamp),
    Push(Vec<Edge>),
    Upload(String, usize),
}

fn client_loop(load: &Load<'_>, c: usize, session: u64, tracer: &mut Tracer) -> ClientOut {
    let mut out = ClientOut {
        requests: Vec::new(),
        misses: Vec::new(),
        replay: Replay::new(),
        pushed_edges: 0,
        failures: Vec::new(),
    };
    let mut rng = derive(load.seed, "serve-client", c as u64);
    let mut stream = Stream {
        edges: &load.inp.streams[c],
        next: 0,
    };
    let mut seen: BTreeSet<Timestamp> = HOT.iter().copied().collect();
    let (mut uploads, mut misses) = (0u64, 0u64);
    // Clients take turns on the upload clock.
    let mut next_upload =
        Instant::now() + UPLOAD_EVERY.mul_f64((c + 1) as f64 / load.clients as f64);
    let mut seq = 0u64;
    while Instant::now() < load.deadline {
        let req = ((c as u64) << 40) | seq;
        let on = load.traced && seq.is_multiple_of(2);
        seq += 1;
        tracer.set_enabled(on);
        let draw = splitmix64(&mut rng) % 100;
        let (class, kind) = if Instant::now() >= next_upload {
            next_upload += UPLOAD_EVERY;
            let (text, edges) = &load.inp.uploads[(uploads % UPLOAD_POOL) as usize];
            let name = format!("upload-{c}-{uploads}");
            uploads += 1;
            let body = serde_json::json!({"name": name.as_str(), "edges": text.as_str()});
            (UPLOAD, Kind::Upload(body.to_string(), *edges))
        } else if draw < 75 {
            (
                HIT,
                Kind::Hit((splitmix64(&mut rng) % HOT.len() as u64) as usize),
            )
        } else if draw < 90 {
            // A δ no request has used: each client owns one residue
            // class, and probing past δs it used keeps it from
            // repeating itself.
            let mut delta = MISS_DELTA_MIN
                + (splitmix64(&mut rng) % MISS_DELTA_SPAN) as Timestamp / load.clients as Timestamp
                    * load.clients as Timestamp
                + c as Timestamp;
            while !seen.insert(delta) {
                delta += load.clients as Timestamp;
            }
            misses += 1;
            (
                if misses % 2 == 0 { MISS_1T } else { MISS },
                Kind::Miss(delta),
            )
        } else {
            (PUSH, Kind::Push(stream.batch()))
        };
        let (method, path, body) = match &kind {
            Kind::Hit(i) => (
                "GET",
                format!("/count?dataset={DATASET}&delta={}", HOT[*i]),
                None,
            ),
            Kind::Miss(delta) => {
                let threads = if class == MISS_1T { "&threads=1" } else { "" };
                (
                    "GET",
                    format!("/count?dataset={DATASET}&delta={delta}{threads}"),
                    None,
                )
            }
            Kind::Push(batch) => {
                let rows = batch
                    .iter()
                    .map(|&(s, d, t)| serde_json::json!([s, d, t]))
                    .collect();
                let body = serde_json::json!({"edges": Value::Array(rows)}).to_string();
                ("POST", format!("/sessions/{session}/edges"), Some(body))
            }
            Kind::Upload(body, _) => ("POST", "/datasets".to_string(), Some(body.clone())),
        };

        let t0 = Instant::now();
        let resp = tracer.span(class, req, |_| {
            client::request(load.addr, method, &path, body.as_deref().map(str::as_bytes))
        });
        let secs = t0.elapsed().as_secs_f64();

        let result = match kind {
            Kind::Hit(i) => expect(resp, 200).and_then(|r| {
                if r.text() == load.hot[i] {
                    Ok(())
                } else {
                    Err(format!("hit δ={}: body differs from FAST", HOT[i]))
                }
            }),
            Kind::Miss(delta) => {
                expect(resp, 200).map(|r| out.misses.push((delta, fnv1a(&r.body))))
            }
            Kind::Push(batch) => {
                let n = batch.len() as u64;
                out.replay.push(&batch);
                out.pushed_edges += batch.len();
                expect(resp, 200).and_then(|r| {
                    match r.json().ok().and_then(|v| v["accepted"].as_u64()) {
                        Some(a) if a == n => Ok(()),
                        other => Err(format!("push accepted {other:?} of {n}")),
                    }
                })
            }
            Kind::Upload(_, edges) => expect(resp, 201).and_then(|r| {
                match r.json().ok().and_then(|v| v["edges"].as_u64()) {
                    Some(e) if e == edges as u64 => Ok(()),
                    other => Err(format!("upload: edges {other:?}, want {edges}")),
                }
            }),
        };
        out.requests.push((class, secs, on));
        if let Err(e) = result {
            out.failures.push(e);
        }
    }
    out
}

/// A local `WindowedCounter` fed the same batches as a client's
/// session; the session's final tick must equal its body.
struct Replay {
    wc: WindowedCounter,
    late: u64,
    loops: u64,
    tick: Option<Timestamp>,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            wc: WindowedCounter::new(SESSION_DELTA, SESSION_WINDOW),
            late: 0,
            loops: 0,
            tick: None,
        }
    }

    fn push(&mut self, batch: &[Edge]) {
        for &(s, d, t) in batch {
            match self.wc.push(s, d, t) {
                Ok(()) => self.tick = Some(self.tick.map_or(t, |m| m.max(t))),
                Err(_) if s == d => self.loops += 1,
                Err(_) => self.late += 1,
            }
        }
    }

    fn body(&self) -> String {
        hare::report::render(&hare::report::windowed_tick_body(
            self.tick.unwrap_or(0),
            &self.wc,
            self.late,
            self.loops,
        ))
    }
}

/// `/stats` counters and `/metrics` request-duration sums, for deltas.
#[derive(Debug, Default, Clone, Copy)]
struct Scrape {
    hits: f64,
    misses: f64,
    evictions: f64,
    rejected: f64,
    /// (sum µs, count) for /count, /sessions, /datasets.
    durations: [(f64, f64); 3],
}

const ENDPOINTS: [&str; 3] = ["/count", "/sessions", "/datasets"];

fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let stats = expect(client::get(addr, "/stats"), 200)?
        .json()
        .map_err(|e| format!("/stats: {e}"))?;
    let num = |v: &Value| v.as_f64().unwrap_or(0.0);
    let metrics = expect(client::get(addr, "/metrics"), 200)?.text();
    let series = |kind: &str, path: &str| -> f64 {
        let prefix = format!("hare_http_request_duration_us_{kind}{{path=\"{path}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(prefix.as_str()))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Ok(Scrape {
        hits: num(&stats["cache"]["hits"]),
        misses: num(&stats["cache"]["misses"]),
        evictions: num(&stats["cache"]["evictions"]),
        rejected: num(&stats["queue"]["rejected"]),
        durations: ENDPOINTS.map(|p| (series("sum", p), series("count", p))),
    })
}

/// Run the workload: set-up, about `seconds` of closed-loop load, then
/// the checks.
pub fn run(seed: u64, seconds: u64, traced: bool, origin: Instant) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut tracer = Tracer::new(origin, traced);
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inp = inputs(seed, clients, 1);
    let graph = hare_datasets::by_name(DATASET)
        .expect("registry dataset")
        .generate(PRELOAD_SCALE);
    let (hot, totals): (Vec<String>, Vec<u64>) = HOT.iter().map(|&d| body_for(d, &graph)).unzip();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let started = start(&hot, clients);
        setups.push(t0.elapsed().as_secs_f64());
        report.check(started.is_ok(), || {
            format!("set-up {i}: {:?}", started.as_ref().err())
        });
        match started {
            Ok(s) if i + 1 == SETUPS => served = Some(s),
            Ok((handle, _)) => {
                let stopped = handle.shutdown_and_wait();
                report.check(stopped.is_ok(), || format!("shutdown {i}: {stopped:?}"));
            }
            Err(_) => return (report, tracer),
        }
    }
    let Some((handle, sessions)) = served else {
        return (report, tracer);
    };
    let addr = handle.addr();

    let before = scrape(addr);
    let load = Load {
        addr,
        inp: &inp,
        hot: &hot,
        deadline: Instant::now() + Duration::from_secs(seconds),
        traced,
        seed,
        clients,
    };
    let t0 = Instant::now();
    let outs: Vec<(ClientOut, Tracer)> = std::thread::scope(|s| {
        let workers: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(c, &session)| {
                let load = &load;
                s.spawn(move || {
                    let mut t = Tracer::new(origin, traced);
                    let out = client_loop(load, c, session, &mut t);
                    (out, t)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let after = scrape(addr);

    // Checks after the load, so they do not compete with it.
    let mut lat: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut all, mut on_lat, mut off_lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut misses = Vec::new();
    let mut pushed_edges = 0usize;
    for (c, (out, t)) in outs.into_iter().enumerate() {
        for &(class, secs, on) in &out.requests {
            lat.entry(class).or_default().push(secs);
            all.push(secs);
            (if on { &mut on_lat } else { &mut off_lat }).push(secs);
        }
        for _ in out.failures.len()..out.requests.len() {
            report.check(true, String::new);
        }
        for f in out.failures {
            report.check(false, || format!("client {c}: {f}"));
        }
        misses.extend(out.misses.into_iter().map(|(delta, hash)| (c, delta, hash)));
        pushed_edges += out.pushed_edges;
        let tick = expect(
            client::get(addr, &format!("/sessions/{}", sessions[c])),
            200,
        );
        let want = out.replay.body();
        report.check(tick.as_ref().is_ok_and(|r| r.text() == want), || {
            format!("client {c}: session tick differs from local replay")
        });
        tracer.absorb(t);
    }
    let chunk = misses.len().div_ceil(clients).max(1);
    let verdicts: Vec<bool> = std::thread::scope(|s| {
        let parts: Vec<_> = misses
            .chunks(chunk)
            .map(|part| {
                let graph = &graph;
                s.spawn(move || {
                    part.iter()
                        .map(|(_, delta, hash)| {
                            *hash == fnv1a(body_for(*delta, graph).0.as_bytes())
                        })
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("check thread panicked"))
            .collect()
    });
    for ((c, delta, _), ok) in misses.iter().zip(verdicts) {
        report.check(ok, || {
            format!("client {c}: miss δ={delta}: body differs from FAST")
        });
    }
    if let Err(e) = handle.shutdown_and_wait() {
        report.check(false, || format!("shutdown: {e}"));
    }

    let n = all.len();
    report.set("setup_s", median(&setups), setups.len());
    let class = |name: &str| lat.get(name).map_or(&[][..], Vec::as_slice);
    report.set("count_s", median(class(MISS)), class(MISS).len());
    report.set("count_1t_s", median(class(MISS_1T)), class(MISS_1T).len());
    report.set("latency_p50_ms", median(&all) * 1e3, n);
    report.set("throughput_qps", n as f64 / wall, n);
    for (name, p) in [("latency_p90_ms", 90.0), ("latency_p99_ms", 99.0)] {
        if let Some(v) = percentile(&all, p) {
            report.set(name, v * 1e3, n);
        }
    }
    report.set("graph.edges", graph.num_edges() as f64, 0);
    report.set("graph.nodes", graph.num_nodes() as f64, 0);
    report.set("motifs.total", totals.iter().sum::<u64>() as f64, 0);
    report.set("input.fingerprint", inp.fingerprint as f64, 0);
    let push_secs: f64 = class(PUSH).iter().sum();
    report.set(
        "windowed.edges_per_s",
        pushed_edges as f64 / push_secs,
        class(PUSH).len(),
    );
    for scraped in [&before, &after] {
        report.check(scraped.is_ok(), || format!("scrape: {scraped:?}"));
    }
    if let (Ok(b), Ok(a)) = (before, after) {
        let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
        report.set("cache.hit_ratio", hits / (hits + misses), n);
        report.set("cache.evictions", a.evictions - b.evictions, 0);
        report.set("queue.rejected", a.rejected - b.rejected, 0);
        let (mut sum, mut count) = (0.0, 0.0);
        for (i, metric) in [
            "server.count_mean_ms",
            "server.sessions_mean_ms",
            "server.datasets_mean_ms",
        ]
        .into_iter()
        .enumerate()
        {
            let ds = a.durations[i].0 - b.durations[i].0;
            let dc = a.durations[i].1 - b.durations[i].1;
            report.set(metric, ds / dc / 1e3, dc as usize);
            sum += ds;
            count += dc;
        }
        report.set("http.wait_ms", (mean(&all) - sum / count / 1e6) * 1e3, n);
    }
    if traced {
        let spans = tracer.spans();
        let selfs = self_times(spans);
        for (metric, span) in [
            ("http.hit_ms", HIT),
            ("api.miss_ms", MISS),
            ("sessions.push_ms", PUSH),
            ("catalog.upload_ms", UPLOAD),
        ] {
            let v = self_secs(spans, &selfs, span);
            report.set(metric, median(&v) * 1e3, v.len());
        }
        crate::trace_metrics(&mut report, spans, &selfs, None, &on_lat, &off_lat);
    }
    report.set("peak_rss_mb", peak_rss_mb(), 0);
    (report, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_change_with_it() {
        let (a, b, c) = (inputs(5, 2, 8), inputs(5, 2, 8), inputs(6, 2, 8));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.uploads, b.uploads);
        assert_eq!(a.streams, b.streams);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_ne!(a.streams, c.streams);
    }

    #[test]
    fn streams_stay_chronological_across_laps() {
        let inp = inputs(5, 1, 8);
        let mut s = Stream {
            edges: &inp.streams[0],
            next: 0,
        };
        let laps = inp.streams[0].len() * 2 / PUSH_BATCH + 1;
        let ts: Vec<Timestamp> = (0..laps).flat_map(|_| s.batch()).map(|e| e.2).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }
}
