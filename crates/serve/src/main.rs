//! `hare-serve` — the motif-query service daemon.
//!
//! ```text
//! hare-serve --preload CollegeMsg:8 --port 7878
//! curl 'http://127.0.0.1:7878/count?dataset=CollegeMsg&delta=600'
//! ```
//!
//! On startup one JSON line is printed to stdout
//! (`{"listening":"127.0.0.1:PORT",...}`) so scripts and the e2e suite
//! can discover an ephemeral port (`--port 0`). SIGINT/SIGTERM (and
//! `POST /shutdown` with `--enable-shutdown`) drain in-flight queries
//! before exit.

use std::process::ExitCode;
use std::time::Duration;

use hare_serve::{Server, ServerConfig};

const USAGE: &str = "\
hare-serve: concurrent temporal motif-query service (HTTP/1.1 + JSON)

USAGE:
    hare-serve [options]

OPTIONS:
    --addr HOST:PORT    bind address (default 127.0.0.1:7878)
    --port N            shorthand for 127.0.0.1:N (0 = ephemeral port)
    --workers N         request worker threads (default 4)
    --queue N           bounded request queue; overflow answers 429
                        (default 64)
    --cache N           result-cache entries, 0 disables (default 256)
    --threads N         default per-query counting threads
                        (default 0 = all cores; per-request ?threads=N)
    --preload NAME[:SCALE]
                        load a registry dataset at startup (repeatable)
    --max-body BYTES    largest accepted request body (default 16 MiB)
    --max-sessions N    cap on simultaneously open streaming sessions
                        (default 1024; creation beyond it answers 429).
                        Bounds session *count* only — pair with
                        --session-memory-budget to also bound the bytes
                        budgeted sessions may reserve
    --session-memory-budget BYTES
                        daemon-wide byte pool for budgeted sessions
                        (default unmetered): each session created with a
                        'memory_budget' reserves its bytes from the pool
                        (429 when exhausted) and returns them on close
    --io-timeout SECS   per-connection socket timeout (default 30)
    --enable-shutdown   allow POST /shutdown (test mode)
    --no-access-log     silence the per-request JSON access log the
                        daemon writes to stderr (on by default)
    --help              this text

Prometheus metrics are served at GET /metrics; per-request kernel
phase timings at GET /count?...&trace=1 (see docs/OBSERVABILITY.md).
Every /count response body is byte-identical to the equivalent
`hare-count --json --no-timing` invocation; see docs/SERVICE.md.
";

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig {
        // The daemon logs requests by default (operators can tail it);
        // the library default stays quiet for embedded/test servers.
        access_log: true,
        ..ServerConfig::default()
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--port" => {
                let port: u16 = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?;
                cfg.addr = format!("127.0.0.1:{port}");
            }
            "--workers" => {
                cfg.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                cfg.queue_capacity = value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--cache" => {
                cfg.cache_capacity = value("--cache")?
                    .parse()
                    .map_err(|e| format!("--cache: {e}"))?
            }
            "--threads" => {
                cfg.query_threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                // Every query carries this default through the same bound.
                if cfg.query_threads > hare::query::MAX_QUERY_THREADS {
                    return Err(format!(
                        "--threads must be at most {}",
                        hare::query::MAX_QUERY_THREADS
                    ));
                }
            }
            "--max-body" => {
                cfg.max_body_bytes = value("--max-body")?
                    .parse()
                    .map_err(|e| format!("--max-body: {e}"))?
            }
            "--max-sessions" => {
                cfg.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?
            }
            "--session-memory-budget" => {
                let pool: u64 = value("--session-memory-budget")?
                    .parse()
                    .map_err(|e| format!("--session-memory-budget: {e}"))?;
                if pool == 0 {
                    return Err("--session-memory-budget must be at least 1 byte".into());
                }
                cfg.session_memory_budget = Some(pool);
            }
            "--io-timeout" => {
                let secs: u64 = value("--io-timeout")?
                    .parse()
                    .map_err(|e| format!("--io-timeout: {e}"))?;
                cfg.io_timeout = Duration::from_secs(secs.max(1));
            }
            "--preload" => {
                let spec = value("--preload")?;
                let (name, scale) = match spec.split_once(':') {
                    Some((name, scale)) => (
                        name.to_string(),
                        scale
                            .parse::<usize>()
                            .map_err(|e| format!("--preload {spec:?}: {e}"))?,
                    ),
                    None => (spec, 1),
                };
                if scale == 0 {
                    return Err("--preload scale must be at least 1".into());
                }
                cfg.preload.push((name, scale));
            }
            "--enable-shutdown" => cfg.enable_shutdown = true,
            "--no-access-log" => cfg.access_log = false,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if cfg.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if cfg.queue_capacity == 0 {
        return Err("--queue must be at least 1".into());
    }
    Ok(cfg)
}

/// SIGINT/SIGTERM → set a flag; a watcher thread turns the flag into a
/// graceful shutdown request. The handler itself only stores an atomic
/// (the sole async-signal-safe thing to do).
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Install the handlers (idempotent).
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal(2)` is called with valid constant signal
        // numbers and a function pointer of the exact C signature libc
        // expects (`extern "C" fn(i32)`), passed as the integer-sized
        // handler argument the raw declaration uses. The handler is
        // async-signal-safe: it only stores to a static AtomicBool.
        // Re-installation is idempotent, and no Rust aliasing rules are
        // involved on either side of the call.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// `true` once a termination signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

fn run(cfg: ServerConfig) -> Result<(), String> {
    let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
    let state = server.state();

    // One machine-readable startup line: scripts read the actual port.
    println!(
        "{}",
        serde_json::json!({
            "listening": addr.to_string(),
            "datasets": state.catalog.names(),
            "workers": state.cfg.workers,
            "queue": state.cfg.queue_capacity,
            "cache": state.cfg.cache_capacity,
            "shutdown_enabled": state.cfg.enable_shutdown,
        })
    );
    // Line-buffer stdout so the port line is visible to a piping parent
    // immediately.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    signals::install();
    let watcher_state = server.state();
    std::thread::Builder::new()
        .name("hare-serve-signals".into())
        .spawn(move || loop {
            if signals::requested() {
                watcher_state.request_shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        })
        .map_err(|e| format!("signal watcher: {e}"))?;

    server.run().map_err(|e| format!("serve: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(cfg) => match run(cfg) {
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

    #[test]
    fn parses_defaults_and_flags() {
        let cfg = parse_args(&args(&[])).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:7878");
        assert_eq!(cfg.workers, 4);
        assert!(cfg.access_log, "daemon logs by default");
        assert!(!parse_args(&args(&["--no-access-log"])).unwrap().access_log);

        let cfg = parse_args(&args(&[
            "--port",
            "0",
            "--workers",
            "2",
            "--queue",
            "8",
            "--cache",
            "32",
            "--threads",
            "1",
            "--preload",
            "CollegeMsg:8",
            "--preload",
            "Bitcoinalpha",
            "--session-memory-budget",
            "1048576",
            "--enable-shutdown",
        ]))
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.queue_capacity, 8);
        assert_eq!(cfg.cache_capacity, 32);
        assert_eq!(cfg.query_threads, 1);
        assert_eq!(
            cfg.preload,
            vec![("CollegeMsg".into(), 8), ("Bitcoinalpha".into(), 1)]
        );
        assert_eq!(cfg.session_memory_budget, Some(1_048_576));
        assert!(cfg.enable_shutdown);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(&args(&["--port", "abc"])).is_err());
        assert!(parse_args(&args(&["--workers", "0"])).is_err());
        assert!(parse_args(&args(&["--queue", "0"])).is_err());
        assert!(parse_args(&args(&["--preload", "CollegeMsg:0"])).is_err());
        assert!(parse_args(&args(&["--session-memory-budget", "0"])).is_err());
        assert!(parse_args(&args(&["--session-memory-budget", "abc"])).is_err());
        assert!(parse_args(&args(&["--nope"])).is_err());
        assert_eq!(parse_args(&args(&["--help"])).unwrap_err(), "");
    }
}
