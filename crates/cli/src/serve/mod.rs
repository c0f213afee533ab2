//! `sapsim serve` — the incremental scheduler as a long-running,
//! versioned placement service.
//!
//! One process, three modes:
//!
//! * **Server** (default): load the paper estate, keep a live
//!   [`PlacementEngine`] behind one service lock, and answer
//!   `sapsim.api/v1` requests over hand-rolled HTTP/1.1
//!   (`POST /v1/request`) and an optional JSONL-over-TCP fast path
//!   (`--tcp`) that shares the same codec.
//! * **Offline applier** (`--script FILE` without `--connect`): execute
//!   the same envelope lines against an in-process [`Service`] and
//!   print the same response bytes — the differential oracle CI diffs
//!   a served session against.
//! * **Scripted client** (`--connect ADDR` / `--connect-tcp ADDR` with
//!   `--script FILE`): drive a running server and print each response.
//!
//! Concurrency model: one accept loop per listener blocks in `accept`
//! and hands each connection (with `TCP_NODELAY` set) to a worker pool.
//! Workers answer reads (`state`, dry-run planning) from a published
//! snapshot fork. Every mutation and every commit runs under one
//! `Mutex<Service>` that owns the live engine, so interleaved what-ifs
//! can never corrupt state — a commit whose base version has been
//! overtaken is answered `conflict`, never applied — and commits apply
//! in lock order. The worker holding the lock republishes the snapshot
//! before it unlocks, so a client that has seen version v never plans on
//! an older one; a fork is a field copy of the engine, so its cost is a
//! memory copy of the estate. A dry run takes the lock only to register
//! its plan, before the client sees the token. Every reply leaves in one
//! `write_all`. `shutdown` raises a flag and dials each listener once,
//! so a loop blocked in `accept` wakes, sees the flag and exits.

pub mod client;
pub mod http;
pub mod service;

use crate::args::Parsed;
use crate::error::CliError;
use sapsim_api::{ApiRequest, ApiResponse, ProtocolError, ShutdownResponse};
use sapsim_core::{PlacementEngine, PlacementGranularity, SimConfig};
use sapsim_obs::MetricsRegistry;
use sapsim_scheduler::PolicyKind;
use service::Service;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Value-taking options `sapsim serve` understands.
pub(crate) const VALUE_OPTIONS: &[&str] = &[
    "listen",
    "tcp",
    "workers",
    "max-body-kib",
    "read-timeout-ms",
    "scale",
    "seed",
    "policy",
    "granularity",
    "overcommit",
    "script",
    "connect",
    "connect-tcp",
];

/// Boolean flags `sapsim serve` understands.
pub(crate) const BOOL_FLAGS: &[&str] = &["strict"];

/// Entry point for `sapsim serve`.
pub(crate) fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let parsed = Parsed::parse(argv, VALUE_OPTIONS, BOOL_FLAGS)?;
    if let Some(addr) = parsed.get("connect") {
        return client::run_http(addr, require_script(&parsed)?, out);
    }
    if let Some(addr) = parsed.get("connect-tcp") {
        return client::run_tcp(addr, require_script(&parsed)?, out);
    }
    let cfg = config_from(&parsed)?;
    let strict = parsed.flag("strict");
    if let Some(script) = parsed.get("script") {
        return run_offline(cfg, script, strict, out);
    }
    run_server(cfg, &parsed, out)
}

/// The engine configuration from serve's CLI knobs.
fn config_from(parsed: &Parsed) -> Result<SimConfig, CliError> {
    let policy = parsed
        .get("policy")
        .unwrap_or("paper-default")
        .parse::<PolicyKind>()
        .map_err(CliError::Usage)?;
    let granularity = parsed
        .get("granularity")
        .unwrap_or("bb")
        .parse::<PlacementGranularity>()
        .map_err(CliError::Usage)?;
    let cfg = service::engine_config(
        parsed.get_parsed("scale", 0.05)?,
        parsed.get_parsed("seed", 0u64)?,
        policy,
        granularity,
        parsed.get_parsed("overcommit", 4.0)?,
    )?;
    Ok(cfg)
}

fn require_script(parsed: &Parsed) -> Result<&str, CliError> {
    parsed.get("script").ok_or_else(|| {
        CliError::Usage("`--connect`/`--connect-tcp` requires `--script FILE`".into())
    })
}

/// Offline applier: the same [`Service::execute`] path the server runs
/// under its lock, printed line for line. A served session replaying the
/// same script produces byte-identical envelopes and the same final
/// state hash.
fn run_offline(
    cfg: SimConfig,
    script: &str,
    strict: bool,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let mut service = Service::new(cfg)?;
    for line in client::read_script(script)? {
        let response = match ApiRequest::parse_line(&line, strict) {
            Ok(request) => service.execute(&request),
            Err(e) => ApiResponse::from_error(&e, None),
        };
        writeln!(out, "{}", response.to_json_line())?;
        if service.shutdown {
            break;
        }
    }
    Ok(())
}

/// Most worker threads `--workers` may ask for. Each worker is an OS
/// thread that holds one connection at a time, and every write waits on
/// the one service lock, so a larger pool buys no throughput.
const MAX_WORKERS: usize = 256;

/// The server's pool and socket limits, range-checked before the estate
/// boots or any thread starts.
#[derive(Debug, PartialEq, Eq)]
struct Limits {
    /// Worker threads, 1 to [`MAX_WORKERS`].
    workers: usize,
    /// Largest accepted request body / JSONL line, bytes.
    max_body: usize,
    /// Per-connection socket read budget (the slow-loris bound).
    read_timeout: Duration,
}

impl Limits {
    fn from_args(parsed: &Parsed) -> Result<Limits, CliError> {
        let workers = parsed.get_parsed("workers", 4usize)?.max(1);
        if workers > MAX_WORKERS {
            return Err(CliError::Usage(format!(
                "`--workers` is at most {MAX_WORKERS}, got {workers}"
            )));
        }
        let kib = parsed.get_parsed("max-body-kib", 64usize)?.max(1);
        let max_body = kib.checked_mul(1024).ok_or_else(|| {
            CliError::Usage(format!(
                "`--max-body-kib` is at most {}, got {kib}",
                usize::MAX / 1024
            ))
        })?;
        let read_timeout =
            Duration::from_millis(parsed.get_parsed("read-timeout-ms", 2000u64)?.max(1));
        Ok(Limits {
            workers,
            max_body,
            read_timeout,
        })
    }
}

/// State shared by the accept loops and worker threads.
struct Shared {
    /// The live engine and the dry-run ledger. A worker holds the lock
    /// to execute a mutation or a commit and republish the snapshot, or
    /// to register a plan it made on the snapshot.
    service: Mutex<Service>,
    /// The published engine view, republished under the service lock
    /// after every executed request. Reads clone the `Arc` and drop the
    /// lock.
    snapshot: RwLock<Arc<PlacementEngine>>,
    /// Request latency histograms, throughput counters, version gauge.
    metrics: Mutex<MetricsRegistry>,
    /// Reject unknown envelope fields.
    strict: bool,
    /// Pool size, body cap and read budget.
    limits: Limits,
    /// Raised by [`Shared::shut_down`]; accept loops drain and exit.
    shutdown: AtomicBool,
    /// One dialable address per listener: the bound address, with an
    /// unspecified IP replaced by loopback.
    listen_addrs: Vec<SocketAddr>,
}

impl Shared {
    /// The published engine view.
    fn snapshot(&self) -> Arc<PlacementEngine> {
        self.snapshot.read().expect("snapshot lock").clone()
    }

    /// Raise the shutdown flag, once, and wake every accept loop blocked
    /// in `accept` by dialing its listener. The connection only has to
    /// reach the kernel's backlog, so the caller never waits on a loop.
    fn shut_down(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for addr in &self.listen_addrs {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Where to dial a listener bound at `addr` from this host.
fn dialable(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
        _ => {}
    }
    addr
}

/// Which front end accepted a connection.
#[derive(Clone, Copy)]
enum ConnKind {
    Http,
    Jsonl,
}

struct Conn {
    kind: ConnKind,
    stream: TcpStream,
}

/// Boot the estate and serve until a `shutdown` request lands.
fn run_server(cfg: SimConfig, parsed: &Parsed, out: &mut dyn Write) -> Result<(), CliError> {
    let listen = parsed.get("listen").unwrap_or("127.0.0.1:7070");
    let limits = Limits::from_args(parsed)?;
    let workers = limits.workers;

    let service = Service::new(cfg)?;
    let (total_nodes, _) = service.engine.node_counts();

    let listener = TcpListener::bind(listen)
        .map_err(|e| CliError::Io(format!("cannot listen on `{listen}`: {e}")))?;
    let http_addr = listener.local_addr()?;
    let tcp_listener = match parsed.get("tcp") {
        Some(addr) => Some(
            TcpListener::bind(addr)
                .map_err(|e| CliError::Io(format!("cannot listen on `{addr}`: {e}")))?,
        ),
        None => None,
    };
    let mut listen_addrs = vec![dialable(http_addr)];
    if let Some(l) = &tcp_listener {
        listen_addrs.push(dialable(l.local_addr()?));
    }

    let shared = Shared {
        snapshot: RwLock::new(Arc::new(service.engine.fork())),
        service: Mutex::new(service),
        metrics: Mutex::new(MetricsRegistry::new()),
        strict: parsed.flag("strict"),
        limits,
        shutdown: AtomicBool::new(false),
        listen_addrs,
    };

    writeln!(
        out,
        "serve: estate ready — {total_nodes} nodes at version 0"
    )?;
    match &tcp_listener {
        Some(l) => writeln!(
            out,
            "serve: http on {http_addr}, jsonl-tcp on {} ({workers} workers)",
            l.local_addr()?
        )?,
        None => writeln!(out, "serve: http on {http_addr} ({workers} workers)")?,
    }
    out.flush()?;

    let (conn_tx, conn_rx) = mpsc::channel::<Conn>();
    let conn_rx = Mutex::new(conn_rx);
    let (shared, conn_rx) = (&shared, &conn_rx);
    thread::scope(|s| {
        let pool: Vec<_> = (0..workers)
            .map(|_| s.spawn(move || worker_loop(shared, conn_rx)))
            .collect();
        if let Some(l) = tcp_listener {
            let conn_tx = conn_tx.clone();
            s.spawn(move || accept_loop(l, ConnKind::Jsonl, conn_tx, shared));
        }
        accept_loop(listener, ConnKind::Http, conn_tx, shared);
        // Once both accept loops are done no sender is left: the workers
        // drain the queue and exit. Joining them here keeps a worker's
        // panic from ending the server.
        for worker in pool {
            let _ = worker.join();
        }
    });

    let service = shared
        .service
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    writeln!(
        out,
        "serve: shut down at version {} with {} vms (state {})",
        service.engine.version(),
        service.engine.vm_count(),
        service.engine.state_hash()
    )?;
    Ok(())
}

/// Accept connections until shutdown. Blocks in `accept`; the flag is
/// checked after every return, so the wake-up connection
/// [`Shared::shut_down`] dials ends the loop (and is dropped unserved).
/// Replies are single writes, so `TCP_NODELAY` sends each at once
/// instead of holding it for the peer's delayed ACK.
fn accept_loop(
    listener: TcpListener,
    kind: ConnKind,
    conn_tx: mpsc::Sender<Conn>,
    shared: &Shared,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let _ = conn_tx.send(Conn { kind, stream });
    }
}

fn worker_loop(shared: &Shared, conn_rx: &Mutex<mpsc::Receiver<Conn>>) {
    loop {
        let conn = {
            let guard = conn_rx.lock().expect("connection queue lock");
            guard.recv()
        };
        let Ok(conn) = conn else { break };
        match conn.kind {
            ConnKind::Http => handle_http(shared, conn.stream),
            ConnKind::Jsonl => handle_jsonl(shared, conn.stream),
        }
    }
}

/// One HTTP exchange: route, answer, close.
fn handle_http(shared: &Shared, mut stream: TcpStream) {
    if http::arm_timeout(&stream, shared.limits.read_timeout).is_err() {
        return;
    }
    let response = match http::read_request(&mut stream, shared.limits.max_body) {
        Err(e) => refuse(shared, &e),
        Ok(request) => match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                let _ = http::write_response(&mut stream, 200, "text/plain", "ok\n");
                return;
            }
            ("GET", "/metrics") => {
                let page = shared
                    .metrics
                    .lock()
                    .expect("metrics lock")
                    .to_prometheus(SERVE_HELP);
                let _ = http::write_response(&mut stream, 200, "text/plain; version=0.0.4", &page);
                return;
            }
            ("GET", "/v1/state") => {
                let started = Instant::now();
                let response = service::state_response(&shared.snapshot(), None);
                observe(shared, "state", &response, started.elapsed());
                response
            }
            ("POST", "/v1/request") => answer_line(shared, &String::from_utf8_lossy(&request.body)),
            (method, path @ ("/healthz" | "/metrics" | "/v1/state" | "/v1/request")) => refuse(
                shared,
                &ProtocolError::MethodNotAllowed(format!(
                    "method `{method}` not allowed on `{path}`"
                )),
            ),
            (_, path) => refuse(
                shared,
                &ProtocolError::NotFound(format!("no route `{path}`")),
            ),
        },
    };
    let _ = http::write_response(
        &mut stream,
        response.http_status(),
        "application/json",
        &response.to_json_line(),
    );
}

/// The JSONL-over-TCP fast path: a persistent connection, one request
/// envelope per line, one response envelope per line, same codec and
/// same dispatch as HTTP.
fn handle_jsonl(shared: &Shared, stream: TcpStream) {
    if http::arm_timeout(&stream, shared.limits.read_timeout).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_jsonl_line(&mut reader, shared.limits.max_body) {
            Ok(None) => break,
            Ok(Some(line)) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let response = answer_line(shared, line);
                let closing = matches!(response, ApiResponse::Shutdown(_));
                if write_line(&mut writer, &response).is_err() {
                    break;
                }
                if closing {
                    break;
                }
            }
            Err(e) => {
                let _ = write_line(&mut writer, &refuse(shared, &e));
                break;
            }
        }
    }
}

/// Send one response envelope and its `\n` in a single write.
fn write_line(stream: &mut TcpStream, response: &ApiResponse) -> std::io::Result<()> {
    let mut line = response.to_json_line();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Read one `\n`-terminated line of at most `cap` bytes before the
/// `\n`; `Ok(None)` on clean EOF before any byte.
fn read_jsonl_line(reader: &mut impl BufRead, cap: usize) -> Result<Option<String>, ProtocolError> {
    let mut buf = Vec::new();
    let limit = u64::try_from(cap).map_or(u64::MAX, |cap| cap.saturating_add(1));
    reader
        .take(limit)
        .read_until(b'\n', &mut buf)
        .map_err(http::io_to_protocol)?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > cap {
        return Err(ProtocolError::TooLarge {
            limit: cap,
            got: buf.len(),
        });
    } else if buf.is_empty() {
        return Ok(None);
    } else {
        return Err(ProtocolError::Malformed(
            "connection closed mid-line".into(),
        ));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ProtocolError::Malformed("request line is not UTF-8".into()))
}

/// Parse one envelope line, dispatch it, and record metrics.
fn answer_line(shared: &Shared, line: &str) -> ApiResponse {
    let started = Instant::now();
    let (op, response) = match ApiRequest::parse_line(line, shared.strict) {
        Ok(request) => (request.op(), dispatch(shared, &request)),
        Err(e) => ("invalid", ApiResponse::from_error(&e, None)),
    };
    observe(shared, op, &response, started.elapsed());
    response
}

/// Route one parsed request. `state` and `shutdown` answer without the
/// service lock; a dry run plans on the snapshot and takes the lock
/// only to register its plan; every other request executes under it.
fn dispatch(shared: &Shared, request: &ApiRequest) -> ApiResponse {
    match request {
        ApiRequest::State(r) => return service::state_response(&shared.snapshot(), r.id.clone()),
        ApiRequest::Shutdown(r) => {
            shared.shut_down();
            return ApiResponse::Shutdown(ShutdownResponse::new().with_id(r.id.clone()));
        }
        _ => {}
    }
    if service::is_dry_run(request) {
        let (response, registration) = service::plan_dry_run(&shared.snapshot(), request);
        let Some((token, txn)) = registration else {
            return response;
        };
        // The plan is registered before the client can see its token.
        return match shared.service.lock() {
            Ok(mut service) => {
                service.pending.register(token, txn);
                response
            }
            Err(_) => poisoned(request),
        };
    }
    let Ok(mut service) = shared.service.lock() else {
        return poisoned(request);
    };
    let response = service.execute(request);
    // Republish before unlocking: a client that has seen version v
    // never plans on an older snapshot.
    let view = Arc::new(service.engine.fork());
    *shared.snapshot.write().expect("snapshot lock") = view;
    response
}

/// The answer once a worker has panicked while holding the service lock:
/// the engine may be half-mutated, so nothing touches it again.
fn poisoned(request: &ApiRequest) -> ApiResponse {
    ApiResponse::from_error(
        &ProtocolError::Internal("the placement service failed on an earlier request".into()),
        request.client_id().map(str::to_string),
    )
}

/// Record one answered request: latency histogram and throughput
/// counters per op, error counter per code, placements counter, and
/// the engine-version gauge.
fn observe(shared: &Shared, op: &'static str, response: &ApiResponse, elapsed: Duration) {
    let mut metrics = shared.metrics.lock().expect("metrics lock");
    metrics.counter_with("serve_requests_total", "op", op, 1);
    metrics.observe_with(
        "serve_request_us",
        "op",
        op,
        u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
    );
    match response {
        ApiResponse::Error(e) => metrics.counter_with("serve_errors_total", "code", &e.code, 1),
        ApiResponse::Place(r) if !r.dry_run => {
            metrics.counter("serve_placements_total", r.placed.len() as u64);
            metrics.gauge("serve_version", r.version as f64);
        }
        ApiResponse::Resize(r) if !r.dry_run => metrics.gauge("serve_version", r.version as f64),
        ApiResponse::Evacuate(r) if !r.dry_run => metrics.gauge("serve_version", r.version as f64),
        ApiResponse::Commit(r) => {
            if let ApiResponse::Place(inner) = r.applied.as_ref() {
                metrics.counter("serve_placements_total", inner.placed.len() as u64);
            }
        }
        _ => {}
    }
}

/// Count a protocol failure that never reached dispatch (bad head,
/// oversized body, slow-loris timeout, unknown route) and build its
/// error envelope.
fn refuse(shared: &Shared, err: &ProtocolError) -> ApiResponse {
    let mut metrics = shared.metrics.lock().expect("metrics lock");
    metrics.counter_with("serve_errors_total", "code", err.code(), 1);
    ApiResponse::from_error(err, None)
}

/// Help texts of the `/metrics` page's families.
const SERVE_HELP: [&str; 3] = [
    "Placement-service counter",
    "Placement-service gauge",
    "Placement-service latency histogram",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_page_renders_serve_families() {
        let mut registry = MetricsRegistry::new();
        registry.counter_with("serve_requests_total", "op", "place", 3);
        registry.counter_with("serve_requests_total", "op", "state", 1);
        registry.counter_with("serve_errors_total", "code", "conflict", 1);
        registry.gauge("serve_version", 4.0);
        registry.observe_with("serve_request_us", "op", "place", 120);
        registry.observe_with("serve_request_us", "op", "place", 450);
        let page = registry.to_prometheus(SERVE_HELP);
        assert_eq!(
            page,
            "# HELP sapsim_serve_errors_total Placement-service counter\n\
             # TYPE sapsim_serve_errors_total counter\n\
             sapsim_serve_errors_total{code=\"conflict\"} 1\n\
             # HELP sapsim_serve_requests_total Placement-service counter\n\
             # TYPE sapsim_serve_requests_total counter\n\
             sapsim_serve_requests_total{op=\"place\"} 3\n\
             sapsim_serve_requests_total{op=\"state\"} 1\n\
             # HELP sapsim_serve_version Placement-service gauge\n\
             # TYPE sapsim_serve_version gauge\n\
             sapsim_serve_version 4\n\
             # HELP sapsim_serve_request_us Placement-service latency histogram\n\
             # TYPE sapsim_serve_request_us histogram\n\
             sapsim_serve_request_us_bucket{op=\"place\",le=\"127\"} 1\n\
             sapsim_serve_request_us_bucket{op=\"place\",le=\"511\"} 2\n\
             sapsim_serve_request_us_bucket{op=\"place\",le=\"+Inf\"} 2\n\
             sapsim_serve_request_us_sum{op=\"place\"} 570\n\
             sapsim_serve_request_us_count{op=\"place\"} 2\n"
        );
    }

    #[test]
    fn jsonl_line_reader_enforces_cap_and_eof_rules() {
        let mut ok = std::io::Cursor::new(b"{\"a\":1}\n".to_vec());
        assert_eq!(
            read_jsonl_line(&mut ok, 64).unwrap(),
            Some("{\"a\":1}".to_string())
        );
        assert_eq!(read_jsonl_line(&mut ok, 64).unwrap(), None);

        let mut truncated = std::io::Cursor::new(b"{\"a\":1}".to_vec());
        let err = read_jsonl_line(&mut truncated, 64).unwrap_err();
        assert_eq!(err.code(), "bad-request");

        let mut oversized = std::io::Cursor::new(vec![b'x'; 100]);
        let err = read_jsonl_line(&mut oversized, 10).unwrap_err();
        assert_eq!(err.code(), "too-large");
        assert_eq!(err.http_status(), 413);

        // A line of exactly `cap` bytes fits, and the reader stops at its
        // `\n`; one byte more is refused as `cap + 1` bytes.
        let mut at_cap = std::io::Cursor::new(b"0123456789\nnext\n".to_vec());
        assert_eq!(
            read_jsonl_line(&mut at_cap, 10).unwrap(),
            Some("0123456789".to_string())
        );
        assert_eq!(
            read_jsonl_line(&mut at_cap, 10).unwrap(),
            Some("next".to_string())
        );
        let mut past_cap = std::io::Cursor::new(b"0123456789a\n".to_vec());
        let err = read_jsonl_line(&mut past_cap, 10).unwrap_err();
        assert_eq!(err, ProtocolError::TooLarge { limit: 10, got: 11 });
    }

    fn serve_args(args: &[&str]) -> Parsed {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Parsed::parse(&argv, VALUE_OPTIONS, BOOL_FLAGS).expect("known options")
    }

    #[test]
    fn pool_and_body_limits_are_range_checked_before_anything_starts() {
        assert_eq!(
            Limits::from_args(&serve_args(&[])).unwrap(),
            Limits {
                workers: 4,
                max_body: 64 * 1024,
                read_timeout: Duration::from_millis(2000),
            }
        );
        let largest_kib = usize::MAX / 1024;
        let limits = Limits::from_args(&serve_args(&[
            "--workers",
            &MAX_WORKERS.to_string(),
            "--max-body-kib",
            &largest_kib.to_string(),
        ]))
        .unwrap();
        assert_eq!(limits.workers, MAX_WORKERS);
        assert_eq!(limits.max_body, largest_kib * 1024);
        assert_eq!(
            Limits::from_args(&serve_args(&["--workers", "0"]))
                .unwrap()
                .workers,
            1
        );

        for args in [
            ["--workers", &(MAX_WORKERS + 1).to_string()],
            ["--workers", &usize::MAX.to_string()],
            ["--max-body-kib", &(largest_kib + 1).to_string()],
            ["--max-body-kib", &usize::MAX.to_string()],
        ] {
            let err = Limits::from_args(&serve_args(&args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
        }
    }
}
