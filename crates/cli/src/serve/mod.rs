//! `sapsim serve` — the incremental scheduler as a long-running,
//! versioned placement service.
//!
//! One process, three modes:
//!
//! * **Server** (default): load the paper estate, keep a live
//!   [`PlacementEngine`] behind a single writer thread, and answer
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
//! snapshot fork; every mutation and every commit is funneled through
//! one writer thread that owns the live engine, so interleaved what-ifs
//! can never corrupt state — a commit whose base version has been
//! overtaken is answered `conflict`, never applied. The writer
//! republishes the snapshot after each write; a fork is a field copy of
//! the engine, so its cost is a memory copy of the estate. Every reply
//! leaves in one `write_all`. `shutdown` raises a flag and dials each
//! listener once, so a loop blocked in `accept` wakes, sees the flag and
//! exits.

pub mod client;
pub mod http;
pub mod service;

use crate::args::Parsed;
use crate::error::CliError;
use sapsim_api::{ApiRequest, ApiResponse, ProtocolError, ShutdownResponse};
use sapsim_core::{PlacementEngine, PlacementGranularity, SimConfig};
use sapsim_obs::MetricsRegistry;
use sapsim_scheduler::PolicyKind;
use service::{PendingTxn, Service};
use std::io::{BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// Value-taking options `sapsim serve` understands.
pub const VALUE_OPTIONS: &[&str] = &[
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
pub const BOOL_FLAGS: &[&str] = &["strict"];

/// Entry point for `sapsim serve`.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
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

/// Offline applier: the same [`Service::execute`] path the server's
/// writer runs, printed line for line. A served session replaying the
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

/// State shared by the accept loops and worker threads.
struct Shared {
    /// The published engine view, republished by the writer after every
    /// applied mutation. Reads clone the `Arc` and drop the lock.
    snapshot: RwLock<Arc<PlacementEngine>>,
    /// Request latency histograms, throughput counters, version gauge.
    metrics: Mutex<MetricsRegistry>,
    /// Reject unknown envelope fields.
    strict: bool,
    /// Largest accepted request body / JSONL line, bytes.
    max_body: usize,
    /// Per-connection socket read budget (the slow-loris bound).
    read_timeout: Duration,
    /// Raised by [`Shared::shut_down`]; accept loops drain and exit.
    shutdown: AtomicBool,
    /// One dialable address per listener: the bound address, with an
    /// unspecified IP replaced by loopback.
    listen_addrs: Vec<SocketAddr>,
}

impl Shared {
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

/// Work for the serialized writer thread.
enum WriteMsg {
    /// Apply a live mutation or commit and reply with its response.
    Apply {
        request: ApiRequest,
        reply: mpsc::SyncSender<ApiResponse>,
    },
    /// Register a worker-planned dry-run; acked so the plan is durable
    /// before the client sees its token.
    Register {
        token: String,
        txn: PendingTxn,
        reply: mpsc::SyncSender<()>,
    },
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
    let workers = parsed.get_parsed("workers", 4usize)?.max(1);
    let max_body = parsed.get_parsed("max-body-kib", 64usize)?.max(1) * 1024;
    let read_timeout = Duration::from_millis(parsed.get_parsed("read-timeout-ms", 2000u64)?.max(1));

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

    let shared = Arc::new(Shared {
        snapshot: RwLock::new(Arc::new(service.engine.fork())),
        metrics: Mutex::new(MetricsRegistry::new()),
        strict: parsed.flag("strict"),
        max_body,
        read_timeout,
        shutdown: AtomicBool::new(false),
        listen_addrs,
    });

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

    let (write_tx, write_rx) = mpsc::channel::<WriteMsg>();
    let writer = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || writer_loop(service, shared, write_rx))
    };

    let (conn_tx, conn_rx) = mpsc::channel::<Conn>();
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let mut worker_handles = Vec::new();
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        let conn_rx = Arc::clone(&conn_rx);
        let write_tx = write_tx.clone();
        worker_handles.push(thread::spawn(move || worker_loop(shared, conn_rx, write_tx)));
    }

    let tcp_accept = tcp_listener.map(|l| {
        let shared = Arc::clone(&shared);
        let conn_tx = conn_tx.clone();
        thread::spawn(move || accept_loop(l, ConnKind::Jsonl, conn_tx, shared))
    });

    accept_loop(listener, ConnKind::Http, conn_tx, Arc::clone(&shared));
    if let Some(handle) = tcp_accept {
        let _ = handle.join();
    }
    // All senders are gone: workers drain the queue and exit.
    for handle in worker_handles {
        let _ = handle.join();
    }
    drop(write_tx);
    let _ = writer.join();

    let final_view = shared.snapshot.read().expect("snapshot lock").clone();
    writeln!(
        out,
        "serve: shut down at version {} with {} vms (state {})",
        final_view.version(),
        final_view.vm_count(),
        final_view.state_hash()
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
    shared: Arc<Shared>,
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

/// The single mutating thread: owns the live [`Service`], applies
/// mutations and commits in arrival order, republishes the snapshot.
fn writer_loop(mut service: Service, shared: Arc<Shared>, rx: mpsc::Receiver<WriteMsg>) {
    for msg in rx {
        match msg {
            WriteMsg::Apply { request, reply } => {
                let response = service.execute(&request);
                *shared.snapshot.write().expect("snapshot lock") =
                    Arc::new(service.engine.fork());
                if service.shutdown {
                    shared.shut_down();
                }
                let _ = reply.send(response);
            }
            WriteMsg::Register { token, txn, reply } => {
                service.pending.register(token, txn);
                let _ = reply.send(());
            }
        }
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    conn_rx: Arc<Mutex<mpsc::Receiver<Conn>>>,
    write_tx: mpsc::Sender<WriteMsg>,
) {
    loop {
        let conn = {
            let guard = conn_rx.lock().expect("connection queue lock");
            guard.recv()
        };
        let Ok(conn) = conn else { break };
        match conn.kind {
            ConnKind::Http => handle_http(&shared, &write_tx, conn.stream),
            ConnKind::Jsonl => handle_jsonl(&shared, &write_tx, conn.stream),
        }
    }
}

/// One HTTP exchange: route, answer, close.
fn handle_http(shared: &Shared, write_tx: &mpsc::Sender<WriteMsg>, mut stream: TcpStream) {
    if http::arm_timeout(&stream, shared.read_timeout).is_err() {
        return;
    }
    let request = match http::read_request(&mut stream, shared.max_body) {
        Ok(request) => request,
        Err(e) => {
            record_protocol_error(shared, &e);
            let response = ApiResponse::from_error(&e, None);
            let _ = http::write_response(
                &mut stream,
                response.http_status(),
                "application/json",
                &response.to_json_line(),
            );
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = http::write_response(&mut stream, 200, "text/plain", "ok\n");
        }
        ("GET", "/metrics") => {
            let page = shared.metrics.lock().expect("metrics lock").to_prometheus(SERVE_HELP);
            let _ = http::write_response(&mut stream, 200, "text/plain; version=0.0.4", &page);
        }
        ("GET", "/v1/state") => {
            let started = Instant::now();
            let snapshot = shared.snapshot.read().expect("snapshot lock").clone();
            let response = service::state_response(&snapshot, None);
            observe(shared, "state", &response, started.elapsed());
            let _ = http::write_response(
                &mut stream,
                response.http_status(),
                "application/json",
                &response.to_json_line(),
            );
        }
        ("POST", "/v1/request") => {
            let body = String::from_utf8_lossy(&request.body).into_owned();
            let response = answer_line(shared, write_tx, &body);
            let _ = http::write_response(
                &mut stream,
                response.http_status(),
                "application/json",
                &response.to_json_line(),
            );
        }
        (_, "/healthz" | "/metrics" | "/v1/state" | "/v1/request") => {
            let err = ProtocolError::MethodNotAllowed(format!(
                "method `{}` not allowed on `{}`",
                request.method, request.path
            ));
            record_protocol_error(shared, &err);
            let response = ApiResponse::from_error(&err, None);
            let _ = http::write_response(
                &mut stream,
                response.http_status(),
                "application/json",
                &response.to_json_line(),
            );
        }
        (_, path) => {
            let err = ProtocolError::NotFound(format!("no route `{path}`"));
            record_protocol_error(shared, &err);
            let response = ApiResponse::from_error(&err, None);
            let _ = http::write_response(
                &mut stream,
                response.http_status(),
                "application/json",
                &response.to_json_line(),
            );
        }
    }
}

/// The JSONL-over-TCP fast path: a persistent connection, one request
/// envelope per line, one response envelope per line, same codec and
/// same dispatch as HTTP.
fn handle_jsonl(shared: &Shared, write_tx: &mpsc::Sender<WriteMsg>, stream: TcpStream) {
    if http::arm_timeout(&stream, shared.read_timeout).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_jsonl_line(&mut reader, shared.max_body) {
            Ok(None) => break,
            Ok(Some(line)) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                let response = answer_line(shared, write_tx, line);
                let closing = matches!(response, ApiResponse::Shutdown(_));
                if write_line(&mut writer, &response).is_err() {
                    break;
                }
                if closing {
                    break;
                }
            }
            Err(e) => {
                record_protocol_error(shared, &e);
                let _ = write_line(&mut writer, &ApiResponse::from_error(&e, None));
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

/// Read one `\n`-terminated line with a byte cap; `Ok(None)` on clean
/// EOF before any byte.
fn read_jsonl_line(
    reader: &mut impl BufRead,
    cap: usize,
) -> Result<Option<String>, ProtocolError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = reader.read(&mut byte).map_err(http::io_to_protocol)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(ProtocolError::Malformed(
                "connection closed mid-line".into(),
            ));
        }
        if byte[0] == b'\n' {
            break;
        }
        buf.push(byte[0]);
        if buf.len() > cap {
            return Err(ProtocolError::TooLarge {
                limit: cap,
                got: buf.len(),
            });
        }
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| ProtocolError::Malformed("request line is not UTF-8".into()))
}

/// Parse one envelope line, dispatch it, and record metrics.
fn answer_line(shared: &Shared, write_tx: &mpsc::Sender<WriteMsg>, line: &str) -> ApiResponse {
    let started = Instant::now();
    let (op, response) = match ApiRequest::parse_line(line, shared.strict) {
        Ok(request) => {
            let op = request.op();
            (op, dispatch(shared, write_tx, request))
        }
        Err(e) => ("invalid", ApiResponse::from_error(&e, None)),
    };
    observe(shared, op, &response, started.elapsed());
    response
}

/// Route one parsed request: dry-runs plan on the snapshot and register
/// with the writer; mutations and commits go *through* the writer;
/// state and shutdown answer from the snapshot.
fn dispatch(shared: &Shared, write_tx: &mpsc::Sender<WriteMsg>, request: ApiRequest) -> ApiResponse {
    if service::is_dry_run(&request) {
        let snapshot = shared.snapshot.read().expect("snapshot lock").clone();
        let (response, registration) = service::plan_dry_run(&snapshot, &request);
        if let Some((token, txn)) = registration {
            let (ack_tx, ack_rx) = mpsc::sync_channel(1);
            if write_tx
                .send(WriteMsg::Register {
                    token,
                    txn,
                    reply: ack_tx,
                })
                .is_ok()
            {
                // The plan must be registered before the client can
                // commit it; wait for the writer's ack.
                let _ = ack_rx.recv();
            }
        }
        return response;
    }
    if request.is_mutation() {
        let id = request.client_id().map(str::to_string);
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        if write_tx
            .send(WriteMsg::Apply {
                request,
                reply: reply_tx,
            })
            .is_err()
        {
            return ApiResponse::from_error(
                &ProtocolError::Internal("writer thread is gone".into()),
                id,
            );
        }
        return reply_rx.recv().unwrap_or_else(|_| {
            ApiResponse::from_error(
                &ProtocolError::Internal("writer thread dropped the request".into()),
                id,
            )
        });
    }
    match request {
        ApiRequest::State(r) => {
            let snapshot = shared.snapshot.read().expect("snapshot lock").clone();
            service::state_response(&snapshot, r.id.clone())
        }
        ApiRequest::Shutdown(r) => {
            shared.shut_down();
            ApiResponse::Shutdown(ShutdownResponse::new().with_id(r.id.clone()))
        }
        other => ApiResponse::from_error(
            &ProtocolError::Internal(format!("unroutable op `{}`", other.op())),
            None,
        ),
    }
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

/// Record a protocol failure that never reached dispatch (bad head,
/// oversized body, slow-loris timeout).
fn record_protocol_error(shared: &Shared, err: &ProtocolError) {
    let mut metrics = shared.metrics.lock().expect("metrics lock");
    metrics.counter_with("serve_errors_total", "code", err.code(), 1);
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
    }
}
