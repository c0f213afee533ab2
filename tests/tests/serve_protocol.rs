//! Integration: the placement service's wire protocol.
//!
//! Three contracts are pinned here, against a *real* server bound to an
//! ephemeral port:
//!
//! 1. **Conformance** — every [`ProtocolError`] variant is reachable
//!    from the outside (malformed bodies, unknown schemas, oversized
//!    requests, slow-loris reads, stale commits, ...) and arrives with
//!    its registered wire code and HTTP status.
//! 2. **Serialized-service invariant** — every write runs under the
//!    server's one `Mutex<Service>`: interleaving a live write between a
//!    dry-run plan and its commit yields `conflict`, never a
//!    silently-corrupted state, and concurrent clients see each write
//!    applied exactly once, at consecutive versions, in an order the
//!    offline applier replays to the same state hash.
//! 3. **Online/offline equivalence** — a scripted place/resize/evacuate
//!    session through the HTTP server is byte-identical to the same
//!    script through the offline applier, ending at the same state
//!    hash. This is the differential oracle CI re-runs from a shell.

use sapsim_api::{
    txn_token, ApiRequest, ApiResponse, CommitRequest, EvacuateRequest, PlaceRequest,
    ProtocolError, ResizeRequest, ShutdownRequest, StateRequest,
};
use sapsim_cli::serve::client;
use sapsim_cli::serve::http::MAX_HEAD_BYTES;
use sapsim_cli::serve::service::{self, Service};
use sapsim_core::PlacementGranularity;
use sapsim_scheduler::PolicyKind;
use sapsim_json::JsonValue;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ------------------------------------------------------------ harness

/// An `io::Write` the server thread and the test can share.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

struct LiveServer {
    http: String,
    tcp: Option<String>,
    handle: std::thread::JoinHandle<Result<(), sapsim_cli::CliError>>,
}

impl LiveServer {
    /// Boot `sapsim serve` on an ephemeral loopback port and wait for
    /// readiness.
    fn boot(extra: &[&str]) -> LiveServer {
        LiveServer::boot_on("127.0.0.1:0", extra)
    }

    /// Boot `sapsim serve --listen LISTEN` and wait for readiness.
    fn boot_on(listen: &str, extra: &[&str]) -> LiveServer {
        let mut argv: Vec<String> = ["serve", "--listen", listen]
            .iter()
            .map(|s| s.to_string())
            .collect();
        argv.extend(extra.iter().map(|s| s.to_string()));
        let out = SharedBuf::default();
        let mut thread_out = out.clone();
        let handle = std::thread::spawn(move || sapsim_cli::run_to(&argv, &mut thread_out));
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = out.text();
            if let Some(line) = text.lines().find(|l| l.contains("serve: http on ")) {
                let after = line.split("http on ").nth(1).expect("boot line has an addr");
                let http = after
                    .split([' ', ','])
                    .next()
                    .expect("addr token")
                    .to_string();
                let tcp = line.split("jsonl-tcp on ").nth(1).map(|rest| {
                    rest.split([' ', ','])
                        .next()
                        .expect("tcp addr token")
                        .to_string()
                });
                return LiveServer { http, tcp, handle };
            }
            assert!(Instant::now() < deadline, "server never booted:\n{text}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Request shutdown and join the server thread.
    fn shutdown(self) {
        let line = ApiRequest::Shutdown(ShutdownRequest::new()).to_json_line();
        let _ = client::post_request(&self.http, &line);
        self.handle
            .join()
            .expect("server thread must not panic")
            .expect("server must exit cleanly");
    }

    /// Join the server thread, failing if `run_to` has not returned
    /// within `limit` (a shutdown that left an accept loop blocked).
    fn join_within(self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while !self.handle.is_finished() {
            assert!(Instant::now() < deadline, "server still running {limit:?} after shutdown");
            std::thread::sleep(Duration::from_millis(10));
        }
        self.handle
            .join()
            .expect("server thread must not panic")
            .expect("server must exit cleanly");
    }
}

/// Send raw bytes, return the full HTTP response (head + body).
fn raw_http(addr: &str, raw: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable status line: {response}"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.trim_end())
        .unwrap_or("")
}

fn error_code(body: &str) -> String {
    let value: JsonValue = sapsim_json::parse(body)
        .unwrap_or_else(|e| panic!("error body must be JSON ({e}): {body}"));
    value["code"]
        .as_str()
        .unwrap_or_else(|| panic!("error body must carry a code: {body}"))
        .to_string()
}

fn write_script(name: &str, lines: &[String]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "sapsim-serve-{}-{name}.jsonl",
        std::process::id()
    ));
    std::fs::write(&path, lines.join("\n") + "\n").expect("write script");
    path
}

fn offline_transcript(script: &Path) -> String {
    let argv: Vec<String> = [
        "serve",
        "--script",
        script.to_str().expect("utf-8 temp path"),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut out = Vec::new();
    sapsim_cli::run_to(&argv, &mut out).expect("offline applier succeeds");
    String::from_utf8(out).expect("transcript is UTF-8")
}

// -------------------------------------------------------- conformance

#[test]
fn every_protocol_error_variant_is_exercised() {
    // One server with tight limits so every failure mode is reachable:
    // strict envelope parsing, 1 KiB bodies, 300 ms read budget.
    let server = LiveServer::boot(&[
        "--strict",
        "--max-body-kib",
        "1",
        "--read-timeout-ms",
        "300",
    ]);
    let addr = server.http.clone();
    let mut seen: BTreeSet<String> = BTreeSet::new();

    let mut expect = |code: &str, status: u16, response: String| {
        assert_eq!(
            status_of(&response),
            status,
            "`{code}` must map to {status}:\n{response}"
        );
        assert_eq!(error_code(body_of(&response)), code, "{response}");
        seen.insert(code.to_string());
    };

    // bad-request: a body that is not JSON.
    let body = "{not json";
    expect(
        "bad-request",
        400,
        raw_http(
            &addr,
            &format!(
                "POST /v1/request HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        ),
    );

    // unknown-schema: valid JSON, wrong envelope.
    let body = r#"{"schema":"sapsim.api/v9","op":"state"}"#;
    expect(
        "unknown-schema",
        400,
        raw_http(
            &addr,
            &format!(
                "POST /v1/request HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        ),
    );

    // unknown-field: tolerated by default, rejected under --strict.
    let body = r#"{"schema":"sapsim.api/v1","op":"state","surprise":1}"#;
    assert!(
        ApiRequest::parse_line(body, false).is_ok(),
        "lenient mode must tolerate unknown fields"
    );
    expect(
        "unknown-field",
        400,
        raw_http(
            &addr,
            &format!(
                "POST /v1/request HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        ),
    );

    // not-found: an unrouted path.
    expect(
        "not-found",
        404,
        raw_http(&addr, "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    );

    // method-not-allowed: a known path, wrong verb.
    expect(
        "method-not-allowed",
        405,
        raw_http(&addr, "DELETE /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    );

    // invalid-request: parses, but violates a protocol bound.
    let line = ApiRequest::Place(PlaceRequest::new(4, 1024).with_count(0)).to_json_line();
    expect(
        "invalid-request",
        422,
        raw_http(
            &addr,
            &format!(
                "POST /v1/request HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{line}",
                line.len()
            ),
        ),
    );

    // conflict: the serialized-service invariant. Plan a dry run, let a
    // live write overtake it, then commit the stale plan.
    let dry = ApiRequest::Place(PlaceRequest::new(2, 4096).dry_run()).to_json_line();
    let plan: JsonValue = sapsim_json::parse(
        &client::post_request(&addr, &dry).expect("dry run answers"),
    )
    .expect("plan is JSON");
    let token = plan["txn"].as_str().expect("plan carries a token").to_string();
    let live = ApiRequest::Place(PlaceRequest::new(1, 2048)).to_json_line();
    client::post_request(&addr, &live).expect("live write lands");
    let commit = ApiRequest::Commit(CommitRequest::new(token)).to_json_line();
    expect(
        "conflict",
        409,
        raw_http(
            &addr,
            &format!(
                "POST /v1/request HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{commit}",
                commit.len()
            ),
        ),
    );

    // too-large: Content-Length beyond --max-body-kib; rejected before
    // the body is read.
    expect(
        "too-large",
        413,
        raw_http(
            &addr,
            "POST /v1/request HTTP/1.1\r\nHost: t\r\nContent-Length: 999999\r\nConnection: close\r\n\r\n",
        ),
    );

    // timeout: a slow-loris client that never finishes its head.
    expect(
        "timeout",
        408,
        raw_http(&addr, "POST /v1/requ"),
    );

    // internal: not reachable from the wire by design (it would be a
    // server bug); pinned at the dispatch layer instead.
    let mut engine = Service::new(
        service::engine_config(
            0.05,
            0,
            PolicyKind::PaperDefault,
            PlacementGranularity::BuildingBlock,
            4.0,
        )
        .expect("valid config"),
    )
    .expect("engine boots")
    .engine;
    let err = service::apply_mutation(&mut engine, &ApiRequest::State(StateRequest::new()))
        .expect_err("state is not a mutation");
    assert_eq!(err.code(), "internal");
    assert_eq!(err.http_status(), 500);
    seen.insert(err.code().to_string());

    server.shutdown();

    let all: BTreeSet<String> = ProtocolError::samples()
        .iter()
        .map(|e| e.code().to_string())
        .collect();
    assert_eq!(seen, all, "every registered wire code must be exercised");
}

/// The head budget and the one-length rule hold at the socket: a head
/// longer than `MAX_HEAD_BYTES` is refused even when its blank line
/// arrives within the last read, and a request stating two different
/// lengths is refused rather than trusting either.
#[test]
fn http_heads_past_the_budget_or_with_conflicting_lengths_are_refused() {
    let server = LiveServer::boot(&[]);
    let state = ApiRequest::State(StateRequest::new()).to_json_line();
    let padded = |head_len: usize| {
        let mut raw = format!(
            "POST /v1/request HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nX-Pad: ",
            state.len()
        );
        let pad = head_len - raw.len() - 4;
        raw.push_str(&"p".repeat(pad));
        raw.push_str("\r\n\r\n");
        raw + &state
    };

    let response = raw_http(&server.http, &padded(MAX_HEAD_BYTES));
    assert_eq!(status_of(&response), 200, "{response}");
    let response = raw_http(&server.http, &padded(8_500));
    assert_eq!(status_of(&response), 413, "{response}");
    assert_eq!(error_code(body_of(&response)), "too-large");

    let conflicting = format!(
        "POST /v1/request HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{state}",
        state.len()
    );
    let response = raw_http(&server.http, &conflicting);
    assert_eq!(status_of(&response), 400, "{response}");
    assert_eq!(error_code(body_of(&response)), "bad-request");
    server.shutdown();
}

#[test]
fn healthz_and_metrics_answer_on_a_live_server() {
    let server = LiveServer::boot(&[]);
    let health = client::get(&server.http, "/healthz").expect("healthz answers");
    assert_eq!(health.trim_end(), "ok");

    // Generate one request so the metrics page has families to render.
    let state = ApiRequest::State(StateRequest::new()).to_json_line();
    client::post_request(&server.http, &state).expect("state answers");

    let metrics = client::get(&server.http, "/metrics").expect("metrics answers");
    assert!(
        metrics.contains("# TYPE sapsim_serve_requests_total counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("sapsim_serve_request_us_bucket"),
        "latency histogram missing:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn jsonl_tcp_fast_path_shares_the_http_codec() {
    let server = LiveServer::boot(&["--tcp", "127.0.0.1:0"]);
    let tcp_addr = server.tcp.clone().expect("tcp listener requested");

    // The same state request must produce byte-identical envelopes on
    // both transports (nothing in the response depends on the carrier).
    let state = ApiRequest::State(StateRequest::new()).to_json_line();
    let via_http = client::post_request(&server.http, &state).expect("http state");

    let mut stream = TcpStream::connect(&tcp_addr).expect("connect tcp");
    stream
        .write_all(format!("{state}\n").as_bytes())
        .expect("send line");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut via_tcp = String::new();
    std::io::BufRead::read_line(&mut reader, &mut via_tcp).expect("read line");
    assert_eq!(via_tcp.trim_end(), via_http);

    // A persistent connection serves many requests.
    stream
        .write_all(format!("{state}\n").as_bytes())
        .expect("second request");
    let mut second = String::new();
    std::io::BufRead::read_line(&mut reader, &mut second).expect("second response");
    assert_eq!(second.trim_end(), via_http);

    server.shutdown();
}

#[test]
fn persistent_jsonl_connection_sends_each_reply_at_once() {
    // A reply written in pieces without TCP_NODELAY waits for the
    // client's delayed ACK (~40 ms on Linux) before its last piece
    // leaves, so 40 round trips would take 1.6 s or more. The client
    // here is a plain socket, Nagle on, one write per request.
    let server = LiveServer::boot(&["--tcp", "127.0.0.1:0"]);
    let tcp_addr = server.tcp.clone().expect("tcp listener requested");
    let dry_run = ApiRequest::Place(PlaceRequest::new(2, 4096).dry_run()).to_json_line() + "\n";
    let mut stream = TcpStream::connect(&tcp_addr).expect("connect tcp");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    let started = Instant::now();
    for i in 0..40 {
        stream.write_all(dry_run.as_bytes()).expect("send request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(reply.contains("\"dry_run\":true"), "request {i}: {reply}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "40 dry-run places on one connection took {elapsed:?}"
    );
    drop((stream, reader));
    server.shutdown();
}

#[test]
fn shutdown_over_the_jsonl_port_stops_both_accept_loops() {
    let server = LiveServer::boot(&["--tcp", "127.0.0.1:0"]);
    let tcp_addr = server.tcp.clone().expect("tcp listener requested");
    let mut stream = TcpStream::connect(&tcp_addr).expect("connect tcp");
    let shutdown = ApiRequest::Shutdown(ShutdownRequest::new()).to_json_line() + "\n";
    stream.write_all(shutdown.as_bytes()).expect("send shutdown");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read shutdown ack");
    assert!(reply.contains("\"op\":\"shutdown\""), "{reply}");
    server.join_within(Duration::from_secs(5));
}

#[test]
fn shutdown_wakes_a_server_bound_to_the_unspecified_address() {
    let server = LiveServer::boot_on("0.0.0.0:0", &[]);
    let port = server.http.rsplit(':').next().expect("addr has a port");
    let line = ApiRequest::Shutdown(ShutdownRequest::new()).to_json_line();
    client::post_request(&format!("127.0.0.1:{port}"), &line).expect("shutdown answers");
    server.join_within(Duration::from_secs(5));
}

// ------------------------------------------------- concurrent clients

/// A persistent JSONL connection to a live server.
struct JsonlClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl JsonlClient {
    fn connect(addr: &str) -> JsonlClient {
        let stream = TcpStream::connect(addr).expect("connect tcp");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        JsonlClient { stream, reader }
    }

    /// Send one request and return its reply, parsed and as received.
    fn ask(&mut self, request: &ApiRequest) -> (ApiResponse, String) {
        let line = request.to_json_line() + "\n";
        self.stream
            .write_all(line.as_bytes())
            .expect("send request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        let reply = reply.trim_end().to_string();
        let response = ApiResponse::parse_line(&reply)
            .unwrap_or_else(|e| panic!("reply is not an envelope ({e}): {reply}"));
        (response, reply)
    }
}

/// A request the server applied, with the version it produced and the
/// reply it sent. A committed plan is kept as its dry-run request.
struct Applied {
    version: u64,
    request: ApiRequest,
    reply: String,
}

#[test]
fn concurrent_clients_apply_each_write_once_in_a_replayable_order() {
    const CLIENTS: u32 = 4;
    const ROUNDS: u32 = 20;
    let server = LiveServer::boot(&["--tcp", "127.0.0.1:0", "--workers", "4", "--scale", "0.05"]);
    let tcp_addr = server.tcp.clone().expect("tcp listener requested");

    // Each client runs dry-run + commit pairs between live places, and
    // checks that it never plans on a snapshot older than a version it
    // has already been told about.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let tcp_addr = tcp_addr.clone();
            std::thread::spawn(move || {
                let mut client = JsonlClient::connect(&tcp_addr);
                let mut applied = Vec::new();
                let mut seen = 0;
                for round in 0..ROUNDS {
                    let vcpus = 1 + (c + round) % 4;
                    // The id keeps plans of different clients apart: the same
                    // request planned at the same version is one token.
                    let plan = ApiRequest::Place(
                        PlaceRequest::new(vcpus, 2048 * u64::from(vcpus))
                            .with_id(format!("c{c}r{round}"))
                            .dry_run(),
                    );
                    let (ApiResponse::Place(planned), _) = client.ask(&plan) else {
                        panic!("client {c}: a dry-run place answers with a plan");
                    };
                    assert!(
                        planned.version >= seen,
                        "client {c} planned on version {} after seeing {seen}",
                        planned.version
                    );
                    let token = planned.txn.expect("a plan carries a token");
                    match client.ask(&ApiRequest::Commit(CommitRequest::new(token))) {
                        (ApiResponse::Commit(commit), reply) => {
                            let ApiResponse::Place(inner) = commit.applied.as_ref() else {
                                panic!("client {c}: a commit wraps the replayed place");
                            };
                            seen = seen.max(inner.version);
                            applied.push(Applied {
                                version: inner.version,
                                request: plan,
                                reply,
                            });
                        }
                        (ApiResponse::Error(e), _) => {
                            assert_eq!(e.code, "conflict", "client {c}: {}", e.error);
                        }
                        (_, reply) => panic!("client {c}: unexpected commit reply {reply}"),
                    }
                    let live = ApiRequest::Place(
                        PlaceRequest::new(vcpus, 4096).with_count(u64::from(1 + round % 2)),
                    );
                    let (ApiResponse::Place(placed), reply) = client.ask(&live) else {
                        panic!("client {c}: a live place answers with its placements");
                    };
                    seen = seen.max(placed.version);
                    applied.push(Applied {
                        version: placed.version,
                        request: live,
                        reply,
                    });
                }
                applied
            })
        })
        .collect();
    let mut applied: Vec<Applied> = clients
        .into_iter()
        .flat_map(|client| client.join().expect("client thread must not panic"))
        .collect();
    applied.sort_by_key(|a| a.version);
    let versions: Vec<u64> = applied.iter().map(|a| a.version).collect();
    let expected: Vec<u64> = (1..=applied.len() as u64).collect();
    assert_eq!(versions, expected, "every write applied once, none lost");

    // Replaying the applied requests in version order offline gives the
    // same replies and the same final state.
    let cfg = service::engine_config(
        0.05,
        0,
        PolicyKind::PaperDefault,
        PlacementGranularity::BuildingBlock,
        4.0,
    )
    .expect("valid config");
    let mut offline = Service::new(cfg).expect("engine boots");
    for a in &applied {
        let mut response = offline.execute(&a.request);
        if let ApiResponse::Place(plan) = &response {
            if let Some(token) = &plan.txn {
                response = offline.execute(&ApiRequest::Commit(CommitRequest::new(token.clone())));
            }
        }
        assert_eq!(response.to_json_line(), a.reply, "version {}", a.version);
    }
    let state = ApiRequest::State(StateRequest::new()).to_json_line();
    let served = client::post_request(&server.http, &state).expect("state answers");
    let replayed = offline.execute(&ApiRequest::State(StateRequest::new()));
    assert_eq!(served, replayed.to_json_line());
    server.shutdown();
}

// -------------------------------------------- online/offline equivalence

#[test]
fn scripted_session_is_byte_identical_online_and_offline() {
    // Probe offline to learn the deterministic vm id and node name the
    // first placement produces (same default config everywhere).
    let place2 = ApiRequest::Place(PlaceRequest::new(4, 16_384).with_count(2)).to_json_line();
    let probe = write_script("probe", std::slice::from_ref(&place2));
    let probe_out = offline_transcript(&probe);
    let placed: JsonValue =
        sapsim_json::parse(probe_out.lines().next().expect("one response")).expect("JSON");
    let vm = placed["placed"][0]["vm"].as_u64().expect("vm id");
    let node = placed["placed"][0]["node"].as_str().expect("node").to_string();

    // The full session: live batch, dry-run plan, commit of that plan
    // (token derived the same way the service derives it), resize,
    // evacuate, state, shutdown.
    let dry_request = ApiRequest::Place(PlaceRequest::new(2, 4096).dry_run());
    let token = txn_token(1, &dry_request);
    let script = write_script(
        "session",
        &[
            place2,
            dry_request.to_json_line(),
            ApiRequest::Commit(CommitRequest::new(token)).to_json_line(),
            ApiRequest::Resize(ResizeRequest::new(vm, 8, 32_768)).to_json_line(),
            ApiRequest::Evacuate(EvacuateRequest::new(node)).to_json_line(),
            ApiRequest::State(StateRequest::new()).to_json_line(),
            ApiRequest::Shutdown(ShutdownRequest::new()).to_json_line(),
        ],
    );

    let offline = offline_transcript(&script);

    let server = LiveServer::boot(&[]);
    let mut online_buf = Vec::new();
    client::run_http(
        &server.http,
        script.to_str().expect("utf-8 temp path"),
        &mut online_buf,
    )
    .expect("scripted client succeeds");
    let online = String::from_utf8(online_buf).expect("UTF-8 transcript");
    // The script ends in `shutdown`, so the server exits on its own.
    server
        .handle
        .join()
        .expect("server thread must not panic")
        .expect("server must exit cleanly");

    assert_eq!(
        online, offline,
        "served transcript must be byte-identical to the offline applier's"
    );

    // Belt and braces: the state responses agree on the final hash.
    let state_line = offline
        .lines()
        .find(|l| l.contains("\"hash\""))
        .expect("state response in transcript");
    let state: JsonValue = sapsim_json::parse(state_line).expect("state is JSON");
    assert_eq!(state["hash"].as_str().expect("hash").len(), 16);
}

// ------------------------------------------------------- docs contract

#[test]
fn versioning_doc_tables_match_the_registered_taxonomy() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../docs/api-versioning.md"
    ))
    .expect("docs/api-versioning.md exists");
    for err in ProtocolError::samples() {
        let row = doc
            .lines()
            .find(|l| l.starts_with(&format!("| `{}`", err.code())))
            .unwrap_or_else(|| panic!("doc table must list `{}`", err.code()));
        assert!(
            row.contains(&err.http_status().to_string()),
            "row for `{}` must cite HTTP {}: {row}",
            err.code(),
            err.http_status()
        );
        assert!(
            row.contains(&err.exit_code().to_string()),
            "row for `{}` must cite exit code {}: {row}",
            err.code(),
            err.exit_code()
        );
    }
}

// ----------------------------------------------- machine-output goldens

#[test]
fn machine_readable_emitters_are_byte_stable_and_versioned() {
    // Two identical runs must print identical bytes, and every machine
    // line must open with its registered envelope.
    let argv: Vec<String> = [
        "simulate", "--json", "--days", "2", "--scale", "0.02", "--seed", "11",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut first = Vec::new();
    sapsim_cli::run_to(&argv, &mut first).expect("simulate --json succeeds");
    let mut second = Vec::new();
    sapsim_cli::run_to(&argv, &mut second).expect("simulate --json succeeds");
    assert_eq!(first, second, "run summary must be byte-stable");
    let line = String::from_utf8(first).expect("UTF-8");
    assert!(
        line.starts_with("{\"schema\":\"sapsim.run-summary/v1\","),
        "{line}"
    );
    let parsed: JsonValue = sapsim_json::parse(line.trim_end()).expect("valid JSON");
    assert_eq!(parsed["schema"].as_str(), Some("sapsim.run-summary/v1"));
}
