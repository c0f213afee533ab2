//! The `serve-*` workloads: a real `sapsim serve` child on loopback, a
//! preload, then a closed loop of two client connections — W, the only
//! writer, and R, which only plans. One round is one fresh server.

use crate::catalog::Workload;
use crate::harness::{child_command, InputRng, Options, Outcome};
use crate::mix::{self, RequestMix};
use crate::procfs;
use crate::stats;
use crate::trace::Tracer;
use sapsim_api::{
    ApiRequest, ApiResponse, CommitRequest, EvacuateRequest, PlaceRequest, PlaceResponse,
    ResizeRequest, MAX_BATCH,
};
use sapsim_cli::serve::service::{engine_config, Service};
use sapsim_core::{PlacementGranularity, SimConfig};
use sapsim_scheduler::PolicyKind;
use sapsim_workload::WorkloadClass;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Stdio};
use std::sync::{mpsc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// VMs the preload asks for before anything is timed, in the proportions
/// of the paper's population, so that requests meet an estate about a third
/// full rather than an empty one.
const PRELOAD_VMS: u64 = 16_000;
/// Requests each connection sends in one round. A fixed count, not a
/// fixed time, so that a round does the same work — and ends in the same
/// state, at the same memory — however fast the server is.
const ROUND_REQUESTS: usize = 200;
const QUICK_ROUND_REQUESTS: usize = 100;
/// An untraced run takes rounds until it has measured for the seconds it
/// was given, has pooled enough latencies for p99 to have ten samples
/// beyond it, and has set up often enough for a median of `setup_s`.
const MIN_ROUNDS: u32 = 3;
const MIN_POOLED: usize = 1_000;
/// No round starts later than this into a run: the driver gives a run 180 s,
/// and a server that has become that slow is reported, not waited for.
const LAST_ROUND_START: Duration = Duration::from_secs(120);
/// How long any single answer may take, and how long the server child may
/// take to say its estate is ready, before the round counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
const BOOT_TIMEOUT: Duration = Duration::from_secs(30);

/// Entry point of the re-executed child: `child-serve SCALE SEED` becomes
/// `sapsim serve` on two ephemeral loopback ports, defaults otherwise.
pub fn child_main(args: &[String]) -> i32 {
    let (Some(scale), Some(seed)) = (args.first(), args.get(1)) else {
        eprintln!("child-serve: bad arguments {args:?}");
        return 2;
    };
    let argv = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--tcp",
        "127.0.0.1:0",
        "--scale",
        scale,
        "--seed",
        seed,
    ];
    sapsim_cli::run(&argv.map(String::from))
}

/// The configuration `sapsim serve --scale S --seed N` boots its engine
/// from, defaults otherwise.
pub fn engine_cfg(opts: &Options) -> SimConfig {
    engine_config(
        opts.scale(),
        opts.seed,
        PolicyKind::PaperDefault,
        PlacementGranularity::BuildingBlock,
        4.0,
    )
    .expect("the serve defaults are a valid config")
}

/// The same engine the server child boots, in this process: the source of
/// zone and node names, and the oracle the served session is replayed on.
pub fn local_service(opts: &Options) -> Service {
    Service::new(engine_cfg(opts)).expect("the estate boots")
}

/// What the request scripts are drawn from: the estate's zone and node
/// names, and the paper's flavor mix over its zones.
pub struct Estate {
    azs: Vec<String>,
    nodes: Vec<String>,
    mix: RequestMix,
}

impl Estate {
    pub fn of(service: &Service) -> Estate {
        let topology = service.engine.topology();
        Estate {
            azs: topology.azs().iter().map(|az| az.name.clone()).collect(),
            nodes: topology.nodes().iter().map(|n| n.name.clone()).collect(),
            mix: RequestMix::new(topology),
        }
    }

    /// One placement request of the mix, and its shape if it may later be
    /// resized.
    pub fn draw_place(&self, rng: &mut InputRng) -> (PlaceRequest, Option<Shape>) {
        let (flavor, zone) = self.mix.draw(rng);
        (
            mix::place_request(flavor, &self.azs[zone]),
            Shape::of(flavor),
        )
    }
}

/// vCPUs and memory of a general-purpose VM. Only those are ever resized,
/// and a resize doubles both: `WorkloadGenerator::draw_resize`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    vcpus: u32,
    memory_mib: u64,
}

impl Shape {
    fn of(flavor: &sapsim_workload::Flavor) -> Option<Shape> {
        (flavor.class == WorkloadClass::GeneralPurpose).then_some(Shape {
            vcpus: flavor.resources.cpu_cores,
            memory_mib: flavor.resources.memory_mib,
        })
    }

    /// vCPUs and memory after a resize.
    pub fn doubled(self) -> (u32, u64) {
        (self.vcpus * 2, self.memory_mib * 2)
    }
}

/// The VMs a placement response says now exist.
pub fn placed_vms(response: &ApiResponse) -> &[sapsim_api::Placement] {
    match response {
        ApiResponse::Place(live) if !live.dry_run => &live.placed,
        ApiResponse::Commit(commit) => placed_vms(&commit.applied),
        _ => &[],
    }
}

struct Server {
    child: Child,
    /// Reads the child's stdout to its end, so the pipe never fills.
    stdout: Option<JoinHandle<()>>,
    pid: String,
    http: String,
    tcp: String,
    boot_s: f64,
}

impl Server {
    fn start(opts: &Options) -> Result<Server, String> {
        let started = Instant::now();
        let mut child = child_command("child-serve")
            .args([opts.scale().to_string(), opts.seed.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the server child: {e}"))?;
        let pipe = child.stdout.take().expect("stdout is piped");
        let (lines, printed) = mpsc::channel();
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                // Nobody listens once the server is up.
                let _ = lines.send(line);
            }
        });
        // From here on, dropping the server stops the child and the thread.
        let mut server = Server {
            pid: child.id().to_string(),
            child,
            stdout: Some(stdout),
            http: String::new(),
            tcp: String::new(),
            boot_s: 0.0,
        };
        let next_line = || {
            let left = BOOT_TIMEOUT.saturating_sub(started.elapsed());
            printed.recv_timeout(left).unwrap_or_default()
        };
        let ready = next_line();
        server.boot_s = started.elapsed().as_secs_f64();
        // "serve: http on ADDR, jsonl-tcp on ADDR (N workers)"
        let listening = next_line();
        let mut addrs = listening
            .split([' ', ','])
            .filter(|word| word.starts_with("127.0.0.1:"))
            .map(str::to_string);
        match (ready.contains("estate ready"), addrs.next(), addrs.next()) {
            (true, Some(http), Some(tcp)) => {
                (server.http, server.tcp) = (http, tcp);
                Ok(server)
            }
            _ => Err(format!(
                "server child did not come up within {BOOT_TIMEOUT:?}: `{ready}` / `{listening}`"
            )),
        }
    }
}

/// The protocol's `shutdown` reports a serde-serialized state hash, which
/// the offline build cannot compute, so the child is killed — on every
/// path out of a round, and waited for.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(stdout) = self.stdout.take() {
            let _ = stdout.join();
        }
    }
}

/// A loopback connection on which no single read or write may take longer
/// than [`IO_TIMEOUT`]: a wedged server fails the round and does not hang
/// the benchmark.
fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let addr: SocketAddr = addr
        .parse()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

/// One HTTP exchange on a connection of its own; returns status and body.
fn http_exchange(addr: &str, request: &[u8]) -> std::io::Result<(u16, String)> {
    let mut stream = connect(addr)?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    Ok((status, body.trim_end().to_string()))
}

fn post_bytes(addr: &str, line: &str) -> Vec<u8> {
    format!(
        "POST /v1/request HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{line}",
        line.len()
    )
    .into_bytes()
}

fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    http_exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

/// How a client reaches the server.
enum Transport {
    /// One persistent JSONL connection, one `write` per request.
    Jsonl {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
    /// A new `POST /v1/request` connection per request.
    Http { addr: String },
}

impl Transport {
    fn open(workload: Workload, server: &Server) -> std::io::Result<Transport> {
        if workload == Workload::ServeHttp {
            return Ok(Transport::Http {
                addr: server.http.clone(),
            });
        }
        let writer = connect(&server.tcp)?;
        Ok(Transport::Jsonl {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Send one request line and wait for the whole response line.
    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        match self {
            Transport::Jsonl { reader, writer } => {
                writer.write_all(format!("{line}\n").as_bytes())?;
                let mut response = String::new();
                if reader.read_line(&mut response)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                Ok(response.trim_end().to_string())
            }
            Transport::Http { addr } => {
                http_exchange(addr, &post_bytes(addr, line)).map(|(_, body)| body)
            }
        }
    }
}

/// The batched placements that fill the estate before the timed loop: the
/// paper's population scaled down to [`PRELOAD_VMS`], flavor by flavor,
/// each batch in a zone of its own drawing. With each line, the shape of
/// its VMs if they may be resized.
pub fn preload(opts: &Options, estate: &Estate) -> Vec<(String, Option<Shape>)> {
    let mut rng = InputRng::new(opts.seed ^ 0x0070_7265_6c6f_6164);
    let vms = if opts.quick {
        PRELOAD_VMS / 10
    } else {
        PRELOAD_VMS
    };
    let mut lines = Vec::new();
    for (flavor, mut left) in estate.mix.population(vms) {
        while left > 0 {
            let count = left.min(MAX_BATCH);
            left -= count;
            let zone = estate.mix.draw_zone(flavor.class, &mut rng);
            let request = mix::place_request(flavor, &estate.azs[zone]).with_count(count);
            lines.push((ApiRequest::Place(request).to_json_line(), Shape::of(flavor)));
        }
    }
    lines
}

/// What a connection sends next. W walks a fixed cycle of ten requests —
/// four dry-run/commit pairs, one direct batch of four, one resize — and
/// every tenth cycle drains a node instead of resizing, so every hundredth
/// request is an evacuation. R only ever plans.
struct Script<'a> {
    rng: InputRng,
    estate: &'a Estate,
    writer: bool,
    sent: u64,
    /// Token of the plan W made last and has not committed yet.
    planned: Option<String>,
    /// Shape of the placement W sent or planned last.
    shape: Option<Shape>,
    /// General-purpose VMs known to exist and not resized yet — the
    /// preload's and W's own: the candidates for a resize.
    resizable: Vec<(u64, Shape)>,
}

impl<'a> Script<'a> {
    fn new(seed: u64, writer: bool, estate: &'a Estate, resizable: &[(u64, Shape)]) -> Script<'a> {
        Script {
            rng: InputRng::new(seed ^ if writer { 0x57 } else { 0x52 }),
            estate,
            writer,
            sent: 0,
            planned: None,
            shape: None,
            resizable: resizable.to_vec(),
        }
    }

    fn next(&mut self) -> (&'static str, ApiRequest) {
        let n = self.sent;
        self.sent += 1;
        if !self.writer {
            let (request, _) = self.estate.draw_place(&mut self.rng);
            let request = request.with_id(format!("r{n}")).dry_run();
            return ("dry_run", ApiRequest::Place(request));
        }
        if let Some(txn) = self.planned.take() {
            return ("commit", ApiRequest::Commit(CommitRequest::new(txn)));
        }
        match n % 10 {
            0..=7 => {
                let (request, shape) = self.estate.draw_place(&mut self.rng);
                self.shape = shape;
                ("dry_run", ApiRequest::Place(request.dry_run()))
            }
            8 => {
                let (request, shape) = self.estate.draw_place(&mut self.rng);
                self.shape = shape;
                ("place", ApiRequest::Place(request.with_count(4)))
            }
            _ if n % 100 == 99 => {
                let node = self.rng.pick(&self.estate.nodes).clone();
                ("evacuate", ApiRequest::Evacuate(EvacuateRequest::new(node)))
            }
            _ => {
                let at = self.rng.below(self.resizable.len() as u64) as usize;
                let (vm, shape) = self.resizable.swap_remove(at);
                let (vcpus, memory_mib) = shape.doubled();
                let request = ResizeRequest::new(vm, vcpus, memory_mib);
                ("resize", ApiRequest::Resize(request))
            }
        }
    }

    fn observe(&mut self, response: &ApiResponse) {
        if let ApiResponse::Place(PlaceResponse {
            dry_run: true, txn, ..
        }) = response
        {
            if self.writer {
                self.planned = txn.clone();
            }
            return;
        }
        if let Some(shape) = self.shape {
            self.resizable
                .extend(placed_vms(response).iter().map(|p| (p.vm, shape)));
        }
    }
}

/// The engine version a mutation's response reports.
fn mutation_version(response: &ApiResponse) -> Option<u64> {
    match response {
        ApiResponse::Place(r) if !r.dry_run => Some(r.version),
        ApiResponse::Resize(r) if !r.dry_run => Some(r.version),
        ApiResponse::Evacuate(r) if !r.dry_run => Some(r.version),
        ApiResponse::Commit(r) => mutation_version(&r.applied),
        _ => None,
    }
}

/// What one connection did in one round.
struct ClientLog {
    /// Requests sent, answered or not.
    attempted: u64,
    latencies_us: Vec<f64>,
    /// Request and response lines in order, for the replay.
    exchanges: Vec<(String, String)>,
    failed: u64,
    findings: Vec<String>,
    /// VMs the placements and plans asked for, and how many found a node.
    vms_asked: u64,
    vms_placed: u64,
    tracer: Tracer,
}

fn client_loop(
    mut transport: Transport,
    mut script: Script,
    requests: usize,
    tracer: Tracer,
    start: &Barrier,
) -> ClientLog {
    let mut log = ClientLog {
        attempted: 0,
        latencies_us: Vec::new(),
        exchanges: Vec::new(),
        failed: 0,
        findings: Vec::new(),
        vms_asked: 0,
        vms_placed: 0,
        tracer,
    };
    let mut last_version = 0u64;
    start.wait();
    while log.exchanges.len() < requests {
        let (op, request) = script.next();
        log.attempted += 1;
        let (line, answer) = log.tracer.span_op("request", op, |t| {
            let line = t.span_op("client.encode", op, |_| request.to_json_line());
            let sent = Instant::now();
            let raw = t.span_op("socket.roundtrip", op, |_| transport.roundtrip(&line));
            let latency_us = sent.elapsed().as_nanos() as f64 / 1e3;
            let answer = raw.map(|raw| {
                let parsed = t.span_op("client.decode", op, |_| ApiResponse::parse_line(&raw));
                (raw, parsed, latency_us)
            });
            (line, answer)
        });
        let (raw, parsed, latency_us) = match answer {
            Ok(answer) => answer,
            Err(e) => {
                log.failed += 1;
                log.findings.push(format!(
                    "{op} request {}: connection failed: {e}",
                    log.exchanges.len()
                ));
                break;
            }
        };
        log.latencies_us.push(latency_us);
        match &parsed {
            Ok(ApiResponse::Error(e)) => {
                log.failed += 1;
                log.findings
                    .push(format!("{op} request was refused: {} {}", e.code, e.error));
            }
            Ok(response) => {
                if let Some(version) = mutation_version(response) {
                    if version <= last_version {
                        log.failed += 1;
                        log.findings
                            .push(format!("version went from {last_version} to {version}"));
                    }
                    last_version = version;
                }
                if let ApiResponse::Place(answer) = response {
                    log.vms_asked += (answer.placed.len() + answer.failed.len()) as u64;
                    log.vms_placed += answer.placed.len() as u64;
                }
                script.observe(response);
            }
            Err(e) => {
                log.failed += 1;
                log.findings
                    .push(format!("{op} response does not parse: {e}"));
            }
        }
        log.exchanges.push((line, raw));
    }
    log
}

/// Everything one round measured.
struct Round {
    setup_s: f64,
    boot_s: f64,
    preload_s: f64,
    wall_s: f64,
    server_cpu_s: f64,
    peak_rss_mib: f64,
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    findings: Vec<String>,
    /// Share of the VMs asked for, preload included, that found a node.
    placed_ratio: f64,
    /// FNV-1a over W's response lines: what a fixed seed must reproduce.
    fingerprint: u64,
    /// Server-side and connection-level numbers, gathered when tracing.
    extras: BTreeMap<&'static str, f64>,
}

/// Replay the preload and W's session on an in-process service: every
/// response the server sent must come out again byte for byte.
fn replay(oracle: &mut Service, exchanges: &[(String, String)]) -> Result<(), String> {
    for (i, (request, served)) in exchanges.iter().enumerate() {
        let parsed = ApiRequest::parse_line(request, false)
            .map_err(|e| format!("request {i} does not parse: {e}"))?;
        let replayed = oracle.execute(&parsed).to_json_line();
        if &replayed != served {
            return Err(format!(
                "response {i} differs from the in-process replay:\n  served   {served}\n  replayed {replayed}"
            ));
        }
    }
    Ok(())
}

fn run_round(opts: &Options, run: u32, tracer: &mut Tracer) -> Result<Round, String> {
    let mut oracle = local_service(opts);
    let estate = Estate::of(&oracle);
    let preload = preload(opts, &estate);
    tracer.set_run(run);

    let started = Instant::now();
    let server = Server::start(opts)?;
    let mut session: Vec<(String, String)> = Vec::new();
    let mut resizable: Vec<(u64, Shape)> = Vec::new();
    let (mut vms_asked, mut vms_placed) = (0u64, 0u64);
    for (line, shape) in preload {
        let body = match http_exchange(&server.http, &post_bytes(&server.http, &line)) {
            Ok((200, body)) => body,
            Ok((status, body)) => return Err(format!("preload was refused with {status}: {body}")),
            Err(e) => return Err(format!("preload connection failed: {e}")),
        };
        let Ok(ApiResponse::Place(answer)) = ApiResponse::parse_line(&body) else {
            return Err(format!("preload was answered with {body}"));
        };
        vms_asked += (answer.placed.len() + answer.failed.len()) as u64;
        vms_placed += answer.placed.len() as u64;
        if let Some(shape) = shape {
            resizable.extend(answer.placed.iter().map(|p| (p.vm, shape)));
        }
        session.push((line, body));
    }
    let setup_s = started.elapsed().as_secs_f64();
    let mut extras = BTreeMap::new();
    let metrics_before = if tracer.enabled() {
        Some(
            http_get(&server.http, "/metrics")
                .map_err(|e| format!("cannot read the server's /metrics: {e}"))?
                .1,
        )
    } else {
        None
    };

    let open = |writer: bool| -> Result<(Transport, Script), String> {
        let transport =
            Transport::open(opts.workload, &server).map_err(|e| format!("cannot connect: {e}"))?;
        Ok((
            transport,
            Script::new(opts.seed, writer, &estate, &resizable),
        ))
    };
    let (w, r) = (open(true)?, open(false)?);
    let requests = if opts.quick {
        QUICK_ROUND_REQUESTS
    } else {
        ROUND_REQUESTS
    };
    let barrier = Barrier::new(3);
    let id_base = u64::from(run + 1) << 32;
    let tracers = [id_base, id_base + (1 << 31)].map(|base| {
        let mut t = Tracer::new(tracer.enabled(), base, Some(tracer.origin()));
        t.set_run(run);
        t
    });
    let [tw, tr] = tracers;
    let cpu_s = || procfs::cpu_seconds(&server.pid).ok_or("cannot read the server's CPU time");
    let cpu_before = cpu_s()?;
    let (wall_s, w_log, r_log) = std::thread::scope(|scope| {
        let w_thread = scope.spawn(|| client_loop(w.0, w.1, requests, tw, &barrier));
        let r_thread = scope.spawn(|| client_loop(r.0, r.1, requests, tr, &barrier));
        barrier.wait();
        let started = Instant::now();
        let w_log = w_thread.join().expect("the writer client does not panic");
        let r_log = r_thread.join().expect("the reader client does not panic");
        (started.elapsed().as_secs_f64(), w_log, r_log)
    });
    let server_cpu_s = cpu_s()? - cpu_before;

    if let Some(before) = metrics_before {
        connection_probes(&server, &before, &mut extras);
    }
    let peak_rss_mib =
        procfs::peak_rss_mib(&server.pid).ok_or("cannot read the server's peak memory")?;
    let boot_s = server.boot_s;
    drop(server);

    for log in [&w_log, &r_log] {
        vms_asked += log.vms_asked;
        vms_placed += log.vms_placed;
    }
    let mut round = Round {
        setup_s,
        boot_s,
        preload_s: setup_s - boot_s,
        wall_s,
        server_cpu_s,
        peak_rss_mib,
        latencies_us: Vec::new(),
        attempted: w_log.attempted + r_log.attempted,
        failed: w_log.failed + r_log.failed,
        findings: Vec::new(),
        placed_ratio: vms_placed as f64 / vms_asked as f64,
        fingerprint: 0,
        extras,
    };
    for log in [&w_log, &r_log] {
        round.latencies_us.extend_from_slice(&log.latencies_us);
        round.findings.extend(log.findings.iter().cloned());
    }
    let w_lines: Vec<u8> = w_log
        .exchanges
        .iter()
        .flat_map(|(_, served)| served.bytes().chain([b'\n']))
        .collect();
    round.fingerprint = sapsim_core::fnv1a_64(&w_lines);
    session.extend(w_log.exchanges);
    if let Err(e) = replay(&mut oracle, &session) {
        round.failed += 1;
        round.findings.push(e);
    }
    // Plans must come back marked as plans, with a token to commit.
    for (_, served) in &r_log.exchanges {
        if matches!(ApiResponse::parse_line(served), Ok(ApiResponse::Place(p)) if !p.dry_run || p.txn.is_none())
        {
            round.failed += 1;
            round.findings.push(format!(
                "R asked for a plan and got a live placement: {served}"
            ));
        }
    }
    tracer.absorb(w_log.tracer.spans, Vec::new());
    tracer.absorb(r_log.tracer.spans, Vec::new());
    Ok(round)
}

/// Per-(operation, bucket) request counts of the server's own latency
/// histogram, read off its Prometheus page.
fn server_histogram(page: &str) -> BTreeMap<(String, u64), f64> {
    let mut cumulative: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
    for line in page.lines() {
        let Some(rest) = line.strip_prefix("sapsim_serve_request_us_bucket{") else {
            continue;
        };
        let Some((labels, count)) = rest.split_once("} ") else {
            continue;
        };
        let label = |key: &str| {
            labels
                .split(',')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix("=\"")?.strip_suffix('"'))
        };
        let (Some(op), Some(le), Ok(count)) =
            (label("op"), label("le"), count.trim().parse::<f64>())
        else {
            continue;
        };
        let le = if le == "+Inf" {
            u64::MAX
        } else {
            le.parse::<f64>().map_or(u64::MAX, |v| v as u64)
        };
        cumulative
            .entry(op.to_string())
            .or_default()
            .push((le, count));
    }
    let mut counts = BTreeMap::new();
    for (op, mut series) in cumulative {
        series.sort_by_key(|&(le, _)| le);
        let mut previous = 0.0;
        for (le, cum) in series {
            counts.insert((op.clone(), le), cum - previous);
            previous = cum;
        }
    }
    counts
}

/// Median of the server-side request time over the timed loop: the
/// histogram after it minus the histogram before it, pooled over
/// operations, read at the upper bound of the bucket holding the median.
fn server_side_p50_us(before: &str, after: &str) -> Option<f64> {
    let baseline = server_histogram(before);
    let mut by_bucket: BTreeMap<u64, f64> = BTreeMap::new();
    for ((op, le), count) in server_histogram(after) {
        let delta = count - baseline.get(&(op, le)).copied().unwrap_or(0.0);
        *by_bucket.entry(le).or_default() += delta;
    }
    let total: f64 = by_bucket.values().sum();
    let mut seen = 0.0;
    by_bucket.into_iter().find_map(|(le, count)| {
        seen += count;
        (total > 0.0 && seen >= total / 2.0).then_some(le as f64)
    })
}

/// Numbers only a live server can give: its own view of request time, and
/// what a connection costs before any request is parsed.
fn connection_probes(
    server: &Server,
    metrics_before: &str,
    extras: &mut BTreeMap<&'static str, f64>,
) {
    const SAMPLES: usize = 40;
    let timed = |f: &dyn Fn() -> bool| -> Option<f64> {
        let samples: Vec<f64> = (0..SAMPLES)
            .filter_map(|_| {
                let started = Instant::now();
                f().then(|| started.elapsed().as_nanos() as f64 / 1e3)
            })
            .collect();
        (!samples.is_empty()).then(|| stats::median(&samples))
    };
    if let Ok((200, after)) = http_get(&server.http, "/metrics") {
        if let Some(p50) = server_side_p50_us(metrics_before, &after) {
            extras.insert("cli.serve.server_side_p50_us", p50);
        }
    }
    if let Some(us) = timed(&|| TcpStream::connect(&server.http).is_ok()) {
        extras.insert("cli.serve.connect_us", us);
    }
    if let Some(us) = timed(&|| matches!(http_get(&server.http, "/healthz"), Ok((200, _)))) {
        extras.insert("cli.serve.healthz_us", us);
    }
    if let Some(us) = timed(&|| matches!(http_get(&server.http, "/metrics"), Ok((200, _)))) {
        extras.insert("cli.serve.metrics_render_us", us);
    }
}

pub fn run(opts: &Options, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let run_started = Instant::now();
    let mut done: Vec<Round> = Vec::new();
    let mut silent = Tracer::new(false, 0, None);
    loop {
        let run = done.len() as u32;
        // A traced invocation runs one untraced round as the reference for
        // the tracing overhead, then one traced round.
        let enough = match (opts.traced, opts.quick) {
            (true, _) => run >= 2,
            (false, true) => run >= 1,
            (false, false) => {
                run >= MIN_ROUNDS
                    && done.iter().map(|r| r.wall_s).sum::<f64>() >= opts.seconds
                    && done.iter().map(|r| r.latencies_us.len()).sum::<usize>() >= MIN_POOLED
            }
        };
        if enough {
            break;
        }
        let result = if run_started.elapsed() > LAST_ROUND_START {
            Err(format!(
                "{run} rounds took {:?}: too slow to measure for {} s",
                run_started.elapsed(),
                opts.seconds
            ))
        } else if opts.traced && run == 1 {
            run_round(opts, run, tracer)
        } else {
            run_round(opts, run, &mut silent)
        };
        match result {
            Ok(round) => done.push(round),
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.findings.push(e);
                break;
            }
        }
    }
    for round in &mut done {
        out.attempted += round.attempted;
        out.failed += round.failed;
        out.findings.append(&mut round.findings);
    }
    let Some(first) = done.first() else {
        return out;
    };
    out.fingerprint = format!("{:016x}", first.fingerprint);
    if done.iter().any(|r| r.fingerprint != first.fingerprint) {
        out.failed += 1;
        out.findings
            .push("rounds of one seed got different answers on connection W".into());
    }

    if opts.traced {
        if let [reference, traced] = &done[..] {
            per_layer(&mut out, tracer, traced);
            out.set(
                "bench.trace_overhead_ratio",
                stats::median(&traced.latencies_us) / stats::median(&reference.latencies_us),
            );
        }
    } else {
        let pooled: Vec<f64> = done
            .iter()
            .flat_map(|r| r.latencies_us.iter().copied())
            .collect();
        let column = |f: fn(&Round) -> f64| -> Vec<f64> { done.iter().map(f).collect() };
        let rate = column(|r| r.latencies_us.len() as f64 / r.wall_s);
        let cpu_per_1000 = column(|r| r.server_cpu_s * 1000.0 / r.latencies_us.len() as f64);
        let (tail, p99) = stats::tail_percentile(&pooled, 0.99);
        println!(
            "rounds: req_per_s {rate:?} cpu_s {cpu_per_1000:?} peak_rss_mib {:?}; {} latencies pooled, tail read at p{:.1}; {:.1} % of the VMs asked for were placed",
            column(|r| r.peak_rss_mib),
            pooled.len(),
            tail * 100.0,
            first.placed_ratio * 100.0
        );
        // Every round does identical work, so the fastest one is the cost
        // of that work with the least interference from the host's other
        // tenants; the latencies pool every request of every round.
        out.set("setup_s", stats::median(&column(|r| r.setup_s)));
        out.set("cpu_s", stats::min(&cpu_per_1000));
        out.set("peak_rss_mib", stats::median(&column(|r| r.peak_rss_mib)));
        out.set("req_per_s", stats::max(&rate));
        out.set("latency_p50_us", stats::median(&pooled));
        out.set("latency_p99_us", p99);
    }
    out
}

fn per_layer(out: &mut Outcome, tracer: &Tracer, round: &Round) {
    out.set("cli.serve.boot_ms", round.boot_s * 1e3);
    out.set("cli.serve.preload_s", round.preload_s);
    for (op, p50, p99) in [
        (
            "dry_run",
            "cli.serve.dry_run_p50_us",
            Some("cli.serve.dry_run_p99_us"),
        ),
        (
            "commit",
            "cli.serve.commit_p50_us",
            Some("cli.serve.commit_p99_us"),
        ),
        ("place", "cli.serve.place_p50_us", None),
        ("resize", "cli.serve.resize_p50_us", None),
        ("evacuate", "cli.serve.evacuate_p50_us", None),
    ] {
        let samples = tracer.durations_ns("socket.roundtrip", Some(op));
        if samples.is_empty() {
            continue;
        }
        out.set(p50, stats::median(&samples) / 1e3);
        if let Some(p99) = p99 {
            // One traced round has too few requests of a kind for a p99 with
            // ten samples beyond it; say which percentile the row holds.
            let (tail, value) = stats::tail_percentile(&samples, 0.99);
            println!(
                "{p99}: {} samples, read at p{:.1}",
                samples.len(),
                tail * 100.0
            );
            out.set(p99, value / 1e3);
        }
    }
    out.set(
        "cli.serve.client_encode_ns",
        stats::median(&tracer.durations_ns("client.encode", None)),
    );
    out.set(
        "cli.serve.client_decode_ns",
        stats::median(&tracer.durations_ns("client.decode", None)),
    );
    for (name, value) in &round.extras {
        out.set(name, *value);
    }
    let client_p50 = stats::median(&round.latencies_us);
    if let Some(server_p50) = round.extras.get("cli.serve.server_side_p50_us") {
        out.set("cli.serve.transport_overhead_us", client_p50 - server_p50);
    }
    out.set("scheduler.placed_ratio", round.placed_ratio);
}
