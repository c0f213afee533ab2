//! Isolated layer probes: each times one layer's public calls on inputs
//! made from the run's seed — the region's topology, its generated VMs, the
//! cloud a short simulation of them leaves behind, a service preloaded like
//! the serve workloads'. A probe reports the median over its batches.
//!
//! To add one: add its metric to `catalog::PER_LAYER` and `BENCHMARK.json`,
//! then one `self.sample(..)` call in the function of its layer below.

use crate::harness::{InputRng, Options, Outcome};
use crate::mix::RequestMix;
use crate::serve::{self, Estate};
use crate::stats;
use crate::trace::Tracer;
use rand::RngCore as _;
use sapsim_api::{ApiRequest, ApiResponse};
use sapsim_cli::serve::service::{plan_dry_run, Service};
use sapsim_core::{Cloud, PlaceSpec, PlacementEngine, SimConfig, SimDriver, SimDuration};
use sapsim_obs::{Histogram, MetricsRecorder, MetricsRegistry, ObsEvent, Recorder, SpanKind};
use sapsim_scheduler::{
    CandidateIndex, HostLoad, PlacementPolicy, PlacementRequest, PolicyKind, RankOptions, Ranking,
    Rebalancer, VmLoad,
};
use sapsim_sim::{EventQueue, QueueBackend, SimRng, SimTime};
use sapsim_telemetry::{EntityRef, MetricId, TsdbStore};
use sapsim_topology::{paper_estate_custom, NodeId, NodeState, Resources, TopologyBuilder};
use sapsim_workload::{
    paper_flavor_catalog, GeneratorConfig, LifetimeModel, UsageState, VmId, VmSpec, WorkloadClass,
    WorkloadGenerator,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn timed(work: impl FnOnce()) -> Duration {
    let started = Instant::now();
    work();
    started.elapsed()
}

struct Probes<'a> {
    tracer: &'a mut Tracer,
    out: &'a mut Outcome,
    /// How long one probe keeps taking batches.
    budget: Duration,
}

impl Probes<'_> {
    /// Run `batch` — which does `ops` operations and returns how long they
    /// took, leaving out any re-arming it does — until the budget is spent,
    /// and report the median time per operation in units of `unit_ns`.
    fn sample(
        &mut self,
        metric: &str,
        unit_ns: f64,
        ops: u64,
        mut batch: impl FnMut() -> Duration,
    ) {
        let budget = self.budget;
        let per_op = self.tracer.span(metric, |_| {
            let started = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < 5 || (started.elapsed() < budget && samples.len() < 10_000) {
                samples.push(batch().as_nanos() as f64 / ops as f64);
            }
            stats::median(&samples)
        });
        self.out.set(metric, per_op / unit_ns);
    }
}

const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;

pub fn run_all(opts: &Options, tracer: &mut Tracer, out: &mut Outcome) {
    let budget = Duration::from_millis(if opts.quick { 20 } else { 150 });
    tracer.span("probes", |tracer| {
        let mut p = Probes {
            tracer,
            out,
            budget,
        };
        let specs = build_probes(&mut p, opts);
        simcore_probes(&mut p);
        workload_probes(&mut p, &specs);
        obs_probes(&mut p);
        let world = p
            .tracer
            .span("probes.inputs.simulate", |_| finished_run(opts));
        telemetry_probes(
            &mut p,
            &world.store,
            world.cloud.topology().nodes().len(),
            world.cloud.topology().bbs().len(),
        );
        scheduler_probes(&mut p, &world);
        let mut world = world;
        cloud_probes(&mut p, &mut world, &specs);
        let (service, resizable) = p
            .tracer
            .span("probes.inputs.preload", |_| preloaded_service(opts));
        api_probes(&mut p, opts, &service);
        engine_probes(&mut p, opts, service, &resizable);
    });
}

/// World construction: what `SimDriver::run` and `sapsim serve` pay before
/// the first event or request. Returns the generated VMs for later probes.
fn build_probes(p: &mut Probes, opts: &Options) -> Vec<VmSpec> {
    let (scale, seed) = (opts.scale(), opts.seed);
    p.sample("topology.build_ms", MS, 1, || {
        timed(|| {
            black_box(paper_estate_custom(scale, seed, &TopologyBuilder::new()));
        })
    });
    let (topo, _) = paper_estate_custom(scale, seed, &TopologyBuilder::new());
    p.out.set("topology.nodes", topo.nodes().len() as f64);

    let generator = WorkloadGenerator::new(
        paper_flavor_catalog(),
        GeneratorConfig {
            scale,
            seed,
            ..GeneratorConfig::default()
        },
    );
    p.sample("workload.generate_ms", MS, 1, || {
        timed(|| {
            black_box(generator.generate());
        })
    });
    let specs = generator.generate();
    p.out.set("workload.vms", specs.len() as f64);

    let cfg = serve::engine_cfg(opts);
    p.sample("core.engine.boot_ms", MS, 1, || {
        timed(|| {
            black_box(PlacementEngine::new(cfg).expect("the serve config is valid"));
        })
    });
    specs
}

fn simcore_probes(p: &mut Probes) {
    const OPS: u64 = 100_000;
    let mut rng = SimRng::seed_from(1);
    p.sample("simcore.rng.next_u64_ns", NS, OPS, || {
        timed(|| {
            let mut acc = 0u64;
            for _ in 0..OPS {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc);
        })
    });
    let root = SimRng::seed_from(2);
    p.sample("simcore.rng.split_index_ns", NS, OPS, || {
        timed(|| {
            for i in 0..OPS {
                black_box(root.split_index(i));
            }
        })
    });

    // The event queue at the depth a full-region run keeps it: one pending
    // departure per live VM, spread over a month.
    const PENDING: u64 = 47_000;
    const BATCH: u64 = 10_000;
    const MONTH_MS: u64 = 30 * 86_400_000;
    let mut times = InputRng::new(3);
    let mut fill = |backend| {
        let mut q: EventQueue<u32> = EventQueue::with_backend(backend);
        for i in 0..PENDING {
            q.push(SimTime::from_millis(times.below(MONTH_MS)), i as u32);
        }
        q
    };
    let mut wheel = fill(QueueBackend::TimingWheel);
    let mut heap = fill(QueueBackend::BinaryHeap);
    let mut handles = Vec::with_capacity(BATCH as usize);
    let mut cancel_samples = Vec::new();
    p.sample("simcore.queue.push_ns", NS, BATCH, || {
        let push = timed(|| {
            for i in 0..BATCH {
                handles.push(wheel.push(SimTime::from_millis(times.below(MONTH_MS)), i as u32));
            }
        });
        // Cancelling what was just pushed keeps the depth where it was.
        let cancel = timed(|| {
            for h in handles.drain(..) {
                black_box(wheel.cancel(h));
            }
        });
        cancel_samples.push(cancel.as_nanos() as f64 / BATCH as f64);
        push
    });
    p.out
        .set("simcore.queue.cancel_ns", stats::median(&cancel_samples));
    let mut popped = Vec::with_capacity(BATCH as usize);
    p.sample("simcore.queue.pop_ns", NS, BATCH, || {
        let pop = timed(|| {
            for _ in 0..BATCH {
                popped.push(wheel.pop().expect("the queue stays populated").time);
            }
        });
        for t in popped.drain(..) {
            wheel.push(t + SimDuration::from_millis(MONTH_MS), 0);
        }
        pop
    });
    p.sample("simcore.queue_heap.push_pop_ns", NS, 2 * BATCH, || {
        timed(|| {
            for _ in 0..BATCH {
                let ev = heap.pop().expect("the queue stays populated");
                heap.push(ev.time + SimDuration::from_millis(MONTH_MS), ev.payload);
            }
        })
    });
}

fn workload_probes(p: &mut Probes, specs: &[VmSpec]) {
    // One scrape over a thousand VMs, the way the driver's sample phase
    // walks them: each VM its own model, noise state and stream.
    let root = SimRng::seed_from(4);
    let mut vms: Vec<(&VmSpec, UsageState, SimRng)> = specs
        .iter()
        .take(1_000)
        .enumerate()
        .map(|(i, s)| (s, UsageState::new(), root.split_index(i as u64)))
        .collect();
    let interval = SimDuration::from_secs(300);
    let mut now = SimTime::ZERO;
    let ops = vms.len() as u64;
    p.sample("workload.usage_sample_ns", NS, ops, || {
        now += interval;
        timed(|| {
            for (spec, state, rng) in &mut vms {
                black_box(
                    spec.usage
                        .sample(state, now, interval, SimDuration::from_days(1), rng),
                );
            }
        })
    });
    let model = LifetimeModel::for_archetype(specs[0].archetype);
    let mut rng = SimRng::seed_from(5);
    p.sample("workload.lifetime_draw_ns", NS, 10_000, || {
        timed(|| {
            for _ in 0..10_000 {
                black_box(model.draw(&mut rng));
            }
        })
    });
}

fn obs_probes(p: &mut Probes) {
    const OPS: u64 = 100_000;
    let mut values = InputRng::new(6);
    let mut histogram = Histogram::new();
    p.sample("obs.histogram_record_ns", NS, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                histogram.record(values.below(1 << 20));
            }
        })
    });
    let mut registry = MetricsRegistry::new();
    p.sample("obs.registry_observe_ns", NS, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                registry.observe_with("serve_request_us", "op", "place", values.below(1 << 20));
            }
        })
    });
    let mut recorder = MetricsRecorder::new();
    p.sample("obs.recorder_event_ns", NS, OPS, || {
        timed(|| {
            for i in 0..OPS {
                recorder.record(ObsEvent::Span {
                    kind: SpanKind::Placement,
                    ts_us: i,
                    dur_us: values.below(1 << 12),
                });
            }
        })
    });
    black_box((histogram.count(), registry.len(), recorder.registry().len()));
}

/// The codec on one request of the serve workloads' mix and the plan the
/// preloaded service answers it with.
fn api_probes(p: &mut Probes, opts: &Options, service: &Service) {
    const OPS: u64 = 10_000;
    let estate = Estate::of(service);
    let (place, _) = estate.draw_place(&mut InputRng::new(opts.seed ^ 0x617069));
    let request = ApiRequest::Place(place.with_id("probe").dry_run());
    let request_line = request.to_json_line();
    p.sample("api.request_encode_ns", NS, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(black_box(&request).to_json_line());
            }
        })
    });
    p.sample("api.request_parse_ns", NS, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(
                    ApiRequest::parse_line(black_box(&request_line), false)
                        .expect("own line parses"),
                );
            }
        })
    });
    let (response, _) = plan_dry_run(&service.engine, &request);
    let response_line = response.to_json_line();
    p.sample("api.response_encode_ns", NS, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(black_box(&response).to_json_line());
            }
        })
    });
    p.sample("api.response_parse_ns", NS, OPS, || {
        timed(|| {
            for _ in 0..OPS {
                black_box(
                    ApiResponse::parse_line(black_box(&response_line)).expect("own line parses"),
                );
            }
        })
    });
}

/// What a short simulation of the region leaves behind.
struct World {
    cfg: SimConfig,
    cloud: Cloud,
    store: TsdbStore,
    now: SimTime,
}

/// One simulated day of the region with sparse scrapes: a cloud holding the
/// whole population, each VM with the demand its last scrape saw.
fn finished_run(opts: &Options) -> World {
    let cfg = SimConfig::builder()
        .scale(opts.scale())
        .seed(opts.seed)
        .days(1)
        .warmup_days(0)
        .scrape_interval(SimDuration::from_hours(6))
        .build()
        .expect("the probe config is valid");
    let result = SimDriver::new(cfg).expect("a built config validates").run();
    World {
        cfg,
        cloud: result.cloud,
        store: result.store,
        now: SimTime::from_days(1),
    }
}

fn telemetry_probes(p: &mut Probes, run_store: &TsdbStore, nodes: usize, bbs: usize) {
    const OPS: u64 = 100_000;
    let mut store = TsdbStore::with_topology(30, nodes, bbs);
    let mut step = 0u64;
    p.sample("telemetry.record_ns", NS, OPS, || {
        step += 1;
        timed(|| {
            for i in 0..OPS {
                let node = (i % nodes as u64) as u32;
                store.record(
                    MetricId::HostCpuUtilPct,
                    EntityRef::Node(node),
                    SimTime::from_secs(step * 300),
                    i as f64,
                );
            }
        })
    });
    let mut store = TsdbStore::with_topology(30, nodes, bbs);
    p.sample("telemetry.record_rolled_ns", NS, OPS, || {
        step += 1;
        timed(|| {
            for i in 0..OPS {
                let node = (i % nodes as u64) as u32;
                store.record_rolled(
                    MetricId::HostCpuUtilPct,
                    EntityRef::Node(node),
                    SimTime::from_secs(step * 300),
                    i as f64,
                );
            }
        })
    });
    // One analysis-style read per node: find the series, reduce it.
    p.sample("telemetry.series_query_us", US, nodes as u64, || {
        timed(|| {
            for node in 0..nodes as u32 {
                black_box(
                    run_store
                        .series(MetricId::HostCpuContentionPct, EntityRef::Node(node))
                        .and_then(|s| s.mean()),
                );
            }
        })
    });
}

/// The requests ranked by the scheduler probes: the serve workloads' mix.
fn rank_requests(world: &World) -> Vec<PlacementRequest> {
    let mut rng = InputRng::new(world.cfg.seed ^ 0x72616e6b);
    let topology = world.cloud.topology();
    let mix = RequestMix::new(topology);
    (0..64u64)
        .map(|i| {
            let (flavor, zone) = mix.draw(&mut rng);
            PlacementRequest::new(u64::MAX - i, flavor.resources, mix.purpose(flavor.class))
                .in_az(topology.azs()[zone].id)
        })
        .collect()
}

fn scheduler_probes(p: &mut Probes, world: &World) {
    let requests = rank_requests(world);
    let views = world.cloud.host_views(world.cfg.granularity, world.now);
    let index = CandidateIndex::build(&views);
    let ops = requests.len() as u64;
    let mut policy = PlacementPolicy::new(PolicyKind::PaperDefault);
    let mut ranking = Ranking::default();
    let mut candidates = Vec::new();
    p.sample("scheduler.rank_us", US, ops, || {
        timed(|| {
            for request in &requests {
                let opts = RankOptions {
                    index: Some(&index),
                    top_k: 5,
                    count_stats: false,
                };
                if policy
                    .rank_into(request, &views, opts, &mut ranking)
                    .is_ok()
                {
                    candidates.push(f64::from(ranking.candidates));
                }
            }
        })
    });
    if !candidates.is_empty() {
        p.out.set(
            "scheduler.candidates_mean",
            candidates.iter().sum::<f64>() / candidates.len() as f64,
        );
    }
    p.sample("scheduler.rank_exhaustive_us", US, ops, || {
        timed(|| {
            for request in &requests {
                let opts = RankOptions {
                    count_stats: false,
                    ..RankOptions::exhaustive()
                };
                let _ = black_box(policy.rank_into(request, &views, opts, &mut ranking));
            }
        })
    });
    p.sample("scheduler.index_build_us", US, 1, || {
        timed(|| {
            black_box(CandidateIndex::build(black_box(&views)));
        })
    });

    // One DRS plan per building block, from the loads the driver would
    // hand the rebalancer.
    let topo = world.cloud.topology();
    let loads: Vec<Vec<HostLoad<NodeId>>> = topo
        .bbs()
        .iter()
        .map(|bb| {
            bb.nodes
                .iter()
                .filter(|&&n| topo.node(n).state == NodeState::Active)
                .map(|&n| {
                    let physical = topo.node_physical_capacity(n);
                    HostLoad {
                        id: n,
                        cpu_capacity: f64::from(physical.cpu_cores),
                        mem_capacity_mib: physical.memory_mib as f64,
                        vms: world
                            .cloud
                            .vms_on_node(n)
                            .iter()
                            .filter_map(|&id| world.cloud.vm(id))
                            .map(|vm| VmLoad {
                                vm_uid: vm.id.raw(),
                                cpu_demand: vm.last_cpu_demand_cores,
                                mem_used_mib: vm.last_mem_used_mib,
                                movable: vm.movable,
                            })
                            .collect(),
                    }
                })
                .collect::<Vec<_>>()
        })
        .filter(|nodes| nodes.len() >= 2)
        .collect();
    let rebalancer = Rebalancer::new(world.cfg.drs);
    p.sample("scheduler.drs_plan_us", US, loads.len() as u64, || {
        timed(|| {
            for bb in &loads {
                black_box(rebalancer.plan(bb));
            }
        })
    });
}

fn cloud_probes(p: &mut Probes, world: &mut World, specs: &[VmSpec]) {
    const BATCH: usize = 1_000;
    let (granularity, now) = (world.cfg.granularity, world.now);
    let cloud = &mut world.cloud;
    // A one-core VM that fits wherever anything fits, and the nodes with
    // room for it, two per VM so that each can also migrate.
    let small = Resources::new(1, 1_024, 1);
    let template = specs
        .iter()
        .find(|s| s.class == WorkloadClass::GeneralPurpose)
        .expect("the population has general-purpose VMs");
    let roomy: Vec<NodeId> = cloud
        .topology()
        .nodes()
        .iter()
        .filter(|n| n.state == NodeState::Active)
        .map(|n| n.id)
        .filter(|&n| {
            cloud
                .node_capacity(n)
                .saturating_sub(&cloud.node_allocated(n))
                .fits(&small.scale(2.0))
        })
        .collect();
    assert!(roomy.len() >= 2, "the probe cloud has no room left");
    // At most one guest per node, plus the one migrating in.
    let batch = BATCH.min(roomy.len());
    let first_id = specs.iter().map(|s| s.id.raw()).max().map_or(0, |m| m + 1);
    let guests: Vec<VmSpec> = (0..batch as u64)
        .map(|k| VmSpec {
            id: VmId(first_id + k),
            resources: small,
            ..template.clone()
        })
        .collect();
    cloud.reserve_vm_slots(first_id as usize + batch);
    let rng = SimRng::seed_from(7);

    let mut migrate_samples = Vec::new();
    let mut remove_samples = Vec::new();
    p.sample("core.cloud.place_ns", NS, batch as u64, || {
        let place = timed(|| {
            for (k, guest) in guests.iter().enumerate() {
                cloud.place(specs.len() + k, guest, roomy[k % roomy.len()], rng.clone());
            }
        });
        let migrate = timed(|| {
            for (k, guest) in guests.iter().enumerate() {
                black_box(cloud.migrate(guest.id, roomy[(k + 1) % roomy.len()]));
            }
        });
        let remove = timed(|| {
            for guest in &guests {
                black_box(cloud.remove(guest.id));
            }
        });
        migrate_samples.push(migrate.as_nanos() as f64 / batch as f64);
        remove_samples.push(remove.as_nanos() as f64 / batch as f64);
        place
    });
    p.out
        .set("core.cloud.migrate_ns", stats::median(&migrate_samples));
    p.out
        .set("core.cloud.remove_ns", stats::median(&remove_samples));

    // Refresh after eight nodes changed, as between two placements of a
    // busy control plane; against rebuilding every view from scratch.
    cloud.host_views_cached(granularity, now);
    p.sample("core.cloud.host_views_cached_us", US, 1, || {
        for (k, guest) in guests.iter().take(8).enumerate() {
            cloud.place(specs.len() + k, guest, roomy[k % roomy.len()], rng.clone());
            cloud.remove(guest.id);
        }
        timed(|| {
            black_box(cloud.host_views_cached(granularity, now));
        })
    });
    p.sample("core.cloud.host_views_naive_us", US, 1, || {
        timed(|| {
            black_box(cloud.host_views(granularity, now));
        })
    });
}

/// A service in the state the serve workloads time — the same preload,
/// applied in process — and the VMs in it that may be resized.
fn preloaded_service(opts: &Options) -> (Service, Vec<(u64, serve::Shape)>) {
    let mut service = serve::local_service(opts);
    let mut resizable = Vec::new();
    for (line, shape) in serve::preload(opts, &Estate::of(&service)) {
        let request = ApiRequest::parse_line(&line, false).expect("the preload script parses");
        let response = service.execute(&request);
        if let Some(shape) = shape {
            resizable.extend(serve::placed_vms(&response).iter().map(|p| (p.vm, shape)));
        }
    }
    (service, resizable)
}

/// The engine under the serve workloads' own requests, without a socket.
fn engine_probes(
    p: &mut Probes,
    opts: &Options,
    mut service: Service,
    resizable: &[(u64, serve::Shape)],
) {
    const BATCH: u64 = 100;
    let mut rng = InputRng::new(opts.seed ^ 0x656e67);
    let estate = Estate::of(&service);
    let places: Vec<ApiRequest> = (0..BATCH)
        .map(|_| ApiRequest::Place(estate.draw_place(&mut rng).0))
        .collect();
    let orders: Vec<PlaceSpec> = {
        let topology = service.engine.topology();
        let mix = RequestMix::new(topology);
        (0..BATCH)
            .map(|_| {
                let (flavor, zone) = mix.draw(&mut rng);
                PlaceSpec {
                    resources: flavor.resources,
                    class: flavor.class,
                    az: Some(topology.azs()[zone].id),
                    lifetime_days: 30.0,
                }
            })
            .collect()
    };
    let engine = &service.engine;
    p.sample("core.engine.fork_us", US, 1, || {
        timed(|| {
            black_box(engine.fork());
        })
    });
    // Mutating probes work on a fork per batch, so every batch meets the
    // preloaded state.
    p.sample("core.engine.place_us", US, BATCH, || {
        let mut fork = engine.fork();
        timed(|| {
            for order in &orders {
                black_box(fork.place(order));
            }
        })
    });
    p.sample("core.engine.resize_us", US, BATCH, || {
        let mut fork = engine.fork();
        let targets: Vec<(VmId, Resources)> = (0..BATCH)
            .map(|_| {
                let (vm, shape) = *rng.pick(resizable);
                let (vcpus, memory_mib) = shape.doubled();
                let disk_gib = fork
                    .vm_resources(VmId(vm))
                    .expect("preloaded VMs are placed")
                    .disk_gib;
                (VmId(vm), Resources::new(vcpus, memory_mib, disk_gib))
            })
            .collect();
        timed(|| {
            for &(vm, resources) in &targets {
                black_box(fork.resize(vm, resources));
            }
        })
    });
    p.sample("core.engine.evacuate_us", US, 1, || {
        let mut fork = engine.fork();
        // The node of a random VM: a drain that has something to move.
        let node = fork
            .vm_node(VmId(rng.pick(resizable).0))
            .expect("preloaded VMs are placed");
        timed(|| {
            black_box(fork.evacuate(node));
        })
    });
    let preloaded = service.engine.fork();
    p.sample("cli.service.execute_us", US, BATCH, || {
        service.engine = preloaded.fork();
        timed(|| {
            for place in &places {
                black_box(service.execute(place));
            }
        })
    });
}
