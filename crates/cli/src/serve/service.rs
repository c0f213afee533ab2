//! The protocol ↔ engine bridge.
//!
//! [`Service`] owns one live [`PlacementEngine`] plus the dry-run
//! transaction ledger, and [`Service::execute`] is the *single* code
//! path that turns an [`ApiRequest`] into an [`ApiResponse`]. The
//! offline applier (`sapsim serve --script`) calls it directly; the
//! server's workers call it under one `Mutex<Service>` for every
//! mutation and commit, and call the same [`plan_dry_run`] helper on
//! snapshot forks. One path, therefore byte-identical responses online
//! and offline — which is what lets CI diff a served session against an
//! offline replay.

use sapsim_api::{
    txn_token, ApiRequest, ApiResponse, CommitResponse, EvacuateResponse, Moved, PlaceResponse,
    Placement, ProtocolError, ResizeOutcome, ResizeResponse, ShutdownResponse, StateResponse,
    VmClass,
};
use sapsim_core::{PlaceOutcome, PlaceSpec, PlacementEngine, ResizeResult, SimConfig, SimError};
use sapsim_topology::Resources;
use sapsim_workload::{VmId, WorkloadClass};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

/// Assumed lifetime for placements that do not declare one, feeding the
/// lifetime-aware weigher. Thirty days sits in the middle of the
/// paper's short-lived/long-lived split.
pub(crate) const DEFAULT_LIFETIME_DAYS: f64 = 30.0;

/// Most dry-run plans retained at once; the oldest are forgotten first
/// (their tokens then answer `commit` with `not-found`).
pub(crate) const PENDING_CAP: usize = 1024;

/// One registered dry-run plan awaiting `commit`.
#[derive(Debug, Clone)]
pub struct PendingTxn {
    /// Engine version the plan was computed against. A commit replays
    /// only if the engine still sits at this version.
    pub(crate) base_version: u64,
    /// The original (dry-run) request, replayed verbatim on commit.
    pub(crate) request: ApiRequest,
}

/// Token → plan ledger with FIFO eviction at [`PENDING_CAP`] tokens.
///
/// Planning the identical request at the same version yields the same
/// token (two clients may do so), so each token counts its
/// registrations and every one of them may be committed once.
#[derive(Debug, Default)]
pub(crate) struct PendingMap {
    map: HashMap<String, (PendingTxn, u32)>,
    order: VecDeque<String>,
}

impl PendingMap {
    /// Register a plan under its token, evicting the oldest tokens
    /// beyond the cap.
    pub(crate) fn register(&mut self, token: String, txn: PendingTxn) {
        match self.map.entry(token) {
            Entry::Occupied(mut entry) => entry.get_mut().1 += 1,
            Entry::Vacant(entry) => {
                self.order.push_back(entry.key().clone());
                entry.insert((txn, 1));
            }
        }
        while self.order.len() > PENDING_CAP {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
    }

    /// Consume one registration of a plan by token; the token is
    /// forgotten when its last registration is taken.
    pub(crate) fn take(&mut self, token: &str) -> Option<PendingTxn> {
        let (txn, count) = self.map.get_mut(token)?;
        *count -= 1;
        if *count > 0 {
            return Some(txn.clone());
        }
        self.order.retain(|t| t != token);
        self.map.remove(token).map(|(txn, _)| txn)
    }
}

/// The placement service: one live engine plus the dry-run ledger.
#[derive(Debug)]
pub struct Service {
    /// The live engine; mutated only through [`Service::execute`].
    pub engine: PlacementEngine,
    /// Dry-run plans awaiting commit.
    pub(crate) pending: PendingMap,
    /// Set once a `shutdown` request has been executed.
    pub(crate) shutdown: bool,
}

impl Service {
    /// Boot a service over the estate described by `cfg`.
    pub fn new(cfg: SimConfig) -> Result<Service, SimError> {
        Ok(Service {
            engine: PlacementEngine::new(cfg)?,
            pending: PendingMap::default(),
            shutdown: false,
        })
    }

    /// Execute one request against the live engine and return its wire
    /// response. Callers guarantee mutual exclusion: the server calls
    /// it only while holding its service lock, and the offline applier
    /// is single-threaded.
    pub fn execute(&mut self, request: &ApiRequest) -> ApiResponse {
        if is_dry_run(request) {
            let (response, registration) = plan_dry_run(&self.engine, request);
            if let Some((token, txn)) = registration {
                self.pending.register(token, txn);
            }
            return response;
        }
        match request {
            ApiRequest::Commit(commit) => {
                let id = commit.id.clone();
                let Some(plan) = self.pending.take(&commit.txn) else {
                    return ApiResponse::from_error(
                        &ProtocolError::NotFound(format!(
                            "unknown or expired txn `{}`",
                            commit.txn
                        )),
                        id,
                    );
                };
                if plan.base_version != self.engine.version() {
                    return ApiResponse::from_error(
                        &ProtocolError::Conflict(format!(
                            "engine moved from version {} to {} since the plan was made",
                            plan.base_version,
                            self.engine.version()
                        )),
                        id,
                    );
                }
                match apply_mutation(&mut self.engine, &plan.request) {
                    Ok(applied) => ApiResponse::Commit(
                        CommitResponse::new(commit.txn.clone(), applied).with_id(id),
                    ),
                    Err(e) => ApiResponse::from_error(&e, id),
                }
            }
            ApiRequest::State(state) => state_response(&self.engine, state.id.clone()),
            ApiRequest::Shutdown(req) => {
                self.shutdown = true;
                ApiResponse::Shutdown(ShutdownResponse::new().with_id(req.id.clone()))
            }
            live => match apply_mutation(&mut self.engine, live) {
                Ok(response) => response,
                Err(e) => ApiResponse::from_error(&e, live.client_id().map(str::to_string)),
            },
        }
    }
}

/// Whether a request asks for a plan rather than a live mutation.
pub(crate) fn is_dry_run(request: &ApiRequest) -> bool {
    match request {
        ApiRequest::Place(r) => r.dry_run,
        ApiRequest::Resize(r) => r.dry_run,
        ApiRequest::Evacuate(r) => r.dry_run,
        _ => false,
    }
}

/// Plan a dry-run request on a fork of `view` (which may be the live
/// engine or a published snapshot — forks of either are equivalent).
/// Returns the wire response and, on success, the `(token, plan)` pair
/// the caller must register with the live service before replying.
pub fn plan_dry_run(
    view: &PlacementEngine,
    request: &ApiRequest,
) -> (ApiResponse, Option<(String, PendingTxn)>) {
    let base = view.version();
    let mut fork = view.fork();
    match apply_mutation(&mut fork, request) {
        Err(e) => (
            ApiResponse::from_error(&e, request.client_id().map(str::to_string)),
            None,
        ),
        Ok(mut response) => {
            let token = txn_token(base, request);
            mark_dry_run(&mut response, base, token.clone());
            let registration = (
                token,
                PendingTxn {
                    base_version: base,
                    request: request.clone(),
                },
            );
            (response, Some(registration))
        }
    }
}

/// Build a `state` response from any engine view.
pub(crate) fn state_response(engine: &PlacementEngine, id: Option<String>) -> ApiResponse {
    let (nodes, active_nodes) = engine.node_counts();
    ApiResponse::State(
        StateResponse::new(
            engine.version(),
            engine.vm_count() as u64,
            nodes as u64,
            active_nodes as u64,
            engine.state_hash(),
        )
        .with_id(id),
    )
}

/// Apply a mutating request (place / resize / evacuate — the `dry_run`
/// flag is ignored; commit strips it by construction because the fork
/// and the live engine run the identical code). Bumps the engine
/// version once on success, so the response's `version` is the state
/// the mutation produced.
pub fn apply_mutation(
    engine: &mut PlacementEngine,
    request: &ApiRequest,
) -> Result<ApiResponse, ProtocolError> {
    match request {
        ApiRequest::Place(r) => {
            let az = match &r.az {
                Some(name) => Some(engine.az_by_name(name).ok_or_else(|| {
                    ProtocolError::NotFound(format!("unknown availability zone `{name}`"))
                })?),
                None => None,
            };
            let spec = PlaceSpec {
                resources: Resources::new(r.vcpus, r.memory_mib, r.disk_gib),
                class: workload_class(r.class),
                az,
                lifetime_days: r.lifetime_days.unwrap_or(DEFAULT_LIFETIME_DAYS),
            };
            let mut response = PlaceResponse::new(0).with_id(r.id.clone());
            for index in 0..r.count {
                match engine.place(&spec) {
                    PlaceOutcome::Placed { vm, node, retries } => {
                        let (node_name, bb, az_name) = engine.node_location(node);
                        response.push_placed(Placement {
                            vm: vm.0,
                            node: node_name,
                            bb,
                            az: az_name,
                            retries: u64::from(retries),
                        });
                    }
                    PlaceOutcome::NoCandidate => response.push_failed(index, "no-candidate"),
                    PlaceOutcome::Fragmented { .. } => response.push_failed(index, "fragmented"),
                }
            }
            engine.bump_version();
            response.version = engine.version();
            Ok(ApiResponse::Place(response))
        }
        ApiRequest::Resize(r) => {
            let vm = VmId(r.vm);
            let current = engine
                .vm_resources(vm)
                .ok_or_else(|| ProtocolError::NotFound(format!("unknown vm `{}`", r.vm)))?;
            let new = Resources::new(r.vcpus, r.memory_mib, r.disk_gib.unwrap_or(current.disk_gib));
            let result = engine.resize(vm, new);
            engine.bump_version();
            let version = engine.version();
            let response = match result {
                ResizeResult::UnknownVm => {
                    return Err(ProtocolError::NotFound(format!("unknown vm `{}`", r.vm)))
                }
                ResizeResult::InPlace { node } => {
                    ResizeResponse::new(version, r.vm, ResizeOutcome::InPlace)
                        .on_node(engine.node_location(node).0)
                }
                ResizeResult::Migrated { node } => {
                    ResizeResponse::new(version, r.vm, ResizeOutcome::Migrated)
                        .on_node(engine.node_location(node).0)
                }
                ResizeResult::Failed => ResizeResponse::new(version, r.vm, ResizeOutcome::Failed),
            };
            Ok(ApiResponse::Resize(response.with_id(r.id.clone())))
        }
        ApiRequest::Evacuate(r) => {
            let node = engine
                .node_by_name(&r.node)
                .ok_or_else(|| ProtocolError::NotFound(format!("unknown node `{}`", r.node)))?;
            let report = engine.evacuate(node);
            engine.bump_version();
            let mut response =
                EvacuateResponse::new(engine.version(), r.node.clone()).with_id(r.id.clone());
            for (vm, to) in report.moved {
                response.moved.push(Moved {
                    vm: vm.0,
                    node: engine.node_location(to).0,
                });
            }
            response.lost = report.lost.iter().map(|vm| vm.0).collect();
            Ok(ApiResponse::Evacuate(response))
        }
        other => Err(ProtocolError::Internal(format!(
            "op `{}` is not a mutation",
            other.op()
        ))),
    }
}

/// Rewrite a successful mutation response into its dry-run form: plan
/// flag set, commit token attached, version pinned to the base the
/// plan was computed against (the fork's post-mutation bump is
/// hypothetical and must not leak).
pub(crate) fn mark_dry_run(response: &mut ApiResponse, base_version: u64, token: String) {
    match response {
        ApiResponse::Place(r) => {
            r.dry_run = true;
            r.txn = Some(token);
            r.version = base_version;
        }
        ApiResponse::Resize(r) => {
            r.dry_run = true;
            r.txn = Some(token);
            r.version = base_version;
        }
        ApiResponse::Evacuate(r) => {
            r.dry_run = true;
            r.txn = Some(token);
            r.version = base_version;
        }
        _ => {}
    }
}

/// Map the wire workload class onto the scheduler's.
pub(crate) fn workload_class(class: VmClass) -> WorkloadClass {
    match class {
        VmClass::GeneralPurpose => WorkloadClass::GeneralPurpose,
        VmClass::Hana => WorkloadClass::Hana,
        VmClass::CiFarm => WorkloadClass::CiFarm,
    }
}

/// Build the engine config for `serve` from already-parsed CLI knobs;
/// every other knob keeps its default (the engine ignores the
/// workload-generator fields anyway).
pub fn engine_config(
    scale: f64,
    seed: u64,
    policy: sapsim_scheduler::PolicyKind,
    granularity: sapsim_core::PlacementGranularity,
    overcommit: f64,
) -> Result<SimConfig, SimError> {
    let mut cfg = SimConfig::default();
    cfg.scale = scale;
    cfg.seed = seed;
    cfg.policy = policy;
    cfg.granularity = granularity;
    cfg.gp_cpu_overcommit = overcommit;
    cfg.validate()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_api::{
        CommitRequest, EvacuateRequest, PlaceRequest, ResizeRequest, ShutdownRequest, StateRequest,
    };
    use sapsim_core::PlacementGranularity;
    use sapsim_scheduler::PolicyKind;

    fn small_service() -> Service {
        let cfg = engine_config(
            0.05,
            7,
            PolicyKind::PaperDefault,
            PlacementGranularity::BuildingBlock,
            4.0,
        )
        .expect("valid config");
        Service::new(cfg).expect("engine boots")
    }

    fn place(count: u64) -> ApiRequest {
        ApiRequest::Place(PlaceRequest::new(4, 16_384).with_count(count))
    }

    #[test]
    fn live_place_bumps_version_and_reports_locations() {
        let mut svc = small_service();
        let ApiResponse::Place(resp) = svc.execute(&place(3)) else {
            panic!("expected a place response");
        };
        assert!(!resp.dry_run);
        assert_eq!(resp.txn, None);
        assert_eq!(resp.version, 1);
        assert_eq!(resp.placed.len(), 3);
        assert!(resp.failed.is_empty());
        for p in &resp.placed {
            assert!(!p.node.is_empty() && !p.bb.is_empty() && !p.az.is_empty());
        }
        assert_eq!(svc.engine.vm_count(), 3);
    }

    #[test]
    fn dry_run_plans_do_not_mutate_until_committed() {
        let mut svc = small_service();
        let request = ApiRequest::Place(PlaceRequest::new(2, 8192).with_count(2).dry_run());
        let ApiResponse::Place(plan) = svc.execute(&request) else {
            panic!("expected a place plan");
        };
        assert!(plan.dry_run);
        assert_eq!(plan.version, 0, "plan cites its base version");
        let token = plan.txn.clone().expect("plan carries a token");
        assert_eq!(svc.engine.vm_count(), 0, "plan must not mutate");
        assert_eq!(svc.pending.map.len(), 1);

        let commit = ApiRequest::Commit(CommitRequest::new(token.clone()));
        let ApiResponse::Commit(applied) = svc.execute(&commit) else {
            panic!("expected a commit response");
        };
        assert_eq!(applied.txn, token);
        let ApiResponse::Place(inner) = applied.applied.as_ref() else {
            panic!("commit wraps the replayed place");
        };
        assert_eq!(inner.placed.len(), 2);
        assert_eq!(inner.version, 1);
        assert_eq!(svc.engine.vm_count(), 2);
        assert!(svc.pending.map.is_empty(), "token is consumed");

        // The plan predicted exactly what the commit did.
        assert_eq!(plan.placed, inner.placed);
    }

    #[test]
    fn commit_after_interleaved_write_is_a_conflict() {
        let mut svc = small_service();
        let plan_req = ApiRequest::Place(PlaceRequest::new(2, 8192).dry_run());
        let ApiResponse::Place(plan) = svc.execute(&plan_req) else {
            panic!("expected a plan");
        };
        let token = plan.txn.unwrap();

        // Another writer lands first.
        svc.execute(&place(1));

        let resp = svc.execute(&ApiRequest::Commit(CommitRequest::new(token.clone())));
        let ApiResponse::Error(err) = resp else {
            panic!("expected a conflict");
        };
        assert_eq!(err.code, "conflict");
        assert_eq!(err.status, 409);

        // The token was consumed by the failed commit.
        let resp = svc.execute(&ApiRequest::Commit(CommitRequest::new(token)));
        let ApiResponse::Error(err) = resp else {
            panic!("expected not-found");
        };
        assert_eq!(err.code, "not-found");
    }

    #[test]
    fn unknown_entities_are_not_found() {
        let mut svc = small_service();
        let cases = [
            ApiRequest::Place(PlaceRequest::new(1, 1024).in_az("az-z")),
            ApiRequest::Resize(ResizeRequest::new(999, 2, 2048)),
            ApiRequest::Evacuate(EvacuateRequest::new("no-such-node")),
            ApiRequest::Commit(CommitRequest::new("00000000000000aa")),
        ];
        for request in cases {
            let ApiResponse::Error(err) = svc.execute(&request) else {
                panic!("expected an error for {}", request.op());
            };
            assert_eq!(err.code, "not-found", "{}", err.error);
        }
        assert_eq!(svc.engine.version(), 0, "failed requests must not bump");
    }

    #[test]
    fn resize_and_evacuate_round_trip_through_the_service() {
        let mut svc = small_service();
        let ApiResponse::Place(placed) = svc.execute(&place(2)) else {
            panic!();
        };
        let vm = placed.placed[0].vm;
        let node = placed.placed[0].node.clone();

        let ApiResponse::Resize(resized) =
            svc.execute(&ApiRequest::Resize(ResizeRequest::new(vm, 8, 32_768)))
        else {
            panic!("expected a resize response");
        };
        assert_eq!(resized.vm, vm);
        assert_eq!(
            resized.node.is_some(),
            resized.outcome != ResizeOutcome::Failed,
            "node is reported exactly when the resize landed"
        );

        let ApiResponse::Evacuate(evac) =
            svc.execute(&ApiRequest::Evacuate(EvacuateRequest::new(node.clone())))
        else {
            panic!("expected an evacuate response");
        };
        assert_eq!(evac.node, node);

        let ApiResponse::State(state) =
            svc.execute(&ApiRequest::State(StateRequest::new()))
        else {
            panic!("expected state");
        };
        assert_eq!(state.version, 3);
        assert_eq!(state.hash.len(), 16);
    }

    #[test]
    fn shutdown_flips_the_flag() {
        let mut svc = small_service();
        let ApiResponse::Shutdown(resp) =
            svc.execute(&ApiRequest::Shutdown(ShutdownRequest::new().with_id("bye")))
        else {
            panic!("expected a shutdown ack");
        };
        assert!(resp.ok);
        assert_eq!(resp.id.as_deref(), Some("bye"));
        assert!(svc.shutdown);
    }

    #[test]
    fn plan_on_a_snapshot_matches_plan_on_the_live_engine() {
        let mut svc = small_service();
        svc.execute(&place(2));
        let snapshot = svc.engine.fork();
        let request = ApiRequest::Place(PlaceRequest::new(2, 4096).dry_run());
        let (from_snapshot, reg_a) = plan_dry_run(&snapshot, &request);
        let (from_live, reg_b) = plan_dry_run(&svc.engine, &request);
        assert_eq!(from_snapshot.to_json_line(), from_live.to_json_line());
        assert_eq!(reg_a.map(|r| r.0), reg_b.map(|r| r.0), "same token");
    }

    #[test]
    fn identical_plans_from_two_clients_commit_once_each() {
        let mut svc = small_service();
        let request = ApiRequest::Place(PlaceRequest::new(2, 8192).dry_run());
        let plan = |svc: &mut Service| match svc.execute(&request) {
            ApiResponse::Place(plan) => plan.txn.expect("plan carries a token"),
            other => panic!("expected a place plan, got {other:?}"),
        };
        let (first, second) = (plan(&mut svc), plan(&mut svc));
        assert_eq!(first, second, "same version and request, same token");

        let commit = ApiRequest::Commit(CommitRequest::new(first));
        assert!(matches!(svc.execute(&commit), ApiResponse::Commit(_)));
        let ApiResponse::Error(err) = svc.execute(&commit) else {
            panic!("the second client's commit must fail");
        };
        assert_eq!(err.code, "conflict", "the engine moved; the plan was known");
        let ApiResponse::Error(err) = svc.execute(&commit) else {
            panic!("no registration is left");
        };
        assert_eq!(err.code, "not-found");
        assert!(svc.pending.map.is_empty() && svc.pending.order.is_empty());
    }

    #[test]
    fn pending_map_evicts_fifo_beyond_cap() {
        let mut pending = PendingMap::default();
        let request = ApiRequest::State(StateRequest::new());
        for i in 0..(PENDING_CAP + 10) {
            pending.register(
                format!("{i:016x}"),
                PendingTxn {
                    base_version: i as u64,
                    request: request.clone(),
                },
            );
        }
        assert_eq!(pending.map.len(), PENDING_CAP);
        assert!(pending.take("0000000000000000").is_none(), "oldest evicted");
        assert!(pending.take(&format!("{:016x}", PENDING_CAP + 9)).is_some());
    }
}
