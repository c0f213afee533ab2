//! The filter-and-weigher pipeline: Nova's scheduler core.

use crate::filter::Filter;
use crate::index::CandidateIndex;
use crate::request::{HostView, PlacementRequest, RejectReason};
use crate::weigher::Weigher;
use std::collections::BTreeMap;
use std::fmt;

/// Scheduling failure: no candidate survived filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleError {
    /// How many candidates each reason eliminated, sorted by count
    /// descending, then by reason — a stable order, independent of hash
    /// state.
    pub rejections: Vec<(RejectReason, u32)>,
    /// Size of the candidate set examined (all of which were eliminated).
    pub candidates: u32,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no valid host found (")?;
        for (i, (reason, count)) in self.rejections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{count}× {reason}")?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for ScheduleError {}

/// Running counters of pipeline activity, for the scheduling-efficiency
/// analyses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Placement decisions requested.
    pub requests: u64,
    /// Requests for which at least one candidate survived.
    pub scheduled: u64,
    /// Requests that failed outright.
    pub failed: u64,
    /// Candidates eliminated, by reason. A `BTreeMap` so iteration (and
    /// therefore every stats dump) has one deterministic order.
    pub rejections: BTreeMap<RejectReason, u64>,
}

/// Cumulative effectiveness counters of [`CandidateIndex`] bucket pruning,
/// kept separate from [`PipelineStats`] on purpose: pruning is a pure
/// execution detail (the indexed and full-scan paths are bit-identical by
/// contract, including their `PipelineStats`), so its bookkeeping must
/// never appear in the stats the equivalence suites compare. These
/// counters feed the engine-health metrics export only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Rank passes that walked a candidate index.
    pub indexed_requests: u64,
    /// Rank passes that scanned the full host slice (no index supplied).
    pub full_scans: u64,
    /// Buckets examined across all indexed passes.
    pub buckets_examined: u64,
    /// Buckets pruned wholesale (infeasible purpose or AZ).
    pub buckets_pruned: u64,
    /// Hosts skipped without running the filter chain, via pruned buckets.
    pub hosts_pruned: u64,
}

/// Execution options for one [`FilterScheduler::rank_into`] pass.
#[derive(Debug, Clone, Copy)]
pub struct RankOptions<'a> {
    /// Purpose×AZ candidate index over the host slice, letting the filter
    /// stage skip whole infeasible buckets. `None` scans every host.
    /// Pruned hosts are still counted under the exact [`RejectReason`]
    /// the filter chain would have emitted, so rejection attribution is
    /// identical either way — but only for the standard filter chain
    /// (status, AZ, purpose, then capacity), which is what every built-in
    /// policy runs.
    pub index: Option<&'a CandidateIndex>,
    /// Sort only the best `top_k` entries of the result (partial
    /// selection); the tail of [`Ranking::order`] beyond
    /// [`Ranking::sorted_len`] is then unsorted. `usize::MAX` (or `0`, or
    /// anything ≥ the survivor count) requests the classic full stable
    /// sort.
    pub top_k: usize,
    /// Update [`PipelineStats`] and record this pass's rejections as new
    /// events. Pass `false` when re-ranking the same request against an
    /// unchanged world (to extend a top-k head), so nothing is counted
    /// twice.
    pub count_stats: bool,
}

impl RankOptions<'static> {
    /// The classic behaviour: full scan, full sort, stats counted.
    pub fn exhaustive() -> Self {
        RankOptions {
            index: None,
            top_k: usize::MAX,
            count_stats: true,
        }
    }
}

/// The structured result of one successful pipeline pass: the ranked
/// survivors plus everything the filter and weigher stages learned on the
/// way — enough to audit the decision without a second pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ranking {
    /// Surviving candidates as indices into the `hosts` slice passed to
    /// [`FilterScheduler::rank`], best first. Only the first
    /// [`sorted_len`](Ranking::sorted_len) entries are ordered; the rest
    /// (present only after a top-k pass) are the remaining survivors in
    /// unspecified order.
    pub order: Vec<usize>,
    /// Combined (multiplier-weighted, normalized) score of each entry in
    /// `order`, aligned index-for-index.
    pub scores: Vec<f64>,
    /// Per-weigher score contributions: for each configured weigher, its
    /// name and the contribution it added to each entry of `order`
    /// (aligned index-for-index). Summing column-wise reproduces
    /// `scores`.
    pub weigher_scores: Vec<(&'static str, Vec<f64>)>,
    /// How many candidates each filter reason eliminated, in reason
    /// order. Empty when every candidate survived.
    pub rejections: Vec<(RejectReason, u32)>,
    /// Size of the candidate set examined (survivors + eliminated).
    pub candidates: u32,
    /// How many leading entries of `order` are guaranteed best-first.
    /// Equal to `order.len()` after a full sort.
    pub sorted_len: usize,
}

impl Ranking {
    /// The winning candidate (index into the original `hosts` slice).
    ///
    /// # Panics
    /// Never: a `Ranking` is only constructed with at least one survivor.
    pub fn best(&self) -> usize {
        self.order[0]
    }

    /// The best `k` candidates with their combined scores, best first.
    pub fn top_k(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.order
            .iter()
            .zip(&self.scores)
            .take(k)
            .map(|(&host, &score)| (host, score))
    }
}

/// Reused buffers for the rank hot path, mirroring `DriverScratch` in the
/// driver: after the first call, a steady-state rank allocates nothing.
#[derive(Debug, Default)]
struct RankScratch {
    survivors: Vec<usize>,
    totals: Vec<f64>,
    perm: Vec<usize>,
    /// Recycled per-weigher contribution vectors: popped when a weigher
    /// needs one, pushed back when the previous output is cleared.
    contrib_pool: Vec<Vec<f64>>,
}

/// An OpenStack-Nova-style scheduler: a filter chain followed by a set of
/// multiplier-weighted weighers (paper Figure 3).
///
/// [`FilterScheduler::rank`] returns *all* surviving candidates in
/// preference order rather than just the winner, because Nova "implements a
/// greedy approach with retries reapplying filters and weighers, which
/// yields multiple suitable candidates" (paper Section 2.2) — the caller
/// walks the list until a claim succeeds.
pub struct FilterScheduler {
    filters: Vec<Box<dyn Filter>>,
    weighers: Vec<(f64, Box<dyn Weigher>)>,
    stats: PipelineStats,
    index_stats: IndexStats,
    scratch: RankScratch,
}

impl fmt::Debug for FilterScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FilterScheduler")
            .field(
                "filters",
                &self.filters.iter().map(|x| x.name()).collect::<Vec<_>>(),
            )
            .field(
                "weighers",
                &self
                    .weighers
                    .iter()
                    .map(|(m, w)| (*m, w.name()))
                    .collect::<Vec<_>>(),
            )
            .finish_non_exhaustive()
    }
}

impl FilterScheduler {
    /// A scheduler with explicit filter and weigher chains. Each weigher
    /// carries a multiplier; negative multipliers turn a spreading weigher
    /// into a packing one.
    pub fn new(filters: Vec<Box<dyn Filter>>, weighers: Vec<(f64, Box<dyn Weigher>)>) -> Self {
        FilterScheduler {
            filters,
            weighers,
            stats: PipelineStats::default(),
            index_stats: IndexStats::default(),
            scratch: RankScratch::default(),
        }
    }

    /// Pipeline activity counters.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Candidate-index prune-effectiveness counters (see [`IndexStats`]).
    pub fn index_stats(&self) -> &IndexStats {
        &self.index_stats
    }

    /// Run the pipeline: filter `hosts`, then rank the survivors
    /// best-first. The returned [`Ranking`] carries the order, the
    /// combined and per-weigher scores, and the per-filter elimination
    /// counts of this pass.
    ///
    /// Ranking follows Nova's weigher semantics: each weigher's raw scores
    /// are min-max normalized to `[0, 1]` across the surviving candidates,
    /// multiplied by the weigher's multiplier, and summed. Ties break by
    /// candidate index, which keeps the pipeline fully deterministic.
    pub fn rank(
        &mut self,
        request: &PlacementRequest,
        hosts: &[HostView],
    ) -> Result<Ranking, ScheduleError> {
        let mut out = Ranking::default();
        self.rank_into(request, hosts, RankOptions::exhaustive(), &mut out)?;
        Ok(out)
    }

    /// The hot-path form of [`rank`](FilterScheduler::rank): writes into a
    /// caller-owned [`Ranking`] (whose buffers are recycled), optionally
    /// prunes whole infeasible buckets through a [`CandidateIndex`], and
    /// optionally sorts only the top-k head. With
    /// [`RankOptions::exhaustive`] the written `Ranking` is identical to
    /// what `rank` returns — the index and top-k variants preserve the
    /// survivor set, scores, rejection counts, and the sorted head
    /// bit-for-bit (the weigher comparator is a strict total order for
    /// finite scores, so partial selection agrees with the stable full
    /// sort; a custom weigher emitting NaN must not use `top_k`).
    pub fn rank_into(
        &mut self,
        request: &PlacementRequest,
        hosts: &[HostView],
        opts: RankOptions<'_>,
        out: &mut Ranking,
    ) -> Result<(), ScheduleError> {
        if opts.count_stats {
            self.stats.requests += 1;
        }

        // Recycle the previous output: contribution vectors go back to
        // the pool so steady-state ranking allocates nothing.
        out.order.clear();
        out.scores.clear();
        out.rejections.clear();
        for (_, mut contrib) in out.weigher_scores.drain(..) {
            contrib.clear();
            self.scratch.contrib_pool.push(contrib);
        }
        out.candidates = hosts.len() as u32;
        out.sorted_len = 0;

        // Filter stage. Counting into a fixed array indexed by the reason
        // discriminant reproduces the BTreeMap's declaration-order
        // iteration without the allocation.
        let mut reject_counts = [0u32; RejectReason::ALL.len()];
        self.scratch.survivors.clear();
        match opts.index {
            None => {
                if opts.count_stats {
                    self.index_stats.full_scans += 1;
                }
                'candidates: for (i, host) in hosts.iter().enumerate() {
                    for f in &self.filters {
                        if let Err(reason) = f.check(request, host) {
                            reject_counts[reason as usize] += 1;
                            continue 'candidates;
                        }
                    }
                    self.scratch.survivors.push(i);
                }
            }
            Some(index) => {
                debug_assert_eq!(
                    index.len(),
                    hosts.len(),
                    "candidate index must cover the host slice"
                );
                if opts.count_stats {
                    self.index_stats.indexed_requests += 1;
                }
                let mut feasible_buckets = 0usize;
                for bucket in index.buckets() {
                    if bucket.purpose.accepts(request.purpose)
                        && request.az.is_none_or(|az| az == bucket.az)
                    {
                        feasible_buckets += 1;
                        if opts.count_stats {
                            self.index_stats.buckets_examined += 1;
                        }
                        'bucket: for &i in &bucket.hosts {
                            let host = &hosts[i as usize];
                            for f in &self.filters {
                                if let Err(reason) = f.check(request, host) {
                                    reject_counts[reason as usize] += 1;
                                    continue 'bucket;
                                }
                            }
                            self.scratch.survivors.push(i as usize);
                        }
                    } else {
                        if opts.count_stats {
                            self.index_stats.buckets_pruned += 1;
                            self.index_stats.hosts_pruned += bucket.hosts.len() as u64;
                        }
                        // Whole bucket pruned. Attribute each host to the
                        // reason the standard chain would emit: status is
                        // checked first (disabled wins), then AZ, then
                        // purpose — so the healthy remainder is wrong-AZ
                        // when the request pins a different AZ, else
                        // wrong-purpose.
                        reject_counts[RejectReason::HostDisabled as usize] += bucket.disabled;
                        let healthy = bucket.hosts.len() as u32 - bucket.disabled;
                        let reason = if request.az.is_some_and(|az| az != bucket.az) {
                            RejectReason::WrongAz
                        } else {
                            RejectReason::WrongPurpose
                        };
                        reject_counts[reason as usize] += healthy;
                    }
                }
                if feasible_buckets > 1 {
                    // Survivors from different buckets interleave; restore
                    // the ascending order a full scan produces. (A single
                    // bucket is already ascending.)
                    self.scratch.survivors.sort_unstable();
                }
            }
        }

        for (reason, &n) in RejectReason::ALL.iter().zip(&reject_counts) {
            if n > 0 {
                out.rejections.push((*reason, n));
                if opts.count_stats {
                    *self.stats.rejections.entry(*reason).or_insert(0) += n as u64;
                }
            }
        }

        if self.scratch.survivors.is_empty() {
            if opts.count_stats {
                self.stats.failed += 1;
            }
            let mut rej = out.rejections.clone();
            rej.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            return Err(ScheduleError {
                rejections: rej,
                candidates: hosts.len() as u32,
            });
        }

        // Weighing stage: min-max normalize each weigher across survivors,
        // keeping each weigher's contribution vector for the audit log.
        let n = self.scratch.survivors.len();
        self.scratch.totals.clear();
        self.scratch.totals.resize(n, 0.0);
        for (multiplier, weigher) in &self.weighers {
            let mut scores = self.scratch.contrib_pool.pop().unwrap_or_default();
            scores.clear();
            scores.extend(
                self.scratch
                    .survivors
                    .iter()
                    .map(|&i| weigher.weigh(request, &hosts[i])),
            );
            let lo = scores.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let span = hi - lo;
            for s in scores.iter_mut() {
                let norm = if span > 0.0 { (*s - lo) / span } else { 0.0 };
                *s = multiplier * norm;
            }
            for (t, s) in self.scratch.totals.iter_mut().zip(&scores) {
                *t += s;
            }
            // Stored in survivor order for now; permuted into rank order
            // below, once the permutation is known.
            out.weigher_scores.push((weigher.name(), scores));
        }

        let RankScratch {
            survivors,
            totals,
            perm,
            contrib_pool,
        } = &mut self.scratch;
        perm.clear();
        perm.extend(0..n);
        let cmp = |a: &usize, b: &usize| {
            totals[*b]
                .partial_cmp(&totals[*a])
                // Weigher totals are finite by construction; if a custom
                // weigher ever emits NaN, treat the pair as tied and fall
                // through to the index tiebreak instead of panicking in
                // the middle of a run.
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| survivors[*a].cmp(&survivors[*b]))
        };
        let k = opts.top_k.min(n);
        if k > 0 && k < n {
            // Partial selection: put the best k in the head, then order
            // the head. Identical to the first k entries of the full sort
            // because the comparator totally orders distinct survivors.
            perm.select_nth_unstable_by(k - 1, |a, b| cmp(a, b));
            perm[..k].sort_unstable_by(|a, b| cmp(a, b));
            out.sorted_len = k;
        } else {
            perm.sort_by(|a, b| cmp(a, b));
            out.sorted_len = n;
        }

        out.order.extend(perm.iter().map(|&j| survivors[j]));
        out.scores.extend(perm.iter().map(|&j| totals[j]));
        for (_, contrib) in out.weigher_scores.iter_mut() {
            let mut mapped = contrib_pool.pop().unwrap_or_default();
            mapped.clear();
            mapped.extend(perm.iter().map(|&j| contrib[j]));
            let raw = std::mem::replace(contrib, mapped);
            contrib_pool.push(raw);
        }

        if opts.count_stats {
            self.stats.scheduled += 1;
        }
        Ok(())
    }

    /// Convenience: the single best candidate.
    pub fn select(
        &mut self,
        request: &PlacementRequest,
        hosts: &[HostView],
    ) -> Result<usize, ScheduleError> {
        Ok(self.rank(request, hosts)?.best())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{default_filters, ComputeStatusFilter};
    use crate::request::test_support::host;
    use crate::weigher::{CpuWeigher, RamWeigher};
    use sapsim_topology::{AzId, BbPurpose, Resources};

    fn req(cpu: u32, mem: u64) -> PlacementRequest {
        PlacementRequest::new(1, Resources::new(cpu, mem, 1), BbPurpose::GeneralPurpose)
    }

    fn spread_scheduler() -> FilterScheduler {
        FilterScheduler::new(
            default_filters(),
            vec![
                (1.0, Box::new(CpuWeigher) as Box<dyn Weigher>),
                (1.0, Box::new(RamWeigher)),
            ],
        )
    }

    fn pack_scheduler() -> FilterScheduler {
        FilterScheduler::new(
            default_filters(),
            vec![(-1.0, Box::new(RamWeigher) as Box<dyn Weigher>)],
        )
    }

    #[test]
    fn spreading_prefers_the_emptiest_host() {
        let hosts = vec![
            host(
                0,
                Resources::new(100, 1000, 100),
                Resources::new(80, 800, 0),
            ),
            host(
                1,
                Resources::new(100, 1000, 100),
                Resources::new(10, 100, 0),
            ),
            host(
                2,
                Resources::new(100, 1000, 100),
                Resources::new(50, 500, 0),
            ),
        ];
        let mut s = spread_scheduler();
        let ranked = s.rank(&req(2, 50), &hosts).unwrap();
        assert_eq!(ranked.order, vec![1, 2, 0]);
        assert_eq!(ranked.best(), 1);
    }

    #[test]
    fn negative_multiplier_bin_packs() {
        // The fullest host that still fits wins — the HANA strategy.
        let hosts = vec![
            host(
                0,
                Resources::new(100, 1000, 100),
                Resources::new(80, 800, 0),
            ),
            host(
                1,
                Resources::new(100, 1000, 100),
                Resources::new(10, 100, 0),
            ),
            host(
                2,
                Resources::new(100, 1000, 100),
                Resources::new(50, 500, 0),
            ),
        ];
        let mut s = pack_scheduler();
        let ranked = s.rank(&req(2, 50), &hosts).unwrap();
        assert_eq!(ranked.order, vec![0, 2, 1]);
    }

    #[test]
    fn filtered_hosts_never_appear_in_the_ranking() {
        let mut disabled = host(0, Resources::new(100, 1000, 100), Resources::ZERO);
        disabled.enabled = false;
        let hosts = vec![
            disabled,
            host(1, Resources::new(1, 10, 1), Resources::ZERO), // too small
            host(2, Resources::new(100, 1000, 100), Resources::ZERO),
        ];
        let mut s = spread_scheduler();
        let ranked = s.rank(&req(4, 100), &hosts).unwrap();
        assert_eq!(ranked.order, vec![2]);
    }

    #[test]
    fn success_path_reports_candidates_and_eliminations() {
        let mut disabled = host(0, Resources::new(100, 1000, 100), Resources::ZERO);
        disabled.enabled = false;
        let hosts = vec![
            disabled,
            host(1, Resources::new(1, 10, 1), Resources::ZERO), // too small
            host(2, Resources::new(100, 1000, 100), Resources::ZERO),
        ];
        let mut s = spread_scheduler();
        let ranked = s.rank(&req(4, 100), &hosts).unwrap();
        assert_eq!(ranked.candidates, 3);
        assert_eq!(ranked.sorted_len, ranked.order.len());
        // One host disabled, one short on CPU — in stable reason order.
        assert_eq!(
            ranked.rejections,
            vec![
                (RejectReason::HostDisabled, 1),
                (RejectReason::InsufficientCpu, 1),
            ]
        );
    }

    #[test]
    fn per_weigher_scores_are_aligned_and_sum_to_totals() {
        let hosts = vec![
            host(
                0,
                Resources::new(100, 1000, 100),
                Resources::new(80, 800, 0),
            ),
            host(
                1,
                Resources::new(100, 1000, 100),
                Resources::new(10, 100, 0),
            ),
            host(
                2,
                Resources::new(100, 1000, 100),
                Resources::new(50, 500, 0),
            ),
        ];
        let mut s = spread_scheduler();
        let ranked = s.rank(&req(2, 50), &hosts).unwrap();
        assert_eq!(ranked.weigher_scores.len(), 2);
        assert_eq!(ranked.weigher_scores[0].0, "CPUWeigher");
        assert_eq!(ranked.weigher_scores[1].0, "RAMWeigher");
        for (i, &total) in ranked.scores.iter().enumerate() {
            let sum: f64 = ranked.weigher_scores.iter().map(|(_, c)| c[i]).sum();
            assert!((sum - total).abs() < 1e-12, "column {i}: {sum} vs {total}");
        }
        // Scores are best-first, aligned with `order`.
        assert!(ranked.scores.windows(2).all(|w| w[0] >= w[1]));
        let top: Vec<_> = ranked.top_k(2).collect();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, ranked.order[0]);
        assert_eq!(top[0].1, ranked.scores[0]);
    }

    #[test]
    fn no_valid_host_reports_reasons() {
        let mut disabled = host(0, Resources::new(100, 1000, 100), Resources::ZERO);
        disabled.enabled = false;
        let hosts = vec![disabled, host(1, Resources::new(1, 10, 1), Resources::ZERO)];
        let mut s = spread_scheduler();
        let err = s.rank(&req(4, 100), &hosts).unwrap_err();
        let total: u32 = err.rejections.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 2);
        assert_eq!(err.candidates, 2);
        assert!(err.to_string().contains("no valid host"));
        assert_eq!(s.stats().failed, 1);
    }

    #[test]
    fn error_rejections_sort_by_count_then_reason() {
        // Two hosts short on CPU, one disabled → CPU first (higher count),
        // and equal counts fall back to reason declaration order.
        let mut disabled = host(0, Resources::new(100, 1000, 100), Resources::ZERO);
        disabled.enabled = false;
        let hosts = vec![
            disabled,
            host(1, Resources::new(1, 10, 1), Resources::ZERO),
            host(2, Resources::new(1, 10, 1), Resources::ZERO),
        ];
        let mut s = spread_scheduler();
        let err = s.rank(&req(4, 100), &hosts).unwrap_err();
        assert_eq!(
            err.rejections,
            vec![
                (RejectReason::InsufficientCpu, 2),
                (RejectReason::HostDisabled, 1),
            ]
        );
    }

    #[test]
    fn empty_candidate_list_fails_cleanly() {
        let mut s = spread_scheduler();
        let err = s.rank(&req(1, 1), &[]).unwrap_err();
        assert!(err.rejections.is_empty());
        assert_eq!(err.candidates, 0);
    }

    #[test]
    fn equal_hosts_tie_break_by_index() {
        let hosts = vec![
            host(0, Resources::new(10, 100, 10), Resources::ZERO),
            host(1, Resources::new(10, 100, 10), Resources::ZERO),
        ];
        let mut s = spread_scheduler();
        assert_eq!(s.rank(&req(1, 1), &hosts).unwrap().order, vec![0, 1]);
    }

    #[test]
    fn single_weigher_normalization_is_scale_invariant() {
        // Doubling all free capacities must not change the ranking.
        let mk = |scale: u32| {
            vec![
                host(
                    0,
                    Resources::new(100 * scale, 1000, 100),
                    Resources::new(30 * scale, 0, 0),
                ),
                host(
                    1,
                    Resources::new(100 * scale, 1000, 100),
                    Resources::new(70 * scale, 0, 0),
                ),
                host(
                    2,
                    Resources::new(100 * scale, 1000, 100),
                    Resources::new(50 * scale, 0, 0),
                ),
            ]
        };
        let mut s1 = FilterScheduler::new(
            default_filters(),
            vec![(1.0, Box::new(CpuWeigher) as Box<dyn Weigher>)],
        );
        let mut s2 = FilterScheduler::new(
            default_filters(),
            vec![(1.0, Box::new(CpuWeigher) as Box<dyn Weigher>)],
        );
        let r1 = s1.rank(&req(1, 1), &mk(1)).unwrap();
        let r2 = s2.rank(&req(1, 1), &mk(2)).unwrap();
        assert_eq!(r1.order, r2.order);
    }

    #[test]
    fn stats_accumulate() {
        let hosts = vec![host(0, Resources::new(10, 100, 10), Resources::ZERO)];
        let mut s = spread_scheduler();
        s.rank(&req(1, 1), &hosts).unwrap();
        s.rank(&req(1, 1), &hosts).unwrap();
        s.rank(&req(100, 1), &hosts).unwrap_err();
        assert_eq!(s.stats().requests, 3);
        assert_eq!(s.stats().scheduled, 2);
        assert_eq!(s.stats().failed, 1);
        assert_eq!(
            s.stats().rejections.get(&RejectReason::InsufficientCpu),
            Some(&1)
        );
    }

    #[test]
    fn status_only_pipeline_keeps_order_with_no_weighers() {
        let hosts = vec![
            host(0, Resources::new(1, 1, 1), Resources::ZERO),
            host(1, Resources::new(1, 1, 1), Resources::ZERO),
        ];
        let mut s = FilterScheduler::new(vec![Box::new(ComputeStatusFilter)], vec![]);
        let ranked = s.rank(&req(0, 0), &hosts).unwrap();
        assert_eq!(ranked.order, vec![0, 1]);
        assert!(ranked.weigher_scores.is_empty());
        assert_eq!(ranked.scores, vec![0.0, 0.0]);
    }

    /// A host set spanning two AZs and two purposes, with a disabled host
    /// and an undersized host sprinkled in, so indexed pruning has real
    /// work to do.
    fn mixed_fleet() -> Vec<HostView> {
        (0..12u32)
            .map(|i| {
                let mut h = host(
                    i,
                    Resources::new(100, 1000, 100),
                    Resources::new(i * 5, i as u64 * 40, 0),
                );
                h.az = AzId::from_raw(i % 2);
                if i >= 8 {
                    h.purpose = BbPurpose::Hana;
                }
                if i == 3 {
                    h.enabled = false;
                }
                if i == 5 {
                    h.capacity = Resources::new(1, 10, 1); // too small
                    h.allocated = Resources::ZERO;
                }
                h
            })
            .collect()
    }

    #[test]
    fn indexed_rank_matches_full_scan_exactly() {
        let hosts = mixed_fleet();
        let index = CandidateIndex::build(&hosts);
        for request in [
            req(4, 100),
            req(4, 100).in_az(AzId::from_raw(0)),
            req(4, 100).in_az(AzId::from_raw(1)),
            PlacementRequest::new(9, Resources::new(4, 100, 1), BbPurpose::Hana)
                .in_az(AzId::from_raw(0)),
        ] {
            let mut naive = spread_scheduler();
            let mut indexed = spread_scheduler();
            let full = naive.rank(&request, &hosts).unwrap();
            let mut out = Ranking::default();
            indexed
                .rank_into(
                    &request,
                    &hosts,
                    RankOptions {
                        index: Some(&index),
                        top_k: usize::MAX,
                        count_stats: true,
                    },
                    &mut out,
                )
                .unwrap();
            assert_eq!(out, full, "request {request:?}");
            assert_eq!(naive.stats(), indexed.stats());
        }
    }

    #[test]
    fn indexed_error_matches_full_scan_attribution() {
        // A HANA request pinned to an AZ with no HANA hosts at all: the
        // index prunes every bucket, yet the per-reason attribution must
        // match the filter chain (disabled first, then AZ, then purpose).
        let mut hosts = mixed_fleet();
        for h in hosts.iter_mut().filter(|h| h.purpose == BbPurpose::Hana) {
            h.az = AzId::from_raw(1);
        }
        let index = CandidateIndex::build(&hosts);
        let request = PlacementRequest::new(9, Resources::new(4, 100, 1), BbPurpose::Hana)
            .in_az(AzId::from_raw(0));
        let mut naive = spread_scheduler();
        let mut indexed = spread_scheduler();
        let full = naive.rank(&request, &hosts).unwrap_err();
        let mut out = Ranking::default();
        let err = indexed
            .rank_into(
                &request,
                &hosts,
                RankOptions {
                    index: Some(&index),
                    top_k: usize::MAX,
                    count_stats: true,
                },
                &mut out,
            )
            .unwrap_err();
        assert_eq!(err, full);
        assert_eq!(naive.stats(), indexed.stats());
    }

    #[test]
    fn index_stats_count_prune_effectiveness() {
        // mixed_fleet partitions into 4 buckets: GeneralPurpose × {az0,
        // az1} (4 hosts each) and Hana × {az0, az1} (2 hosts each).
        let hosts = mixed_fleet();
        let index = CandidateIndex::build(&hosts);
        let mut s = spread_scheduler();
        let mut out = Ranking::default();

        // GP request, no AZ pin: both Hana buckets pruned (4 hosts).
        s.rank_into(
            &req(4, 100),
            &hosts,
            RankOptions {
                index: Some(&index),
                top_k: usize::MAX,
                count_stats: true,
            },
            &mut out,
        )
        .unwrap();
        let st = *s.index_stats();
        assert_eq!(st.indexed_requests, 1);
        assert_eq!(st.full_scans, 0);
        assert_eq!(st.buckets_examined, 2);
        assert_eq!(st.buckets_pruned, 2);
        assert_eq!(st.hosts_pruned, 4);

        // GP request pinned to az0: only one bucket survives; the other
        // GP bucket (4 hosts) and both Hana buckets (4 hosts) are pruned.
        s.rank_into(
            &req(4, 100).in_az(AzId::from_raw(0)),
            &hosts,
            RankOptions {
                index: Some(&index),
                top_k: usize::MAX,
                count_stats: true,
            },
            &mut out,
        )
        .unwrap();
        let st = *s.index_stats();
        assert_eq!(st.indexed_requests, 2);
        assert_eq!(st.buckets_examined, 3);
        assert_eq!(st.buckets_pruned, 5);
        assert_eq!(st.hosts_pruned, 12);

        // A full scan counts as such, and an uncounted continuation pass
        // leaves every index counter untouched.
        s.rank_into(&req(4, 100), &hosts, RankOptions::exhaustive(), &mut out)
            .unwrap();
        assert_eq!(s.index_stats().full_scans, 1);
        let before = *s.index_stats();
        s.rank_into(
            &req(4, 100),
            &hosts,
            RankOptions {
                index: Some(&index),
                top_k: usize::MAX,
                count_stats: false,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(*s.index_stats(), before);

        // And none of this bookkeeping leaks into the comparable stats.
        let mut naive = spread_scheduler();
        naive.rank(&req(4, 100), &hosts).unwrap();
        let mut indexed = spread_scheduler();
        indexed
            .rank_into(
                &req(4, 100),
                &hosts,
                RankOptions {
                    index: Some(&index),
                    top_k: usize::MAX,
                    count_stats: true,
                },
                &mut out,
            )
            .unwrap();
        assert_eq!(naive.stats(), indexed.stats());
    }

    #[test]
    fn top_k_head_matches_full_sort() {
        let hosts = mixed_fleet();
        let index = CandidateIndex::build(&hosts);
        let request = req(4, 100);
        let mut naive = spread_scheduler();
        let full = naive.rank(&request, &hosts).unwrap();
        for k in 1..=full.order.len() + 1 {
            let mut s = spread_scheduler();
            let mut out = Ranking::default();
            s.rank_into(
                &request,
                &hosts,
                RankOptions {
                    index: Some(&index),
                    top_k: k,
                    count_stats: true,
                },
                &mut out,
            )
            .unwrap();
            assert_eq!(out.sorted_len, k.min(full.order.len()));
            assert_eq!(&out.order[..out.sorted_len], &full.order[..out.sorted_len]);
            assert_eq!(
                &out.scores[..out.sorted_len],
                &full.scores[..out.sorted_len]
            );
            // The tail still contains every survivor exactly once.
            let mut all = out.order.clone();
            all.sort_unstable();
            let mut expect = full.order.clone();
            expect.sort_unstable();
            assert_eq!(all, expect, "k = {k}");
        }
    }

    #[test]
    fn rank_into_reuses_buffers_across_pipelines() {
        // The same output Ranking cycled through schedulers with different
        // weigher counts: results stay correct and buffers recycle.
        let hosts = mixed_fleet();
        let mut spread = spread_scheduler();
        let mut pack = pack_scheduler();
        let mut out = Ranking::default();
        for _ in 0..3 {
            out.rank_sanity(&mut spread, &req(2, 50), &hosts, 2);
            out.rank_sanity(&mut pack, &req(2, 50), &hosts, 1);
        }
    }

    impl Ranking {
        /// Test helper: rank into self and cross-check against a fresh
        /// exhaustive pass.
        fn rank_sanity(
            &mut self,
            s: &mut FilterScheduler,
            request: &PlacementRequest,
            hosts: &[HostView],
            weighers: usize,
        ) {
            s.rank_into(request, hosts, RankOptions::exhaustive(), self)
                .unwrap();
            assert_eq!(self.weigher_scores.len(), weighers);
            assert_eq!(self.order.len(), self.scores.len());
            assert_eq!(self.sorted_len, self.order.len());
            for (_, c) in &self.weigher_scores {
                assert_eq!(c.len(), self.order.len());
            }
        }
    }

    #[test]
    fn continuation_pass_skips_stats() {
        let hosts = mixed_fleet();
        let mut s = spread_scheduler();
        let mut out = Ranking::default();
        s.rank_into(
            &req(2, 50),
            &hosts,
            RankOptions {
                index: None,
                top_k: 2,
                count_stats: true,
            },
            &mut out,
        )
        .unwrap();
        let after_first = s.stats().clone();
        // Re-rank the same request for the full order: no new counts.
        s.rank_into(
            &req(2, 50),
            &hosts,
            RankOptions::exhaustive().uncounted(),
            &mut out,
        )
        .unwrap();
        assert_eq!(s.stats(), &after_first);
        assert_eq!(out.sorted_len, out.order.len());
    }

    impl RankOptions<'static> {
        fn uncounted(mut self) -> Self {
            self.count_stats = false;
            self
        }
    }
}
