//! Deterministic fan-out of independent items over scoped threads.
//!
//! One helper, [`run_each`]: the shard pool of the spatially-partitioned
//! event loop in `sapsim-core`. Threads may change *where* an item is
//! computed, never *what* is computed, so **results are bit-identical at
//! any worker count**, including the sequential fallback. The
//! implementation uses `std::thread::scope` only.

/// Run `f(index, item)` once for every element of `items`, fanning
/// contiguous chunks out over up to `workers` scoped threads.
///
/// This is the shard-execution primitive of the spatially-partitioned
/// event loop in `sapsim-core`: each item is a self-contained sub-
/// simulation, each worker owns a disjoint contiguous chunk of them, and
/// there is no shared mutable state and no reduction inside the fan-out —
/// merging happens afterwards, in index order, on the caller's thread.
/// Chunk boundaries depend only on `(items.len(), workers)`, and `f`
/// receives the *global* index of each item, so which worker runs a shard
/// can never leak into results.
///
/// Workers are requested explicitly per run (`SimConfig::shard_threads`)
/// and default to off; `workers <= 1` (or a single item) degenerates to a
/// plain sequential loop on the calling thread.
///
/// ```
/// use sapsim_sim::par::run_each;
///
/// let mut totals = vec![0u64; 5];
/// run_each(&mut totals, 3, |i, t| *t = (i as u64 + 1) * 10);
/// assert_eq!(totals, vec![10, 20, 30, 40, 50]);
/// ```
pub fn run_each<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let mut rest = items;
        let mut offset = 0usize;
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let at = offset;
            let f = &f;
            scope.spawn(move || {
                for (i, item) in head.iter_mut().enumerate() {
                    f(at + i, item);
                }
            });
            offset += take;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_each_visits_every_item_once_at_any_worker_count() {
        let baseline: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(31)).collect();
        for workers in [0usize, 1, 2, 3, 8, 97, 500] {
            let mut items = vec![0u64; 97];
            run_each(&mut items, workers, |i, item| {
                *item = (i as u64).wrapping_mul(31);
            });
            assert_eq!(items, baseline, "workers={workers}");
        }
        let mut empty: Vec<u64> = Vec::new();
        run_each(&mut empty, 8, |_, _| panic!("no items to visit"));
    }
}
