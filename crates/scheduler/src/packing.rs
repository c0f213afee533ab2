//! Classic bin-packing strategies.
//!
//! The paper frames VM-to-host assignment as bin packing (Section 3.2):
//! "Well-known strategies with low computational effort include First-Fit,
//! Best-Fit, and Worst-Fit." [`pack_all`] packs a whole item list into
//! identical bins with any of them, for the "maximize placeable VMs per
//! flavor" optimization objective and the ablation benches.

use sapsim_topology::{ResourceKind, Resources};

/// The classic heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackingStrategy {
    /// First bin (in index order) with room.
    FirstFit,
    /// Bin with the least remaining room (on the packing dimension) that
    /// still fits — tightest fit.
    BestFit,
    /// Bin with the most remaining room.
    WorstFit,
    /// First-Fit over items sorted by decreasing size (offline only).
    FirstFitDecreasing,
    /// Best-Fit over items sorted by decreasing size (offline only).
    BestFitDecreasing,
}

impl PackingStrategy {
    /// All strategies.
    pub const ALL: [PackingStrategy; 5] = [
        PackingStrategy::FirstFit,
        PackingStrategy::BestFit,
        PackingStrategy::WorstFit,
        PackingStrategy::FirstFitDecreasing,
        PackingStrategy::BestFitDecreasing,
    ];

    /// Whether the strategy pre-sorts items (offline).
    pub(crate) fn is_decreasing(self) -> bool {
        matches!(
            self,
            PackingStrategy::FirstFitDecreasing | PackingStrategy::BestFitDecreasing
        )
    }

    /// The online rule this strategy applies per item. Collapsing the
    /// decreasing variants here (rather than at each use site) means the
    /// per-item dispatch below is exhaustive — no `unreachable!()` on the
    /// hot path.
    fn online_rule(self) -> OnlineRule {
        match self {
            PackingStrategy::FirstFit | PackingStrategy::FirstFitDecreasing => OnlineRule::First,
            PackingStrategy::BestFit | PackingStrategy::BestFitDecreasing => OnlineRule::Best,
            PackingStrategy::WorstFit => OnlineRule::Worst,
        }
    }
}

/// The per-item placement rule after offline pre-sorting is factored out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OnlineRule {
    First,
    Best,
    Worst,
}

/// Result of offline packing.
#[derive(Debug, Clone, PartialEq)]
pub struct PackingOutcome {
    /// Per-item bin assignment (`None` = unplaceable even in a fresh bin).
    pub assignments: Vec<Option<usize>>,
    /// Allocated resources per opened bin.
    pub bins: Vec<Resources>,
    /// Number of items that could not be placed.
    pub unplaced: usize,
}

impl PackingOutcome {
    /// Number of bins opened.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }
}

/// Pack `items` into identical bins of `capacity` using `strategy`,
/// opening new bins on demand. Items that exceed a whole empty bin are
/// reported unplaced. `dimension` defines fullness ranking (fit is always
/// checked on all dimensions).
pub fn pack_all(
    items: &[Resources],
    capacity: Resources,
    strategy: PackingStrategy,
    dimension: ResourceKind,
) -> PackingOutcome {
    // Order of processing: original, or decreasing on the dimension.
    let mut order: Vec<usize> = (0..items.len()).collect();
    if strategy.is_decreasing() {
        order.sort_by(|&a, &b| {
            items[b]
                .get(dimension)
                .partial_cmp(&items[a].get(dimension))
                // A NaN quantity (impossible for well-formed resources)
                // degrades to "equal" and the index tiebreak keeps the
                // sort deterministic, instead of panicking mid-pack.
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }
    let rule = strategy.online_rule();

    let mut bins: Vec<Resources> = Vec::new();
    let mut assignments: Vec<Option<usize>> = vec![None; items.len()];
    let mut unplaced = 0usize;

    for &idx in &order {
        let item = &items[idx];
        if !capacity.fits(item) {
            unplaced += 1;
            continue;
        }
        let mut chosen: Option<(usize, f64)> = None;
        for (b, used) in bins.iter().enumerate() {
            let free = capacity.saturating_sub(used);
            if !free.fits(item) {
                continue;
            }
            let remaining = free.get(dimension) - item.get(dimension);
            match rule {
                OnlineRule::First => {
                    chosen = Some((b, remaining));
                    break;
                }
                OnlineRule::Best => {
                    if chosen.is_none_or(|(_, r)| remaining < r) {
                        chosen = Some((b, remaining));
                    }
                }
                OnlineRule::Worst => {
                    if chosen.is_none_or(|(_, r)| remaining > r) {
                        chosen = Some((b, remaining));
                    }
                }
            }
        }
        let b = match chosen {
            Some((b, _)) => b,
            None => {
                bins.push(Resources::ZERO);
                bins.len() - 1
            }
        };
        bins[b] += *item;
        assignments[idx] = Some(b);
    }

    PackingOutcome {
        assignments,
        bins,
        unplaced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(gib: u64) -> Resources {
        Resources::with_memory_gib(1, gib, 1)
    }

    fn cap(gib: u64) -> Resources {
        Resources::with_memory_gib(100, gib, 1000)
    }

    #[test]
    fn pack_all_first_fit_classic_example() {
        // Items 6,5,4,3,2 into bins of 10. FF walks: 6→b0; 5 doesn't fit
        // b0 (4 free) → b1; 4 fits b0 exactly → b0; 3→b1 (5+3=8);
        // 2→b1 (8+2=10). Two perfectly full bins.
        let items: Vec<Resources> = [6, 5, 4, 3, 2].iter().map(|&g| mem(g)).collect();
        let out = pack_all(
            &items,
            cap(10),
            PackingStrategy::FirstFit,
            ResourceKind::Memory,
        );
        assert_eq!(out.bin_count(), 2);
        assert_eq!(out.unplaced, 0);
        assert_eq!(
            out.assignments,
            vec![Some(0), Some(1), Some(0), Some(1), Some(1)]
        );
    }

    #[test]
    fn ffd_beats_ff_on_adversarial_input() {
        // Items 4,4,4,6,6,6 into bins of 10. FF in arrival order wastes
        // space: [4,4],[4,6],[6],[6] = 4 bins. FFD sorts to 6,6,6,4,4,4 and
        // pairs them: [6,4]×3 = 3 bins.
        let items: Vec<Resources> = [4, 4, 4, 6, 6, 6].iter().map(|&g| mem(g)).collect();
        let ff = pack_all(
            &items,
            cap(10),
            PackingStrategy::FirstFit,
            ResourceKind::Memory,
        );
        let ffd = pack_all(
            &items,
            cap(10),
            PackingStrategy::FirstFitDecreasing,
            ResourceKind::Memory,
        );
        assert_eq!(ff.bin_count(), 4);
        assert_eq!(ffd.bin_count(), 3, "perfect packing: 6+4 per bin");
        assert_eq!(ffd.unplaced, 0);
    }

    #[test]
    fn oversized_items_are_reported_unplaced() {
        let items = vec![mem(20), mem(5)];
        let out = pack_all(
            &items,
            cap(10),
            PackingStrategy::BestFit,
            ResourceKind::Memory,
        );
        assert_eq!(out.unplaced, 1);
        assert_eq!(out.assignments[0], None);
        assert_eq!(out.assignments[1], Some(0));
    }

    #[test]
    fn pack_all_respects_all_dimensions() {
        // Items fit on memory but exhaust CPU.
        let capacity = Resources::with_memory_gib(2, 100, 100);
        let items = vec![
            Resources::with_memory_gib(2, 1, 1),
            Resources::with_memory_gib(2, 1, 1),
        ];
        let out = pack_all(
            &items,
            capacity,
            PackingStrategy::FirstFit,
            ResourceKind::Memory,
        );
        assert_eq!(out.bin_count(), 2, "CPU forces a second bin");
    }

    #[test]
    fn bins_never_exceed_capacity() {
        let items: Vec<Resources> = (1..=30).map(|g| mem(g % 7 + 1)).collect();
        for strategy in PackingStrategy::ALL {
            let out = pack_all(&items, cap(10), strategy, ResourceKind::Memory);
            for bin in &out.bins {
                assert!(cap(10).fits(bin), "{strategy:?}: {bin}");
            }
            let placed = out.assignments.iter().flatten().count();
            assert_eq!(placed + out.unplaced, items.len());
        }
    }
}
