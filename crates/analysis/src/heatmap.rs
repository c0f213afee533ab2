//! Daily-average heatmaps (paper Figures 5–7 and 10–13).
//!
//! "Each row shows a day within the considered period and a column
//! corresponds to a compute host … compute hosts are sorted left to right
//! from most to least free CPU resources. White cells indicate missing
//! data" (paper Section 5). [`Heatmap`] reproduces exactly that: a
//! days × entities matrix of daily means with `None` for missing cells,
//! columns sorted by descending overall mean of the *displayed* quantity.

use sapsim_core::RunResult;
use sapsim_telemetry::{EntityRef, MetricId};
use sapsim_topology::DcId;
use std::fmt::Write as _;

/// Which quantity a heatmap displays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeatmapQuantity {
    /// `100 − metric` — for percent metrics recorded as utilization but
    /// displayed as *free* percentage (Figures 5–7, 10).
    FreePercentOf(MetricId),
    /// `100 × (1 − metric / scale)` — free fraction of an absolute metric
    /// against a per-entity capacity (network kbps against line rate,
    /// disk GB against node disk).
    FreeFractionOf(MetricId),
    /// The metric itself, unchanged.
    Raw(MetricId),
}

impl HeatmapQuantity {
    fn metric(&self) -> MetricId {
        match *self {
            HeatmapQuantity::FreePercentOf(m)
            | HeatmapQuantity::FreeFractionOf(m)
            | HeatmapQuantity::Raw(m) => m,
        }
    }
}

/// A days × entities matrix of daily means.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Title for rendering.
    pub(crate) title: String,
    /// Entities, in display (sorted) order.
    pub(crate) entities: Vec<EntityRef>,
    /// `cells[day][col]`; `None` = missing data (white cell).
    pub(crate) cells: Vec<Vec<Option<f64>>>,
}

/// Scope of entities included in a heatmap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeatmapScope {
    /// Every node of one data center (Figures 5, 10–13).
    NodesOfDc(DcId),
    /// One column per building block of one data center, averaging the
    /// block's node values (Figure 6 shows building blocks of an AZ; with
    /// one DC per AZ in the studied region these coincide).
    BbsOfDc(DcId),
    /// The nodes of a single building block (Figure 7).
    NodesOfBb(sapsim_topology::BbId),
    /// Every node in the region.
    AllNodes,
}

/// Build a heatmap from a run.
///
/// `capacity_of` supplies the per-entity capacity for
/// [`HeatmapQuantity::FreeFractionOf`]; pass `|_| 1.0` otherwise.
pub fn build_heatmap(
    run: &RunResult,
    scope: HeatmapScope,
    quantity: HeatmapQuantity,
    title: impl Into<String>,
    capacity_of: impl Fn(EntityRef) -> f64,
) -> Heatmap {
    let topo = run.cloud.topology();
    let days = run.store.rollup_days();
    let metric = quantity.metric();

    // Column entities and, for BB scope, their member nodes.
    let columns: Vec<(EntityRef, Vec<EntityRef>)> = match scope {
        HeatmapScope::NodesOfDc(dc) => topo
            .nodes_in_dc(dc)
            .map(|n| {
                let e = EntityRef::Node(n.index() as u32);
                (e, vec![e])
            })
            .collect(),
        HeatmapScope::AllNodes => topo
            .nodes()
            .iter()
            .map(|n| {
                let e = EntityRef::Node(n.id.index() as u32);
                (e, vec![e])
            })
            .collect(),
        HeatmapScope::NodesOfBb(bb) => topo
            .bb(bb)
            .nodes
            .iter()
            .map(|&n| {
                let e = EntityRef::Node(n.index() as u32);
                (e, vec![e])
            })
            .collect(),
        HeatmapScope::BbsOfDc(dc) => topo
            .dc(dc)
            .bbs
            .iter()
            .map(|&bb| {
                (
                    EntityRef::Bb(bb.index() as u32),
                    topo.bb(bb)
                        .nodes
                        .iter()
                        .map(|&n| EntityRef::Node(n.index() as u32))
                        .collect(),
                )
            })
            .collect(),
    };

    // Raw cell values: mean over member nodes of the daily means.
    let mut cells: Vec<Vec<Option<f64>>> = vec![vec![None; columns.len()]; days];
    #[allow(clippy::needless_range_loop)]
    for (col, (entity, members)) in columns.iter().enumerate() {
        for day in 0..days {
            let mut sum = 0.0;
            let mut n = 0usize;
            for member in members {
                if let Some(r) = run.store.rollup(metric, *member) {
                    if let Some(m) = r.day(day).and_then(|c| c.mean()) {
                        sum += m;
                        n += 1;
                    }
                }
            }
            if n > 0 {
                let raw = sum / n as f64;
                let shown = match quantity {
                    HeatmapQuantity::Raw(_) => raw,
                    HeatmapQuantity::FreePercentOf(_) => 100.0 - raw,
                    HeatmapQuantity::FreeFractionOf(_) => {
                        let cap = capacity_of(*entity);
                        if cap > 0.0 {
                            (1.0 - raw / cap) * 100.0
                        } else {
                            0.0
                        }
                    }
                };
                cells[day][col] = Some(shown);
            }
        }
    }

    // Sort columns by descending overall mean (most free on the left).
    let mut order: Vec<usize> = (0..columns.len()).collect();
    let col_mean = |c: usize| -> f64 {
        let (mut s, mut n) = (0.0, 0);
        #[allow(clippy::needless_range_loop)]
        for day in 0..days {
            if let Some(v) = cells[day][c] {
                s += v;
                n += 1;
            }
        }
        if n == 0 {
            f64::NEG_INFINITY
        } else {
            s / n as f64
        }
    };
    order.sort_by(|&a, &b| {
        col_mean(b)
            .partial_cmp(&col_mean(a))
            .expect("means are finite")
            .then(a.cmp(&b))
    });

    Heatmap {
        title: title.into(),
        entities: order.iter().map(|&c| columns[c].0).collect(),
        cells: (0..days)
            .map(|day| order.iter().map(|&c| cells[day][c]).collect())
            .collect(),
    }
}

impl Heatmap {
    /// Number of day rows.
    pub fn days(&self) -> usize {
        self.cells.len()
    }

    /// Number of entity columns.
    pub fn width(&self) -> usize {
        self.entities.len()
    }

    /// Cell value.
    pub(crate) fn get(&self, day: usize, col: usize) -> Option<f64> {
        self.cells.get(day)?.get(col).copied().flatten()
    }

    /// Overall mean per column, ignoring missing cells.
    pub fn column_means(&self) -> Vec<Option<f64>> {
        (0..self.width())
            .map(|c| {
                let vals: Vec<f64> = (0..self.days()).filter_map(|d| self.get(d, c)).collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            })
            .collect()
    }

    /// ASCII rendering: one row per day, one character per entity, shaded
    /// from `' '` (100 = all free) to `'█'` (0 = none free). Missing cells
    /// render as `'.'`.
    pub(crate) fn render_ascii(&self) -> String {
        const SHADES: [char; 6] = [' ', '░', '▒', '▓', '█', '█'];
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(
            out,
            "# {} days x {} columns; ' '=free, '█'=fully used, '.'=no data",
            self.days(),
            self.width()
        );
        for (day, row) in self.cells.iter().enumerate() {
            let _ = write!(out, "d{day:02} |");
            for v in row {
                let ch = match v {
                    None => '.',
                    Some(free) => {
                        let used = (100.0 - free).clamp(0.0, 100.0);
                        SHADES[(used / 20.0).floor() as usize]
                    }
                };
                out.push(ch);
            }
            out.push('\n');
        }
        out
    }

    /// CSV rendering: `day,entity,value` rows (empty value = missing).
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::from("day,entity,value\n");
        for (day, row) in self.cells.iter().enumerate() {
            for (col, v) in row.iter().enumerate() {
                match v {
                    Some(x) => {
                        let _ = writeln!(out, "{day},{},{x:.3}", self.entities[col]);
                    }
                    None => {
                        let _ = writeln!(out, "{day},{},", self.entities[col]);
                    }
                }
            }
        }
        out
    }

    /// Spread statistics of the column means `(min, max)` — used by tests
    /// to assert the paper's qualitative imbalance ("some nodes <20 % free
    /// while others >90 % on the same day").
    pub(crate) fn mean_spread(&self) -> Option<(f64, f64)> {
        let means: Vec<f64> = self.column_means().into_iter().flatten().collect();
        if means.is_empty() {
            return None;
        }
        let min = means.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = means.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Some((min, max))
    }
}

/// Standard deviation (percentage points) of the per-node mean CPU
/// utilization over the window: the imbalance behind Figures 5–7, as
/// one number per run. Nodes without samples are left out.
pub fn cpu_imbalance(run: &RunResult) -> f64 {
    let utils: Vec<f64> = run
        .cloud
        .topology()
        .nodes()
        .iter()
        .filter_map(|node| {
            let e = EntityRef::Node(node.id.index() as u32);
            run.store
                .rollup(MetricId::HostCpuUtilPct, e)?
                .overall_mean()
        })
        .collect();
    let n = utils.len().max(1) as f64;
    let mean = utils.iter().sum::<f64>() / n;
    let var = utils.iter().map(|u| (u - mean) * (u - mean)).sum::<f64>() / n;
    var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sapsim_core::{SimConfig, SimDriver};

    fn run() -> RunResult {
        let mut cfg = SimConfig::smoke_test();
        cfg.seed = 11;
        SimDriver::new(cfg).unwrap().run()
    }

    #[test]
    fn fig5_style_heatmap_has_expected_shape() {
        let r = run();
        let dc = r.cloud.topology().dcs()[0].id;
        let hm = build_heatmap(
            &r,
            HeatmapScope::NodesOfDc(dc),
            HeatmapQuantity::FreePercentOf(MetricId::HostCpuUtilPct),
            "fig5",
            |_| 1.0,
        );
        assert_eq!(hm.days(), 3);
        assert_eq!(hm.width(), r.cloud.topology().dc_node_count(dc));
        // Columns sorted most→least free.
        let means: Vec<f64> = hm.column_means().into_iter().flatten().collect();
        for w in means.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "columns must be sorted descending");
        }
        // Free CPU percentages are percentages.
        for d in 0..hm.days() {
            for c in 0..hm.width() {
                if let Some(v) = hm.get(d, c) {
                    assert!((-1.0..=101.0).contains(&v), "v={v}");
                }
            }
        }
    }

    #[test]
    fn bb_scope_aggregates_members() {
        let r = run();
        let dc = r.cloud.topology().dcs()[0].id;
        let hm = build_heatmap(
            &r,
            HeatmapScope::BbsOfDc(dc),
            HeatmapQuantity::FreePercentOf(MetricId::HostCpuUtilPct),
            "fig6",
            |_| 1.0,
        );
        assert_eq!(hm.width(), r.cloud.topology().dc(dc).bbs.len());
        assert!(hm
            .entities
            .iter()
            .all(|e| matches!(e, EntityRef::Bb(_))));
    }

    #[test]
    fn network_heatmap_uses_capacity() {
        let r = run();
        let dc = r.cloud.topology().dcs()[0].id;
        let line_rate_kbps = 200_000_000.0;
        let hm = build_heatmap(
            &r,
            HeatmapScope::NodesOfDc(dc),
            HeatmapQuantity::FreeFractionOf(MetricId::HostNetTxKbps),
            "fig11",
            |_| line_rate_kbps,
        );
        // The paper: network load far below line rate → nearly all free.
        let (min, _) = hm.mean_spread().unwrap();
        assert!(min > 90.0, "min free TX = {min:.1}%");
    }

    #[test]
    fn ascii_render_shapes_match() {
        let r = run();
        let dc = r.cloud.topology().dcs()[0].id;
        let hm = build_heatmap(
            &r,
            HeatmapScope::NodesOfDc(dc),
            HeatmapQuantity::FreePercentOf(MetricId::HostMemUsagePct),
            "fig10",
            |_| 1.0,
        );
        let text = hm.render_ascii();
        let data_rows: Vec<&str> = text.lines().filter(|l| l.starts_with('d')).collect();
        assert_eq!(data_rows.len(), hm.days());
        assert!(data_rows[0].len() >= hm.width());
        let csv = hm.to_csv();
        assert_eq!(csv.lines().count(), 1 + hm.days() * hm.width());
    }

    #[test]
    fn single_bb_scope_is_narrow() {
        let r = run();
        let bb = r.cloud.topology().bbs()[0].id;
        let hm = build_heatmap(
            &r,
            HeatmapScope::NodesOfBb(bb),
            HeatmapQuantity::FreePercentOf(MetricId::HostCpuUtilPct),
            "fig7",
            |_| 1.0,
        );
        assert_eq!(hm.width(), r.cloud.topology().bb(bb).nodes.len());
    }
}
