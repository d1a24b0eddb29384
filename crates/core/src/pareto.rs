//! Pareto-frontier design-space exploration: performance vs silicon,
//! the decision the paper makes implicitly when it trades PE columns
//! for buffer capacity (Fig. 21) — made explicit over a larger grid.

use serde::{Deserialize, Serialize};
use sfq_cells::CellLibrary;
use sfq_estimator::{estimate, NpuConfig};
use sfq_npu_sim::SimConfig;
use sfq_par::par_map;

use crate::evaluator::{geomean_tmacs_over, paper_workloads};

const MB: u64 = 1024 * 1024;

/// One evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Candidate name (geometry summary).
    pub name: String,
    /// PE-array width.
    pub width: u32,
    /// Buffer division degree.
    pub division: u32,
    /// Registers per PE.
    pub regs: u32,
    /// Total activation buffering, MB.
    pub buffer_mb: u64,
    /// Geomean throughput over the six workloads, TMAC/s.
    pub tmacs: f64,
    /// Area scaled to 28 nm, mm².
    pub area_mm2: f64,
}

impl Candidate {
    /// Whether `self` dominates `other` (at least as good on both
    /// axes, strictly better on one).
    pub fn dominates(&self, other: &Candidate) -> bool {
        let ge = self.tmacs >= other.tmacs && self.area_mm2 <= other.area_mm2;
        let gt = self.tmacs > other.tmacs || self.area_mm2 < other.area_mm2;
        ge && gt
    }
}

/// Evaluate a grid of candidates around the paper's design region.
/// Candidates are independent, so the grid fans out across threads
/// via [`sfq_par::par_map`].
pub fn evaluate_grid() -> Vec<Candidate> {
    let _grid = sfq_obs::region("pareto.grid");
    let points = grid_points();

    // Shared across candidates: the cell library and workload zoo are
    // immutable inputs, built once instead of once per grid point.
    let lib = CellLibrary::aist_10um();
    let nets = paper_workloads();

    par_map(&points, |&(width, buffer_mb, regs)| {
        candidate(&lib, &nets, width, buffer_mb, regs)
    })
}

fn grid_points() -> Vec<(u32, u64, u32)> {
    let mut points = Vec::new();
    for &width in &[32u32, 64, 128, 256] {
        for &buffer_mb in &[24u64, 36, 48] {
            for &regs in &[1u32, 8] {
                points.push((width, buffer_mb, regs));
            }
        }
    }
    points
}

fn candidate(
    lib: &CellLibrary,
    nets: &[dnn_models::Network],
    width: u32,
    buffer_mb: u64,
    regs: u32,
) -> Candidate {
    let division = 64 * (256 / width).max(1);
    let npu = NpuConfig {
        name: format!("w{width}/b{buffer_mb}/r{regs}"),
        array_width: width,
        regs_per_pe: regs,
        division,
        ifmap_buf_bytes: buffer_mb * MB / 2,
        output_buf_bytes: buffer_mb * MB / 2,
        psum_buf_bytes: 0,
        integrated_output: true,
        ..NpuConfig::paper_baseline()
    };
    let est = estimate(&npu, lib);
    let cfg = SimConfig::from_npu(npu.clone(), lib);
    let tmacs = geomean_tmacs_over(&cfg, nets, false);
    Candidate {
        name: npu.name,
        width,
        division,
        regs,
        buffer_mb,
        tmacs,
        area_mm2: est.area_mm2_28nm,
    }
}

/// Extract the Pareto-optimal subset (max throughput, min area),
/// sorted by area.
pub fn pareto_front(candidates: &[Candidate]) -> Vec<Candidate> {
    let mut front: Vec<Candidate> = candidates
        .iter()
        .filter(|c| !candidates.iter().any(|o| o.dominates(c)))
        .cloned()
        .collect();
    front.sort_by(|a, b| a.area_mm2.total_cmp(&b.area_mm2));
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict() {
        let a = Candidate {
            name: "a".into(),
            width: 64,
            division: 256,
            regs: 8,
            buffer_mb: 48,
            tmacs: 100.0,
            area_mm2: 200.0,
        };
        let worse = Candidate {
            name: "b".into(),
            tmacs: 90.0,
            area_mm2: 220.0,
            ..a.clone()
        };
        let equal = a.clone();
        assert!(a.dominates(&worse));
        assert!(!a.dominates(&equal));
        assert!(!worse.dominates(&a));
    }

    #[test]
    fn front_is_nonempty_and_monotone() {
        let grid = evaluate_grid();
        assert_eq!(grid.len(), 24);
        let front = pareto_front(&grid);
        assert!(!front.is_empty() && front.len() <= grid.len());
        // Along the front, more area must buy more throughput.
        for pair in front.windows(2) {
            assert!(pair[1].area_mm2 >= pair[0].area_mm2);
            assert!(pair[1].tmacs >= pair[0].tmacs, "front not monotone");
        }
        // No front member is dominated by any grid member.
        for f in &front {
            assert!(!grid.iter().any(|g| g.dominates(f)), "{} dominated", f.name);
        }
    }

    #[test]
    fn paper_region_is_on_or_near_the_front() {
        // Some 64-wide, 8-register candidate must make the front —
        // the paper's chosen region is Pareto-sensible in our model.
        let front = pareto_front(&evaluate_grid());
        assert!(
            front.iter().any(|c| c.width == 64 && c.regs == 8),
            "front: {:?}",
            front.iter().map(|c| c.name.clone()).collect::<Vec<_>>()
        );
    }
}
