//! Design-space exploration sweeps (the paper's §V-B, Figs. 20–22).

use dnn_models::Network;
use serde::{Deserialize, Serialize};
use sfq_cells::CellLibrary;
use sfq_estimator::{estimate, NpuConfig};
use sfq_npu_sim::SimConfig;
use sfq_par::{par_map_catch, par_map_catch_keyed};

use crate::evaluator::{geomean, geomean_tmacs_over, paper_workloads};
use crate::resilient::{run_resilient, sweep_identity, ResilientOpts, SweepError, SweepReport};
use crate::results::memoized;

const MB: u64 = 1024 * 1024;

/// Collect a crash-isolated sweep: a panicking point is dropped (and
/// counted under `explore.points_lost`) instead of taking the whole
/// sweep down. Returns the surviving points and whether the sweep is
/// complete (no point lost), which decides whether the result memo
/// may keep it. Deterministic: which points survive depends only on
/// the inputs, never on the schedule.
fn collect_sweep<P>(
    sweep: &'static str,
    results: Vec<Result<P, sfq_par::TaskPanic>>,
) -> (Vec<P>, bool) {
    let mut out = Vec::with_capacity(results.len());
    let mut complete = true;
    for r in results {
        match r {
            Ok(p) => out.push(p),
            Err(e) => {
                complete = false;
                sfq_obs::inc("explore.points_lost");
                sfq_obs::log(sfq_obs::Level::Warn, || {
                    format!("{sweep}: sweep point lost: {e}")
                });
            }
        }
    }
    (out, complete)
}

/// Geomean effective TMAC/s of a config across the six workloads.
///
/// The workload list is passed in (loaded once per sweep) rather than
/// re-instantiated per sweep point; see
/// [`crate::evaluator::geomean_tmacs_over`].
fn geomean_tmacs(cfg: &SimConfig, nets: &[Network], single_batch: bool) -> f64 {
    geomean_tmacs_over(cfg, nets, single_batch)
}

// ---------------------------------------------------------------- Fig 20

/// One x-position of Fig. 20.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferSweepPoint {
    /// X-axis label (Baseline, +Integration, +Division N…).
    pub label: String,
    /// Division degree of the point.
    pub division: u32,
    /// Single-batch performance normalized to Baseline.
    pub single_batch: f64,
    /// Max-batch performance normalized to Baseline.
    pub max_batch: f64,
    /// Chip area normalized to Baseline.
    pub area: f64,
}

/// The division degrees swept by Fig. 20 (plus the implicit
/// division-1 Baseline bar).
const FIG20_DIVISIONS: [u32; 7] = [2, 4, 16, 64, 256, 1024, 4096];

/// Shared per-sweep context: immutable inputs plus the Baseline
/// normalizers, built once and reused by every point (and by both
/// the plain and the resilient sweep drivers).
struct Fig20Ctx {
    lib: CellLibrary,
    nets: Vec<Network>,
    base_single: f64,
    base_max: f64,
    base_area: f64,
}

impl Fig20Ctx {
    fn new() -> Self {
        let lib = CellLibrary::aist_10um();
        let nets = paper_workloads();
        let baseline_cfg = SimConfig::paper_baseline();
        let base_single = geomean_tmacs(&baseline_cfg, &nets, true);
        let base_max = geomean_tmacs(&baseline_cfg, &nets, false);
        let base_area = estimate(&baseline_cfg.npu, &lib).area_mm2_native;
        Fig20Ctx {
            lib,
            nets,
            base_single,
            base_max,
            base_area,
        }
    }

    fn baseline_point() -> BufferSweepPoint {
        BufferSweepPoint {
            label: "Baseline".into(),
            division: 1,
            single_batch: 1.0,
            max_batch: 1.0,
            area: 1.0,
        }
    }

    fn point(&self, division: u32) -> BufferSweepPoint {
        let _point = sfq_obs::span("explore.fig20.point_ms");
        let _ppoint = if sfq_obs::prof::detail_enabled() {
            sfq_obs::prof::frame(&format!("fig20 d={division}"))
        } else {
            sfq_obs::prof::frame("fig20.point")
        };
        let npu = NpuConfig {
            name: format!("+Division {division}"),
            division,
            ..NpuConfig::paper_buffer_opt()
        };
        let label = if division == 2 {
            "+Integration (Div. 2)".to_owned()
        } else {
            format!("+Division {division}")
        };
        let cfg = SimConfig::from_npu(npu, &self.lib);
        BufferSweepPoint {
            label,
            division,
            single_batch: geomean_tmacs(&cfg, &self.nets, true) / self.base_single,
            max_batch: geomean_tmacs(&cfg, &self.nets, false) / self.base_max,
            area: estimate(&cfg.npu, &self.lib).area_mm2_native / self.base_area,
        }
    }
}

/// The buffer-optimization sweep (Fig. 20): buffer integration, then
/// increasing division degrees, in performance (single and max batch)
/// and area, all normalized to Baseline. Computed once per process
/// (unless a point is lost).
pub fn fig20_buffer_sweep() -> Vec<BufferSweepPoint> {
    memoized("fig20_buffer_sweep", || {
        let _sweep = sfq_obs::span("explore.fig20.ms");
        let _prof = sfq_obs::prof::frame("explore.fig20");
        let _trace = sfq_obs::trace::span("sweep", "fig20 buffer sweep");
        sfq_obs::log(sfq_obs::Level::Info, || {
            "fig20: buffer-division sweep starting".into()
        });
        let ctx = Fig20Ctx::new();
        let swept = par_map_catch(&FIG20_DIVISIONS, |&division| ctx.point(division));
        let (swept, complete) = collect_sweep("fig20", swept);
        let mut points = vec![Fig20Ctx::baseline_point()];
        points.extend(swept);
        (points, complete)
    })
}

/// [`fig20_buffer_sweep`] under execution guards: deadline/cancel
/// budget, retry-with-backoff, per-point terminal labels and
/// checkpoint/resume, via [`crate::resilient::run_resilient`]. Point
/// 0 is the Baseline bar; points 1..=7 are the division degrees. The
/// fallback rung re-evaluates the point inline (the evaluation is
/// deterministic closed-form work, so an inline retry outside the
/// parallel dispatch is the reliable bottom of the ladder).
///
/// # Errors
///
/// Checkpoint-layer trouble only; see [`SweepError`].
pub fn fig20_buffer_sweep_resilient(
    opts: &ResilientOpts,
) -> Result<SweepReport<BufferSweepPoint>, SweepError> {
    let _sweep = sfq_obs::span("explore.fig20.ms");
    let _trace = sfq_obs::trace::span("sweep", "fig20 buffer sweep (resilient)");
    let ctx = Fig20Ctx::new();
    let eval = |i: usize| {
        if i == 0 {
            Fig20Ctx::baseline_point()
        } else {
            ctx.point(FIG20_DIVISIONS[i - 1])
        }
    };
    let mut ident: Vec<u64> = vec![FIG20_DIVISIONS.len() as u64 + 1];
    ident.extend(FIG20_DIVISIONS.iter().map(|&d| u64::from(d)));
    let eval = &eval;
    run_resilient(
        "fig20",
        sweep_identity(&ident),
        FIG20_DIVISIONS.len() + 1,
        opts,
        eval,
        Some(eval),
    )
}

// ---------------------------------------------------------------- Fig 21

/// One x-position of Fig. 21.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceSweepPoint {
    /// PE-array width.
    pub width: u32,
    /// Total on-chip buffer with the area reinvested, MB.
    pub buffer_mb: u32,
    /// Max-batch performance with the 24 MB buffers kept, normalized
    /// to Baseline.
    pub max_batch_fixed_buffer: f64,
    /// Max-batch performance with the freed area reinvested in
    /// buffers, normalized to Baseline.
    pub max_batch_added_buffer: f64,
    /// Geomean computational intensity (batch-weighted MAC/byte)
    /// normalized to Baseline, with the added buffer.
    pub intensity: f64,
}

/// The paper's width → total-buffer schedule (Fig. 21 x-axis).
const FIG21_SCHEDULE: [(u32, u32); 5] = [(256, 24), (128, 38), (64, 46), (32, 50), (16, 51)];

struct Fig21Ctx {
    lib: CellLibrary,
    nets: Vec<Network>,
    base_max: f64,
    base_intensity: f64,
}

impl Fig21Ctx {
    fn new() -> Self {
        let lib = CellLibrary::aist_10um();
        let nets = paper_workloads();
        let base_max = geomean_tmacs(&SimConfig::paper_baseline(), &nets, false);
        let base_intensity = geomean(
            &nets
                .iter()
                .map(|n| dnn_models::intensity::network_intensity(n, 1))
                .collect::<Vec<_>>(),
        );
        Fig21Ctx {
            lib,
            nets,
            base_max,
            base_intensity,
        }
    }

    fn point(&self, width: u32, buffer_mb: u32) -> ResourceSweepPoint {
        let _point = sfq_obs::span("explore.fig21.point_ms");
        let _ppoint = if sfq_obs::prof::detail_enabled() {
            sfq_obs::prof::frame(&format!("fig21 w={width} b={buffer_mb}MB"))
        } else {
            sfq_obs::prof::frame("fig21.point")
        };
        let make = |total_mb: u64| {
            let npu = NpuConfig {
                name: format!("width {width}"),
                array_width: width,
                ifmap_buf_bytes: total_mb * MB / 2,
                output_buf_bytes: total_mb * MB / 2,
                psum_buf_bytes: 0,
                integrated_output: true,
                // Keep chunk lengths constant as width shrinks
                // (the paper scales 64 → 256 divisions).
                division: 64 * (256 / width).max(1),
                ..NpuConfig::paper_baseline()
            };
            SimConfig::from_npu(npu, &self.lib)
        };
        let fixed = make(24);
        let added = make(u64::from(buffer_mb));

        let intensity = geomean(
            &self
                .nets
                .iter()
                .map(|n| {
                    let b = sfq_npu_sim::structural_max_batch(&added.npu, n);
                    dnn_models::intensity::network_intensity(n, b)
                })
                .collect::<Vec<_>>(),
        ) / self.base_intensity;

        ResourceSweepPoint {
            width,
            buffer_mb,
            max_batch_fixed_buffer: geomean_tmacs(&fixed, &self.nets, false) / self.base_max,
            max_batch_added_buffer: geomean_tmacs(&added, &self.nets, false) / self.base_max,
            intensity,
        }
    }
}

/// The resource-balancing sweep (Fig. 21): shrink the PE-array width,
/// reinvest the area into buffer capacity (the paper's capacity
/// schedule), and measure max-batch performance and intensity.
/// Computed once per process (unless a point is lost).
pub fn fig21_resource_sweep() -> Vec<ResourceSweepPoint> {
    memoized("fig21_resource_sweep", || {
        let _sweep = sfq_obs::span("explore.fig21.ms");
        let _prof = sfq_obs::prof::frame("explore.fig21");
        let _trace = sfq_obs::trace::span("sweep", "fig21 resource sweep");
        sfq_obs::log(sfq_obs::Level::Info, || {
            "fig21: resource-balancing sweep starting".into()
        });
        let ctx = Fig21Ctx::new();
        let swept = par_map_catch(&FIG21_SCHEDULE, |&(width, buffer_mb)| {
            ctx.point(width, buffer_mb)
        });
        collect_sweep("fig21", swept)
    })
}

/// [`fig21_resource_sweep`] under execution guards (see
/// [`fig20_buffer_sweep_resilient`] for the ladder).
///
/// # Errors
///
/// Checkpoint-layer trouble only; see [`SweepError`].
pub fn fig21_resource_sweep_resilient(
    opts: &ResilientOpts,
) -> Result<SweepReport<ResourceSweepPoint>, SweepError> {
    let _sweep = sfq_obs::span("explore.fig21.ms");
    let _trace = sfq_obs::trace::span("sweep", "fig21 resource sweep (resilient)");
    let ctx = Fig21Ctx::new();
    let eval = |i: usize| {
        let (width, buffer_mb) = FIG21_SCHEDULE[i];
        ctx.point(width, buffer_mb)
    };
    let ident: Vec<u64> = FIG21_SCHEDULE
        .iter()
        .map(|&(w, b)| (u64::from(w) << 32) | u64::from(b))
        .collect();
    let eval = &eval;
    run_resilient(
        "fig21",
        sweep_identity(&ident),
        FIG21_SCHEDULE.len(),
        opts,
        eval,
        Some(eval),
    )
}

// ---------------------------------------------------------------- Fig 22

/// One bar of Fig. 22.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegisterSweepPoint {
    /// PE-array width (the paper compares 64 and 128).
    pub width: u32,
    /// Weight registers per PE.
    pub regs: u32,
    /// Max-batch performance normalized to Baseline.
    pub performance: f64,
}

fn fig22_grid() -> Vec<(u32, u64, u32)> {
    let mut grid = Vec::new();
    for (width, buffer_mb) in [(64u32, 46u64), (128, 38)] {
        for regs in [1u32, 2, 4, 8, 16, 32] {
            grid.push((width, buffer_mb, regs));
        }
    }
    grid
}

struct Fig22Ctx {
    lib: CellLibrary,
    nets: Vec<Network>,
    base_max: f64,
}

impl Fig22Ctx {
    fn new() -> Self {
        let lib = CellLibrary::aist_10um();
        let nets = paper_workloads();
        let base_max = geomean_tmacs(&SimConfig::paper_baseline(), &nets, false);
        Fig22Ctx {
            lib,
            nets,
            base_max,
        }
    }

    fn point(&self, width: u32, buffer_mb: u64, regs: u32) -> RegisterSweepPoint {
        let _point = sfq_obs::span("explore.fig22.point_ms");
        let _ppoint = if sfq_obs::prof::detail_enabled() {
            sfq_obs::prof::frame(&format!("fig22 w={width} r={regs}"))
        } else {
            sfq_obs::prof::frame("fig22.point")
        };
        let npu = NpuConfig {
            name: format!("w{width} r{regs}"),
            array_width: width,
            regs_per_pe: regs,
            ifmap_buf_bytes: buffer_mb * MB / 2,
            output_buf_bytes: buffer_mb * MB / 2,
            psum_buf_bytes: 0,
            integrated_output: true,
            division: 64 * (256 / width).max(1),
            weight_buf_bytes: 16 * 1024 * u64::from(regs),
            ..NpuConfig::paper_baseline()
        };
        let cfg = SimConfig::from_npu(npu, &self.lib);
        RegisterSweepPoint {
            width,
            regs,
            performance: geomean_tmacs(&cfg, &self.nets, false) / self.base_max,
        }
    }
}

/// The per-PE register sweep (Fig. 22) at widths 64 and 128 with the
/// Fig. 21 "added buffer" capacities. Computed once per process
/// (unless a point is lost).
pub fn fig22_register_sweep() -> Vec<RegisterSweepPoint> {
    memoized("fig22_register_sweep", || {
        let _sweep = sfq_obs::span("explore.fig22.ms");
        let _prof = sfq_obs::prof::frame("explore.fig22");
        let _trace = sfq_obs::trace::span("sweep", "fig22 register sweep");
        sfq_obs::log(sfq_obs::Level::Info, || {
            "fig22: per-PE register sweep starting".into()
        });
        let ctx = Fig22Ctx::new();
        let grid = fig22_grid();
        // Keyed by array width: every point of one width shares the same
        // characterization and estimate-cache working set, so steering a
        // width's points to one worker keeps those cache lines (and the
        // memo scans) warm instead of bouncing them between threads.
        let swept = par_map_catch_keyed(
            &grid,
            |&(width, _, _)| u64::from(width),
            |&(width, buffer_mb, regs)| ctx.point(width, buffer_mb, regs),
        );
        collect_sweep("fig22", swept)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig20_division_improves_then_area_explodes() {
        let pts = fig20_buffer_sweep();
        assert_eq!(pts.len(), 8);
        // Single-batch performance grows with division and saturates.
        let d64 = pts.iter().find(|p| p.division == 64).unwrap();
        assert!(
            d64.single_batch > 3.0,
            "d=64 single {:.2}",
            d64.single_batch
        );
        assert!(d64.max_batch > 10.0, "d=64 max {:.2}", d64.max_batch);
        // Area at 4096 clearly above baseline; at 64 modest.
        let d4096 = pts.iter().find(|p| p.division == 4096).unwrap();
        assert!(d4096.area > d64.area);
        assert!(d64.area < 1.25, "d=64 area {:.2}", d64.area);
    }

    #[test]
    fn fig20_monotone_single_batch_until_saturation() {
        let pts = fig20_buffer_sweep();
        for pair in pts.windows(2) {
            assert!(
                pair[1].single_batch >= pair[0].single_batch * 0.98,
                "{} -> {}: {:.2} -> {:.2}",
                pair[0].label,
                pair[1].label,
                pair[0].single_batch,
                pair[1].single_batch
            );
        }
    }

    #[test]
    fn fig21_narrower_width_raises_intensity() {
        let pts = fig21_resource_sweep();
        assert_eq!(pts.len(), 5);
        // Intensity grows monotonically as the array narrows.
        for pair in pts.windows(2) {
            assert!(
                pair[1].intensity >= pair[0].intensity * 0.95,
                "width {} -> {}",
                pair[0].width,
                pair[1].width
            );
        }
        // Added buffer always at least matches the fixed buffer.
        for p in &pts {
            assert!(
                p.max_batch_added_buffer >= p.max_batch_fixed_buffer * 0.95,
                "width {}",
                p.width
            );
        }
    }

    #[test]
    fn fig21_best_width_is_64_or_128() {
        // The paper picks 64 (128 peaks slightly higher but has no
        // register headroom).
        let pts = fig21_resource_sweep();
        let best = pts
            .iter()
            .max_by(|a, b| {
                a.max_batch_added_buffer
                    .partial_cmp(&b.max_batch_added_buffer)
                    .unwrap()
            })
            .unwrap();
        assert!(
            best.width == 64 || best.width == 128,
            "best width {}",
            best.width
        );
    }

    #[test]
    fn fig22_width64_benefits_from_registers() {
        let pts = fig22_register_sweep();
        assert_eq!(pts.len(), 12);
        let perf = |w: u32, r: u32| {
            pts.iter()
                .find(|p| p.width == w && p.regs == r)
                .unwrap()
                .performance
        };
        // Width 64 gains from 1 → 8 registers (paper Fig. 22).
        assert!(
            perf(64, 8) > perf(64, 1),
            "{} vs {}",
            perf(64, 8),
            perf(64, 1)
        );
        // Width 128 gains less (its intensity is memory-bound).
        let gain64 = perf(64, 8) / perf(64, 1);
        let gain128 = perf(128, 8) / perf(128, 1);
        assert!(
            gain64 >= gain128 * 0.98,
            "64: {gain64:.2} 128: {gain128:.2}"
        );
    }
}
