//! Sensitivity studies beyond the paper's figures, grounded in its
//! discussion sections:
//!
//! * **memory bandwidth** — the paper fixes 300 GB/s (TPUv2 HBM) and
//!   notes the SFQ machine is bandwidth-starved; how much of the
//!   23× would survive slower links, and what faster ones buy,
//! * **process scaling** — footnote 2 cites the RSFQ rule that clock
//!   scales ∝ 1/feature-size down to 200 nm; what SuperNPU becomes on
//!   hypothetical finer processes,
//! * **cooling temperature** — §VI-C's 400× overhead is specific to
//!   4 K; perf/W across cold-stage temperatures at a fixed fraction
//!   of Carnot.

use dnn_models::Network;
use serde::{Deserialize, Serialize};
use sfq_cells::scaling;
use sfq_par::par_map;

use crate::designs::DesignPoint;
use crate::evaluator::{geomean, geomean_tmacs_over, paper_workloads};

use sfq_npu_sim::SimConfig;

fn geomean_tmacs(cfg: &SimConfig, nets: &[Network]) -> f64 {
    geomean_tmacs_over(cfg, nets, false)
}

/// One bandwidth point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BandwidthPoint {
    /// Link bandwidth, GB/s.
    pub bandwidth_gbs: f64,
    /// SuperNPU geomean TMAC/s.
    pub supernpu_tmacs: f64,
    /// TPU geomean TMAC/s at the same link.
    pub tpu_tmacs: f64,
}

impl BandwidthPoint {
    /// SuperNPU speed-up over the TPU at this link.
    pub fn speedup(&self) -> f64 {
        self.supernpu_tmacs / self.tpu_tmacs
    }
}

/// The link bandwidths swept (GB/s; 300 is the paper's operating
/// point).
const BANDWIDTH_LINKS: [f64; 6] = [75.0, 150.0, 300.0, 600.0, 1200.0, 2400.0];

fn bandwidth_point(nets: &[Network], bw: f64) -> BandwidthPoint {
    let mut sfq = DesignPoint::SuperNpu.sim_config();
    sfq.mem_bandwidth_gbs = bw;
    let mut tpu = scale_sim::CmosNpuConfig::tpu_core();
    tpu.mem_bandwidth_gbs = bw;
    let tpu_tmacs = geomean(
        &nets
            .iter()
            .map(|n| scale_sim::simulate_network(&tpu, n).effective_tmacs())
            .collect::<Vec<_>>(),
    );
    BandwidthPoint {
        bandwidth_gbs: bw,
        supernpu_tmacs: geomean_tmacs(&sfq, nets),
        tpu_tmacs,
    }
}

/// Sweep the off-chip bandwidth for both machines.
pub fn bandwidth_sweep() -> Vec<BandwidthPoint> {
    let _sweep = sfq_obs::region("sensitivity.bandwidth");
    let nets = paper_workloads();
    par_map(&BANDWIDTH_LINKS, |&bw| bandwidth_point(&nets, bw))
}

/// One process-node point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcessPoint {
    /// Junction feature size, µm.
    pub feature_um: f64,
    /// Scaled clock, GHz.
    pub frequency_ghz: f64,
    /// SuperNPU geomean TMAC/s.
    pub supernpu_tmacs: f64,
}

/// Scale SuperNPU's clock with the Kadin et al. rule (∝ 1/λ down to
/// 200 nm) and re-simulate: the memory wall, not the junctions, caps
/// the gains.
pub fn process_sweep() -> Vec<ProcessPoint> {
    let _sweep = sfq_obs::region("sensitivity.process");
    let base = DesignPoint::SuperNpu.sim_config();
    let nets = paper_workloads();
    let features = [1.0f64, 0.8, 0.5, 0.35, 0.2, 0.1];
    par_map(&features, |&feature| {
        let factor = scaling::frequency_factor(1.0, feature);
        let mut cfg = base.clone();
        cfg.frequency_ghz = base.frequency_ghz * factor;
        ProcessPoint {
            feature_um: feature,
            frequency_ghz: cfg.frequency_ghz,
            supernpu_tmacs: geomean_tmacs(&cfg, &nets),
        }
    })
}

/// One cooling point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolingPoint {
    /// Cold-stage temperature, kelvin.
    pub temperature_k: f64,
    /// Wall-power overhead factor.
    pub overhead: f64,
    /// ERSFQ-SuperNPU perf/W relative to the TPU, cooling included.
    pub perf_per_watt_vs_tpu: f64,
}

/// Perf/W vs cold-stage temperature at ~18% of Carnot (the fraction
/// that reproduces the paper's 400× at 4 K). SFQ circuits need ≲5 K,
/// so warmer rows are hypothetical-technology what-ifs.
pub fn cooling_sweep(ersfq_chip_w: f64, speedup: f64) -> Vec<CoolingPoint> {
    let _sweep = sfq_obs::region("sensitivity.cooling");
    let tpu = cryo::PowerEfficiency::new(1.0, 40.0);
    let stages = [4.2f64, 10.0, 20.0, 40.0, 77.0];
    par_map(&stages, |&t| {
        let model = cryo::CoolingModel::carnot(t, 17.6);
        let eff = cryo::PowerEfficiency::new(speedup, model.wall_power_w(ersfq_chip_w));
        CoolingPoint {
            temperature_k: t,
            overhead: model.overhead_factor,
            perf_per_watt_vs_tpu: eff.relative_to(&tpu),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_speedup_grows_with_link() {
        // The SFQ machine is the bandwidth-hungrier one: its advantage
        // widens as the link fattens.
        let pts = bandwidth_sweep();
        assert_eq!(pts.len(), 6);
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(
            last.speedup() > first.speedup(),
            "speedup {:.1} -> {:.1}",
            first.speedup(),
            last.speedup()
        );
        // SuperNPU throughput is monotone in bandwidth.
        for w in pts.windows(2) {
            assert!(w[1].supernpu_tmacs >= w[0].supernpu_tmacs * 0.999);
        }
    }

    #[test]
    fn process_scaling_saturates_on_the_memory_wall() {
        let pts = process_sweep();
        // Clock quintuples by 200 nm…
        let f0 = pts[0].frequency_ghz;
        let f200 = pts
            .iter()
            .find(|p| p.feature_um == 0.2)
            .unwrap()
            .frequency_ghz;
        assert!((f200 / f0 - 5.0).abs() < 0.01);
        // …but throughput grows sublinearly (memory-bound tail).
        let t0 = pts[0].supernpu_tmacs;
        let t200 = pts
            .iter()
            .find(|p| p.feature_um == 0.2)
            .unwrap()
            .supernpu_tmacs;
        assert!(t200 > t0, "faster clock must help some");
        assert!(
            t200 < 5.0 * t0,
            "memory wall must bite: {t0:.0} -> {t200:.0}"
        );
        // And 100 nm buys nothing beyond 200 nm (scaling floor).
        let t100 = pts
            .iter()
            .find(|p| p.feature_um == 0.1)
            .unwrap()
            .supernpu_tmacs;
        assert!((t100 - t200).abs() / t200 < 1e-9);
    }

    #[test]
    fn warmer_cold_stages_improve_efficiency() {
        let pts = cooling_sweep(2.3, 16.7);
        for w in pts.windows(2) {
            assert!(w[1].overhead < w[0].overhead);
            assert!(w[1].perf_per_watt_vs_tpu > w[0].perf_per_watt_vs_tpu);
        }
        // The 4.2 K row reproduces the ~400x overhead.
        assert!((pts[0].overhead - 400.0).abs() < 25.0);
    }
}
