//! One function per paper table/figure (see DESIGN.md's experiment
//! index). Each returns typed rows; the `supernpu-bench` binaries
//! print them in the paper's layout.

use dnn_models::{intensity, zoo, Network};
use scale_sim::{simulate_network as simulate_tpu, CmosNpuConfig};
use serde::{Deserialize, Serialize};
use sfq_cells::{BiasScheme, CellLibrary};
use sfq_estimator::estimate;
use sfq_npu_sim::{simulate_network, simulate_network_with_batch, structural_max_batch, SimConfig};
use sfq_par::par_map;

use crate::designs::DesignPoint;
use crate::results::memoized;

/// The six evaluation workloads.
pub fn paper_workloads() -> Vec<Network> {
    zoo::all()
}

/// Geomean effective TMAC/s of `cfg` across `nets`.
///
/// Takes the workload list as a parameter so sweeps load the zoo once
/// and reuse it across every sweep point; the per-workload simulations
/// fan out across threads (deterministically — results are reduced in
/// workload order).
pub fn geomean_tmacs_over(cfg: &SimConfig, nets: &[Network], single_batch: bool) -> f64 {
    let v = par_map(nets, |n| {
        let s = if single_batch {
            simulate_network_with_batch(cfg, n, 1)
        } else {
            simulate_network(cfg, n)
        };
        s.effective_tmacs()
    });
    geomean(&v)
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

// ---------------------------------------------------------------- Fig 15

/// One bar of Fig. 15: Baseline's normalized cycle breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig15Row {
    /// Workload.
    pub network: String,
    /// Fraction of cycles spent preparing (buffer shifting, psum
    /// moves, weight loads, memory stalls).
    pub preparation: f64,
    /// Fraction spent computing.
    pub computation: f64,
}

/// Baseline's preparation-vs-computation cycle breakdown (Fig. 15).
/// Computed once per process.
pub fn fig15_cycle_breakdown() -> Vec<Fig15Row> {
    memoized("fig15_cycle_breakdown", || {
        let cfg = DesignPoint::Baseline.sim_config();
        let rows = par_map(&paper_workloads(), |net| {
            let s = simulate_network(&cfg, net);
            let prep = s.prep_fraction();
            Fig15Row {
                network: net.name().to_owned(),
                preparation: prep,
                computation: 1.0 - prep,
            }
        });
        (rows, true)
    })
}

// ---------------------------------------------------------------- Fig 17

/// One point of the Fig. 17 roofline plot (Baseline, single batch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig17Row {
    /// Workload.
    pub network: String,
    /// Computational intensity, MAC/byte (single batch).
    pub intensity_mac_per_byte: f64,
    /// Roofline-attainable throughput, GMAC/s.
    pub roofline_gmacs: f64,
    /// Simulated effective throughput, GMAC/s.
    pub effective_gmacs: f64,
    /// Machine peak, GMAC/s.
    pub peak_gmacs: f64,
}

/// The Baseline roofline analysis (Fig. 17): single-batch intensity vs
/// attainable and achieved GMAC/s. Computed once per process.
pub fn fig17_roofline() -> Vec<Fig17Row> {
    memoized("fig17_roofline", || {
        let cfg = DesignPoint::Baseline.sim_config();
        let peak = estimate(&cfg.npu, &CellLibrary::aist_10um()).peak_tmacs * 1e12;
        let bw = cfg.mem_bandwidth_gbs * 1e9;
        let rows = par_map(&paper_workloads(), |net| {
            let i = intensity::network_intensity(net, 1);
            let s = simulate_network_with_batch(&cfg, net, 1);
            Fig17Row {
                network: net.name().to_owned(),
                intensity_mac_per_byte: i,
                roofline_gmacs: intensity::roofline_macs_per_s(peak, bw, i) / 1e9,
                effective_gmacs: s.effective_tmacs() * 1e3,
                peak_gmacs: peak / 1e9,
            }
        });
        (rows, true)
    })
}

// ---------------------------------------------------------------- Fig 23

/// One workload row of Fig. 23.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig23Row {
    /// Workload.
    pub network: String,
    /// TPU effective throughput, TMAC/s (the normalization base).
    pub tpu_tmacs: f64,
    /// Effective TMAC/s for (Baseline, Buffer opt., Resource opt.,
    /// SuperNPU), in that order.
    pub sfq_tmacs: [f64; 4],
}

impl Fig23Row {
    /// Speed-up of `design` over the TPU on this workload.
    ///
    /// # Panics
    ///
    /// Panics for [`DesignPoint::Tpu`] (its speed-up is 1 by
    /// definition).
    pub fn speedup(&self, design: DesignPoint) -> f64 {
        let Some(idx) = DesignPoint::SFQ_DESIGNS.iter().position(|d| *d == design) else {
            panic!("TPU speedup is 1 by definition");
        };
        self.sfq_tmacs[idx] / self.tpu_tmacs
    }
}

/// The headline performance evaluation (Fig. 23): every SFQ design
/// against the TPU core on all six workloads, at Table II batches.
/// Computed once per process.
pub fn fig23_performance() -> Vec<Fig23Row> {
    memoized("fig23_performance", || {
        let tpu = CmosNpuConfig::tpu_core();
        let sfq_cfgs: Vec<_> = DesignPoint::SFQ_DESIGNS
            .iter()
            .map(|d| d.sim_config())
            .collect();
        let rows = par_map(&paper_workloads(), |net| {
            let tpu_tmacs = simulate_tpu(&tpu, net).effective_tmacs();
            let mut sfq = [0.0f64; 4];
            for (slot, cfg) in sfq_cfgs.iter().enumerate() {
                sfq[slot] = simulate_network(cfg, net).effective_tmacs();
            }
            Fig23Row {
                network: net.name().to_owned(),
                tpu_tmacs,
                sfq_tmacs: sfq,
            }
        });
        (rows, true)
    })
}

/// Geomean speed-up of one design over the TPU across all workloads.
pub fn average_speedup(rows: &[Fig23Row], design: DesignPoint) -> f64 {
    let v: Vec<f64> = rows.iter().map(|r| r.speedup(design)).collect();
    geomean(&v)
}

// ---------------------------------------------------------------- Table I

/// One column of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Design name.
    pub design: String,
    /// PE-array width × height.
    pub array: (u32, u32),
    /// Ifmap buffer, MB.
    pub ifmap_mb: f64,
    /// Output (ofmap or integrated) buffer, MB.
    pub output_mb: f64,
    /// Separate psum buffer, MB (0 when integrated).
    pub psum_mb: f64,
    /// Weight buffer, KB.
    pub weight_kb: f64,
    /// Registers per PE.
    pub regs: u32,
    /// Clock frequency, GHz.
    pub frequency_ghz: f64,
    /// Peak throughput, TMAC/s.
    pub peak_tmacs: f64,
    /// Area scaled to 28 nm, mm².
    pub area_mm2_28nm: f64,
}

/// The evaluation setup table (Table I), with the estimator filling in
/// frequency, peak performance and scaled area.
pub fn table1_setup() -> Vec<Table1Row> {
    const MB: f64 = 1024.0 * 1024.0;
    let lib = CellLibrary::aist_10um();
    let tpu = CmosNpuConfig::tpu_core();
    let mut rows = vec![Table1Row {
        design: "TPU".into(),
        array: (tpu.array_width, tpu.array_height),
        ifmap_mb: 24.0,
        output_mb: 0.0,
        psum_mb: 0.0,
        weight_kb: 0.0,
        regs: 1,
        frequency_ghz: tpu.frequency_ghz,
        peak_tmacs: tpu.peak_tmacs(),
        area_mm2_28nm: 330.0,
    }];
    for d in DesignPoint::SFQ_DESIGNS {
        let cfg = d.npu_config();
        let est = estimate(&cfg, &lib);
        rows.push(Table1Row {
            design: cfg.name.clone(),
            array: (cfg.array_width, cfg.array_height),
            ifmap_mb: cfg.ifmap_buf_bytes as f64 / MB,
            output_mb: cfg.output_buf_bytes as f64 / MB,
            psum_mb: cfg.psum_buf_bytes as f64 / MB,
            weight_kb: cfg.weight_buf_bytes as f64 / 1024.0,
            regs: cfg.regs_per_pe,
            frequency_ghz: est.frequency_ghz,
            peak_tmacs: est.peak_tmacs,
            area_mm2_28nm: est.area_mm2_28nm,
        });
    }
    rows
}

// ---------------------------------------------------------------- Table II

/// One workload row of Table II: the batch each design runs at.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Workload.
    pub network: String,
    /// Batch for (TPU, Baseline, Buffer opt., Resource opt., SuperNPU).
    pub batches: [u32; 5],
}

/// The batch-size setup (Table II).
pub fn table2_batches() -> Vec<Table2Row> {
    let tpu = CmosNpuConfig::tpu_core();
    par_map(&paper_workloads(), |net| {
        let tpu_batch = dnn_models::batching::max_batch(
            net,
            tpu.buffer_bytes,
            1.0,
            dnn_models::batching::PAPER_BATCH_CAP,
        );
        let mut batches = [tpu_batch, 0, 0, 0, 0];
        for (i, d) in DesignPoint::SFQ_DESIGNS.iter().enumerate() {
            batches[i + 1] = structural_max_batch(&d.npu_config(), net);
        }
        Table2Row {
            network: net.name().to_owned(),
            batches,
        }
    })
}

// ---------------------------------------------------------------- Table III

/// One row of the power-efficiency evaluation (Table III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// Variant name.
    pub variant: String,
    /// Power, watts.
    pub power_w: f64,
    /// Performance per watt normalized to the TPU.
    pub perf_per_watt_vs_tpu: f64,
}

/// The power-efficiency evaluation (Table III): RSFQ and ERSFQ
/// SuperNPU, with and without the 400× cooling overhead, against the
/// 40 W TPU core. Computed once per process.
pub fn table3_power() -> Vec<Table3Row> {
    memoized("table3_power", || {
        let cooling = cryo::CoolingModel::holmes_4k();
        let tpu = CmosNpuConfig::tpu_core();
        let nets = paper_workloads();

        // Average TPU throughput and SuperNPU throughput/power across the
        // workloads.
        let tpu_tmacs = par_map(&nets, |n| simulate_tpu(&tpu, n).effective_tmacs());
        let tpu_perf = geomean(&tpu_tmacs);
        let tpu_eff = cryo::PowerEfficiency::new(tpu_perf, tpu.chip_power_w);

        let mut rows = vec![Table3Row {
            variant: "TPU".into(),
            power_w: tpu.chip_power_w,
            perf_per_watt_vs_tpu: 1.0,
        }];

        for bias in [BiasScheme::Rsfq, BiasScheme::Ersfq] {
            let cfg = DesignPoint::SuperNpu.sim_config().with_bias(bias);
            let stats = par_map(&nets, |n| simulate_network(&cfg, n));
            let perf = geomean(
                &stats
                    .iter()
                    .map(|s| s.effective_tmacs())
                    .collect::<Vec<_>>(),
            );
            let chip_w: f64 =
                stats.iter().map(|s| s.total_power_w()).sum::<f64>() / stats.len() as f64;
            for (cooled, label) in [(false, "w/o cooling"), (true, "w/ cooling")] {
                let power = if cooled {
                    cooling.wall_power_w(chip_w)
                } else {
                    chip_w
                };
                let eff = cryo::PowerEfficiency::new(perf, power);
                rows.push(Table3Row {
                    variant: format!("{bias}-SuperNPU ({label})"),
                    power_w: power,
                    perf_per_watt_vs_tpu: eff.relative_to(&tpu_eff),
                });
            }
        }
        (rows, true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[7.0]) - 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn fig15_fractions_sum_to_one_and_prep_dominates() {
        for row in fig15_cycle_breakdown() {
            assert!((row.preparation + row.computation - 1.0).abs() < 1e-12);
            assert!(
                row.preparation > 0.75,
                "{}: prep {:.2}",
                row.network,
                row.preparation
            );
        }
    }

    #[test]
    fn fig17_effective_below_roofline_below_peak() {
        for row in fig17_roofline() {
            assert!(
                row.effective_gmacs <= row.roofline_gmacs * 1.05,
                "{}: {:.0} > roofline {:.0}",
                row.network,
                row.effective_gmacs,
                row.roofline_gmacs
            );
            assert!(row.roofline_gmacs <= row.peak_gmacs);
            // Fig. 17's point: >98% of peak is unreachable at batch 1.
            assert!(row.roofline_gmacs < 0.1 * row.peak_gmacs, "{}", row.network);
        }
    }

    #[test]
    fn fig23_supernpu_speedup_is_tens() {
        let rows = fig23_performance();
        let avg = average_speedup(&rows, DesignPoint::SuperNpu);
        // Paper: 23×. Accept the reproduction band.
        assert!(avg > 10.0 && avg < 40.0, "SuperNPU speedup {avg:.1}");
        // Baseline below the TPU (paper: 0.4×).
        let base = average_speedup(&rows, DesignPoint::Baseline);
        assert!(base < 1.0, "Baseline {base:.2}");
        // MobileNet shows the largest SuperNPU speedup (paper: ~42×).
        let best = rows
            .iter()
            .max_by(|a, b| {
                a.speedup(DesignPoint::SuperNpu)
                    .partial_cmp(&b.speedup(DesignPoint::SuperNpu))
                    .unwrap()
            })
            .unwrap();
        assert_eq!(best.network, "MobileNet");
    }

    #[test]
    fn table1_has_five_designs() {
        let rows = table1_setup();
        assert_eq!(rows.len(), 5);
        assert!((rows[1].frequency_ghz - 52.6).abs() < 1.5);
        // SuperNPU column: 64-wide, 8 regs.
        let s = rows.last().unwrap();
        assert_eq!(s.array.0, 64);
        assert_eq!(s.regs, 8);
    }

    #[test]
    fn table2_baseline_column_is_all_ones() {
        for row in table2_batches() {
            assert_eq!(row.batches[1], 1, "{}", row.network);
            // SuperNPU batch ≥ Buffer opt. batch.
            assert!(row.batches[4] >= row.batches[2], "{}", row.network);
        }
    }

    #[test]
    fn table3_shape_matches_paper() {
        let rows = table3_power();
        assert_eq!(rows.len(), 5);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.variant.contains(name))
                .unwrap_or_else(|| panic!("{name} row missing"))
        };
        let rsfq = get("RSFQ-SuperNPU (w/o");
        let rsfq_cool = get("RSFQ-SuperNPU (w/ ");
        let ersfq = get("ERSFQ-SuperNPU (w/o");
        let ersfq_cool = get("ERSFQ-SuperNPU (w/ ");
        // RSFQ chip power is hundreds of watts; ERSFQ is watt-scale.
        assert!(rsfq.power_w > 300.0, "RSFQ {:.0} W", rsfq.power_w);
        assert!(ersfq.power_w < 20.0, "ERSFQ {:.2} W", ersfq.power_w);
        // Cooling multiplies power by 400.
        assert!((rsfq_cool.power_w / rsfq.power_w - 400.0).abs() < 1.0);
        // Efficiency ordering: ERSFQ free-cooling ≫ TPU ≫ RSFQ cooled.
        assert!(
            ersfq.perf_per_watt_vs_tpu > 50.0,
            "{:.0}",
            ersfq.perf_per_watt_vs_tpu
        );
        assert!(rsfq_cool.perf_per_watt_vs_tpu < 0.05);
        assert!(ersfq_cool.perf_per_watt_vs_tpu > rsfq_cool.perf_per_watt_vs_tpu);
    }
}
