//! Whole-network simulation: layer orchestration and buffer residency.

use dnn_models::Network;
use sfq_cells::CellLibrary;
use sfq_estimator::estimate;

use crate::batch::structural_max_batch;
use crate::config::SimConfig;
use crate::faults::PulseFaults;
use crate::layersim::simulate_layer_with_faults;
use crate::stats::NetworkStats;

/// Simulate `net` on `cfg` at its maximum on-chip batch (Table II
/// methodology).
pub fn simulate_network(cfg: &SimConfig, net: &Network) -> NetworkStats {
    let batch = structural_max_batch(&cfg.npu, net);
    simulate_network_with_batch(cfg, net, batch)
}

/// Simulate `net` on `cfg` at an explicit batch size.
///
/// The first layer's ifmap always comes from DRAM; later layers reuse
/// the previous layer's on-chip ofmap when it fit in the output
/// buffer.
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn simulate_network_with_batch(cfg: &SimConfig, net: &Network, batch: u32) -> NetworkStats {
    simulate_network_with_fault_plan(cfg, net, batch, &[])
}

/// Simulate `net` under a per-layer pulse-fault plan.
///
/// `plan[i]` applies to layer `i`; a plan shorter than the network
/// leaves the remaining layers fault-free, so `&[]` is exactly the
/// clean [`simulate_network_with_batch`] run. Injected faults never
/// change cycles or energy — they surface as corrupted-MAC counts in
/// each layer's [`crate::LayerStats::faults`] and the aggregate
/// [`NetworkStats::fault_counts`], keeping degraded runs comparable to
/// clean ones.
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn simulate_network_with_fault_plan(
    cfg: &SimConfig,
    net: &Network,
    batch: u32,
    plan: &[PulseFaults],
) -> NetworkStats {
    assert!(batch > 0, "batch must be positive");
    let _network = sfq_obs::region("npusim.network");
    sfq_obs::inc("npusim.network.count");
    let est = estimate(&cfg.npu, &CellLibrary::aist_10um());
    let out_cap = cfg.npu.output_buf_bytes + cfg.npu.psum_buf_bytes;

    let clean = PulseFaults::none();
    let mut layers = Vec::with_capacity(net.layers().len());
    let mut resident = false; // network input starts off-chip
    for (i, layer) in net.iter().enumerate() {
        let faults = plan.get(i).unwrap_or(&clean);
        layers.push(simulate_layer_with_faults(
            cfg, layer, batch, resident, faults,
        ));
        resident = layer.ofmap_bytes(batch) <= out_cap;
    }

    NetworkStats {
        network: net.name().to_owned(),
        design: cfg.npu.name.clone(),
        batch,
        frequency_ghz: cfg.frequency_ghz,
        static_w: cfg.energy.static_w,
        peak_tmacs: est.peak_tmacs,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::zoo;

    #[test]
    fn baseline_effective_perf_is_single_digit_tmacs() {
        // §V-A.1: Baseline sustains ~6.45 TMAC/s on average — below
        // 0.2% of its 3366 TMAC/s peak.
        let cfg = SimConfig::paper_baseline();
        let mut sum = 0.0;
        let nets = zoo::all();
        for net in &nets {
            let s = simulate_network(&cfg, net);
            sum += s.effective_tmacs();
            assert!(
                s.pe_utilization() < 0.02,
                "{}: utilization {:.4}",
                net.name(),
                s.pe_utilization()
            );
        }
        let avg = sum / nets.len() as f64;
        assert!(avg > 0.5 && avg < 30.0, "Baseline average {avg:.2} TMAC/s");
    }

    #[test]
    fn baseline_cycles_are_prep_dominated() {
        // Fig. 15: above ~90% preparation for every workload.
        let cfg = SimConfig::paper_baseline();
        for net in zoo::all() {
            let s = simulate_network(&cfg, &net);
            assert!(
                s.prep_fraction() > 0.75,
                "{}: prep fraction {:.2}",
                net.name(),
                s.prep_fraction()
            );
        }
    }

    #[test]
    fn optimizations_stack_monotonically() {
        // Fig. 23's accumulative story: Baseline < Buffer opt. <
        // Resource opt. ≤ SuperNPU in geomean throughput.
        let designs = [
            SimConfig::paper_baseline(),
            SimConfig::paper_buffer_opt(),
            SimConfig::paper_resource_opt(),
            SimConfig::paper_supernpu(),
        ];
        let nets = zoo::all();
        let mut geomeans = Vec::new();
        for cfg in &designs {
            let mut log_sum = 0.0;
            for net in &nets {
                log_sum += simulate_network(cfg, net).effective_tmacs().ln();
            }
            geomeans.push((log_sum / nets.len() as f64).exp());
        }
        assert!(
            geomeans[1] > geomeans[0] * 2.0,
            "buffer opt {:.1} vs baseline {:.1}",
            geomeans[1],
            geomeans[0]
        );
        assert!(
            geomeans[2] > geomeans[1],
            "resource opt {:.1} vs buffer opt {:.1}",
            geomeans[2],
            geomeans[1]
        );
        assert!(
            geomeans[3] > geomeans[2],
            "supernpu {:.1} vs resource opt {:.1}",
            geomeans[3],
            geomeans[2]
        );
    }

    #[test]
    fn supernpu_single_batch_still_beats_baseline() {
        // Fig. 20's single-batch series: buffer optimizations alone
        // give ~6x at batch 1.
        let base = SimConfig::paper_baseline();
        let s = SimConfig::paper_supernpu();
        let net = zoo::resnet50();
        let t_base = simulate_network_with_batch(&base, &net, 1).effective_tmacs();
        let t_s = simulate_network_with_batch(&s, &net, 1).effective_tmacs();
        assert!(
            t_s > 2.0 * t_base,
            "supernpu {t_s:.1} vs baseline {t_base:.1}"
        );
    }

    #[test]
    fn ersfq_performance_identical_to_rsfq() {
        let rsfq = SimConfig::paper_supernpu();
        let ersfq = rsfq.with_bias(sfq_cells::BiasScheme::Ersfq);
        let net = zoo::googlenet();
        let a = simulate_network(&rsfq, &net);
        let b = simulate_network(&ersfq, &net);
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert!(b.total_power_w() < a.total_power_w());
    }

    #[test]
    fn supernpu_power_is_watt_scale_under_ersfq() {
        // Table III: ERSFQ-SuperNPU ≈ 1.9 W.
        let cfg = SimConfig::paper_supernpu().with_bias(sfq_cells::BiasScheme::Ersfq);
        let s = simulate_network(&cfg, &zoo::resnet50());
        let p = s.total_power_w();
        assert!(p > 0.05 && p < 10.0, "ERSFQ power {p:.2} W");
    }

    #[test]
    fn fault_plan_degrades_accounting_not_timing() {
        let cfg = SimConfig::paper_supernpu();
        let net = zoo::alexnet();
        let clean = simulate_network_with_batch(&cfg, &net, 4);
        assert_eq!(clean.fault_counts(), crate::FaultCounts::default());

        // Fault only layer 1; the rest of the (short) plan is clean.
        let mut plan = vec![PulseFaults::none(); 2];
        plan[1] = PulseFaults {
            drop_rate: 1e-4,
            skew_ps: 2.0,
            hold_ps: 1.0,
            stuck_pes: 128,
        };
        let faulty = simulate_network_with_fault_plan(&cfg, &net, 4, &plan);

        // Graceful degradation: identical cycles and energy...
        assert_eq!(faulty.total_cycles(), clean.total_cycles());
        assert_eq!(faulty.dynamic_energy(), clean.dynamic_energy());
        // ...but the corruption is visible, and only where injected.
        assert_eq!(faulty.layers[0].faults, crate::FaultCounts::default());
        let c = faulty.layers[1].faults;
        assert!(c.dropped_pulses > 0 && c.timing_violations > 0 && c.stuck_macs > 0);
        for l in &faulty.layers[2..] {
            assert_eq!(l.faults, crate::FaultCounts::default());
        }
        assert!(faulty.fault_fraction() > 0.0 && faulty.fault_fraction() < 1.0);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_panics() {
        let cfg = SimConfig::paper_baseline();
        let _ = simulate_network_with_batch(&cfg, &zoo::alexnet(), 0);
    }
}
