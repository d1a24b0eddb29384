//! Ablation studies for the design choices the paper argues in §III:
//! what SuperNPU would lose with the *other* choice at each decision
//! point (dataflow, network structure, data-alignment unit, clocking).
//!
//! The paper motivates each choice with circuit-level evidence
//! (Figs. 4–9); these ablations quantify the same choices at the
//! architecture level with the full simulator.

use dnn_models::Network;
use serde::{Deserialize, Serialize};
use sfq_cells::{CellLibrary, GateKind};
use sfq_estimator::clocking::{feedback_comparison, Clocking, PairTiming};
use sfq_estimator::netdesign::NetworkDesign;
use sfq_npu_sim::SimConfig;
use sfq_par::par_map;

use crate::designs::DesignPoint;
use crate::evaluator::{geomean, geomean_tmacs_over, paper_workloads};
use crate::results::memoized;

/// One ablation row: the design choice, the alternative, and the
/// geomean throughput with each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// What was changed.
    pub choice: String,
    /// The adopted design's geomean TMAC/s.
    pub adopted_tmacs: f64,
    /// The rejected alternative's geomean TMAC/s.
    pub alternative_tmacs: f64,
}

impl AblationRow {
    /// How much the adopted choice buys (adopted / alternative).
    pub fn gain(&self) -> f64 {
        self.adopted_tmacs / self.alternative_tmacs
    }
}

fn geomean_tmacs(cfg: &SimConfig, nets: &[Network]) -> f64 {
    geomean_tmacs_over(cfg, nets, false)
}

/// Scale a config's clock (and therefore everything cycle-timed) by a
/// frequency factor — used to model choices that change the achievable
/// clock rather than the cycle counts.
fn with_frequency(cfg: &SimConfig, frequency_ghz: f64) -> SimConfig {
    let mut out = cfg.clone();
    out.frequency_ghz = frequency_ghz;
    out
}

/// Ablation 1 — **dataflow**: weight-stationary (no feedback loop,
/// concurrent-flow clocking) vs output-stationary (accumulator
/// feedback loop forces counter-flow clocking; the whole PE array
/// drops to the Fig. 7(c) feedback frequency ratio).
pub fn ablation_dataflow() -> AblationRow {
    let lib = CellLibrary::aist_10um();
    let nets = paper_workloads();
    let ws = DesignPoint::SuperNpu.sim_config();
    let fb = feedback_comparison(&lib);
    // The OS PE's multiply-accumulate loop clocks like the
    // counter-flow full adder; keep every architectural parameter.
    let os_frequency = ws.frequency_ghz * fb.fa_feedback_ghz / fb.fa_feedforward_ghz;
    // The OS design does save the psum-accumulation traffic; with the
    // integrated buffer that traffic is already free, so the dominant
    // effect is the clock.
    let os = with_frequency(&ws, os_frequency);
    AblationRow {
        choice: "PE dataflow: weight-stationary vs output-stationary".into(),
        adopted_tmacs: geomean_tmacs(&ws, &nets),
        alternative_tmacs: geomean_tmacs(&os, &nets),
    }
}

/// Ablation 2 — **network**: the 2D systolic store-and-forward chain
/// vs a 2D splitter-tree fan-out network, whose data/clock arrival
/// mismatch caps the whole chip's clock (Fig. 5(a)).
pub fn ablation_network() -> AblationRow {
    let lib = CellLibrary::aist_10um();
    let nets = paper_workloads();
    let systolic = DesignPoint::SuperNpu.sim_config();
    let width = systolic.npu.array_width;
    let tree_cct_ps = NetworkDesign::SplitterTree2d.critical_path_ps(width, &lib);
    let tree_ghz = (1000.0 / tree_cct_ps).min(systolic.frequency_ghz);
    let tree = with_frequency(&systolic, tree_ghz);
    AblationRow {
        choice: "on-chip network: systolic chain vs 2D splitter tree".into(),
        adopted_tmacs: geomean_tmacs(&systolic, &nets),
        alternative_tmacs: geomean_tmacs(&tree, &nets),
    }
}

/// Ablation 3 — **data-alignment unit**: with the DAU, the ifmap
/// buffer stores each pixel once; without it, adjacent PE rows hold
/// duplicated pixels (Fig. 8, >90% for VGG-class nets), slashing the
/// effective ifmap capacity and therefore the on-chip batch.
pub fn ablation_dau() -> AblationRow {
    let nets = paper_workloads();
    let with_dau = DesignPoint::SuperNpu.sim_config();
    let mut without = with_dau.clone();
    // Average duplication across the six workloads ≈ 75–90%; model the
    // capacity loss with the per-network duplication factors by
    // derating the ifmap buffer by the geomean duplicated share.
    let dup = geomean(
        &nets
            .iter()
            .map(|n| 1.0 - dnn_models::duplication::network_duplication(n).duplicated_ratio())
            .collect::<Vec<_>>(),
    );
    without.npu.ifmap_buf_bytes = (with_dau.npu.ifmap_buf_bytes as f64 * dup) as u64;
    AblationRow {
        choice: "data-alignment unit: dedup vs duplicated ifmap buffering".into(),
        adopted_tmacs: geomean_tmacs(&with_dau, &nets),
        alternative_tmacs: geomean_tmacs(&without, &nets),
    }
}

/// Ablation 4 — **clocking**: concurrent-flow with skew tuning vs
/// counter-flow everywhere (the conservative choice a designer without
/// skew-tuning tooling would make).
pub fn ablation_clocking() -> AblationRow {
    let lib = CellLibrary::aist_10um();
    let nets = paper_workloads();
    let tuned = DesignPoint::SuperNpu.sim_config();
    // Counter-flow PE critical pair: same gates, counter-flow scheme.
    let counter = PairTiming {
        src: GateKind::And,
        dst: GateKind::And,
        data_wire_ps: 4.0 + 3.3,
        clock_wire_ps: 0.6,
        clocking: Clocking::CounterFlow,
    };
    let conservative = with_frequency(&tuned, counter.frequency_ghz(&lib));
    AblationRow {
        choice: "clocking: concurrent-flow (skewed) vs counter-flow".into(),
        adopted_tmacs: geomean_tmacs(&tuned, &nets),
        alternative_tmacs: geomean_tmacs(&conservative, &nets),
    }
}

/// Ablation 5 — **PE arithmetic**: the gate-level-pipelined
/// bit-parallel multiplier (demonstrated at ~50 GHz, the paper's
/// enabling circuit) vs the bit-serial datapaths of earlier SFQ
/// microprocessors (CORE1α/e4, §VII). A bit-serial PE clocks faster
/// (a skew-tuned DFF/FA chain) but needs one cycle per operand bit,
/// dividing per-PE throughput by the datapath width.
pub fn ablation_bitserial() -> AblationRow {
    let lib = CellLibrary::aist_10um();
    let nets = paper_workloads();
    let parallel = DesignPoint::SuperNpu.sim_config();
    let fb = feedback_comparison(&lib);
    let bits = f64::from(parallel.npu.bits);
    // Serial clock: the skew-tuned shift-register rate; effective MAC
    // rate divides by the bit width.
    let serial_effective_ghz = fb.sr_feedforward_ghz / bits;
    let serial = with_frequency(&parallel, serial_effective_ghz);
    AblationRow {
        choice: "PE arithmetic: bit-parallel pipelined vs bit-serial".into(),
        adopted_tmacs: geomean_tmacs(&parallel, &nets),
        alternative_tmacs: geomean_tmacs(&serial, &nets),
    }
}

/// Run all five ablations, fanned out across threads (each ablation is
/// independent; results keep this fixed order). Computed once per
/// process.
pub fn all_ablations() -> Vec<AblationRow> {
    memoized("all_ablations", || {
        let runs: [fn() -> AblationRow; 5] = [
            ablation_dataflow,
            ablation_network,
            ablation_dau,
            ablation_clocking,
            ablation_bitserial,
        ];
        (par_map(&runs, |run| run()), true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_adopted_choice_wins() {
        let rows = all_ablations();
        assert_eq!(rows.len(), 5);
        for row in rows {
            assert!(row.gain() > 1.0, "{}: gain {:.2}", row.choice, row.gain());
        }
    }

    #[test]
    fn bitserial_costs_most_of_the_clock_advantage() {
        // 8-bit serial arithmetic at ~133 GHz nets ~16.6 GHz of MAC
        // rate: between 1.5x and 4x slower end-to-end (memory-bound
        // layers dilute the gap).
        let row = ablation_bitserial();
        assert!(
            row.gain() > 1.3 && row.gain() < 5.0,
            "gain {:.2}",
            row.gain()
        );
    }

    #[test]
    fn network_ablation_is_catastrophic() {
        // A 64-wide 2D tree caps the clock near 1 GHz — the systolic
        // choice is worth an order of magnitude.
        let row = ablation_network();
        assert!(row.gain() > 5.0, "gain {:.1}", row.gain());
    }

    #[test]
    fn dataflow_ablation_tracks_fig7_ratio() {
        // The WS/OS throughput ratio should track the Fig. 7(c)
        // clock ratio (~2.2x) within the compute-bound share.
        let row = ablation_dataflow();
        assert!(
            row.gain() > 1.2 && row.gain() < 3.0,
            "gain {:.2}",
            row.gain()
        );
    }

    #[test]
    fn dau_ablation_costs_batch() {
        let row = ablation_dau();
        assert!(row.gain() > 1.05, "gain {:.2}", row.gain());
    }
}
