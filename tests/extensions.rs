//! Integration tests of the extension surfaces: ablations,
//! sensitivity sweeps, margin analysis, netlists, traces and the
//! system power budget — everything beyond the paper's own figures.

use dnn_models::{zoo, zoo_ext};
use sfq_npu_sim::{analyze_stalls, simulate_layer, trace_layer, AccessKind, SimConfig};
use supernpu::ablations::all_ablations;
use supernpu::sensitivity::{bandwidth_sweep, process_sweep};

/// Every §III design-choice ablation favors the paper's choice.
#[test]
fn ablations_favor_paper_choices() {
    let rows = all_ablations();
    assert_eq!(rows.len(), 5);
    for r in &rows {
        assert!(r.gain() > 1.0, "{}: {:.2}", r.choice, r.gain());
    }
    // The network choice is the largest single factor.
    let max = rows
        .iter()
        .max_by(|a, b| a.gain().partial_cmp(&b.gain()).expect("finite"))
        .expect("non-empty");
    assert!(max.choice.contains("network"), "largest: {}", max.choice);
}

/// The bandwidth sweep brackets the paper's 300 GB/s operating point.
#[test]
fn bandwidth_sweep_brackets_paper_point() {
    let pts = bandwidth_sweep();
    let at_300 = pts
        .iter()
        .find(|p| (p.bandwidth_gbs - 300.0).abs() < 1.0)
        .expect("300 GB/s point present");
    assert!(at_300.speedup() > 10.0 && at_300.speedup() < 40.0);
}

/// Process scaling hits the Kadin floor: 100 nm buys nothing over
/// 200 nm.
#[test]
fn process_floor_respected() {
    let pts = process_sweep();
    let f = |um: f64| {
        pts.iter()
            .find(|p| (p.feature_um - um).abs() < 1e-9)
            .expect("point present")
            .supernpu_tmacs
    };
    assert!((f(0.1) - f(0.2)).abs() < 1e-9);
    assert!(f(0.2) > f(1.0));
}

/// Extension workloads run end-to-end on every SFQ design point.
#[test]
fn extension_workloads_simulate() {
    for cfg in [SimConfig::paper_baseline(), SimConfig::paper_supernpu()] {
        for net in zoo_ext::all_extensions() {
            let s = sfq_npu_sim::simulate_network(&cfg, &net);
            assert_eq!(s.total_macs(), net.total_macs(s.batch), "{}", net.name());
            assert!(s.effective_tmacs() > 0.0);
        }
    }
}

/// The transformer workload is the most memory-bound of the set on
/// SuperNPU at batch 1.
#[test]
fn transformer_is_memory_bound() {
    let cfg = SimConfig::paper_supernpu();
    let r = analyze_stalls(&cfg, &zoo_ext::transformer_encoder(128), 1);
    assert_eq!(r.dominant(), "memory bandwidth");
}

/// The trace and the aggregate simulator agree on every zoo layer, on
/// both paper designs, at batch 1 and 3: DRAM weight bytes, prep cycles
/// (weight loads, ifmap shifts and psum moves) and compute cycles
/// (ifmap streaming). Their totals still differ by the memory stalls
/// the trace does not model.
#[test]
fn trace_matches_simulator_accounting() {
    let mut cases = 0;
    for cfg in [SimConfig::paper_baseline(), SimConfig::paper_supernpu()] {
        for net in zoo::all() {
            for layer in net.layers() {
                for batch in [1, 3] {
                    let t = trace_layer(&cfg, layer, batch);
                    let sim = simulate_layer(&cfg, layer, batch, true);
                    let prep = [
                        AccessKind::WeightLoad,
                        AccessKind::IfmapShift,
                        AccessKind::PsumMove,
                    ]
                    .map(|k| t.cycles_of(k))
                    .iter()
                    .sum::<u64>();
                    let at = || format!("{} {} batch {batch}", cfg.npu.name, layer.name());
                    assert_eq!(
                        t.bytes_of(AccessKind::Dram),
                        layer.weight_bytes(),
                        "{}",
                        at()
                    );
                    assert_eq!(prep, sim.prep_cycles, "prep cycles, {}", at());
                    assert_eq!(
                        t.cycles_of(AccessKind::IfmapStream),
                        sim.compute_cycles,
                        "compute cycles, {}",
                        at()
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 736, "184 zoo layers x 2 designs x 2 batches");
}

/// Margin analysis reports healthy cells.
#[test]
fn cell_margins_are_healthy() {
    let jtl = jjsim::margins::jtl_bias_margin().expect("converges");
    assert!(jtl.critical_fraction() > 0.1);
    assert!(jtl.low < jtl.nominal && jtl.nominal < jtl.high);
}

/// A netlist deck shipped in `decks/` runs and behaves.
#[test]
fn shipped_decks_run() {
    for (deck, expected_junctions) in [("decks/jtl4.cir", 4usize), ("decks/dff.cir", 3)] {
        let text = std::fs::read_to_string(deck).expect("deck present");
        let parsed = jjsim::parse_netlist(&text).expect("deck parses");
        assert_eq!(parsed.circuit.jj_count(), expected_junctions, "{deck}");
        let out = jjsim::Solver::new(parsed.circuit.clone(), parsed.sim_options())
            .expect("solvable")
            .try_run(parsed.stop_time())
            .expect("converges");
        // Every junction fires exactly once in both decks.
        for (name, id) in &parsed.junctions {
            assert_eq!(out.pulse_count(*id), 1, "{deck}:{name}");
        }
    }
}

/// The system budget composes chip + cooling + memory sensibly for
/// the Table III ERSFQ point.
#[test]
fn system_budget_composes() {
    let budget = cryo::SystemBudget::new(2.3, &cryo::CoolingModel::holmes_4k(), 300.0);
    assert!(budget.total_w() > 900.0 && budget.total_w() < 1000.0);
    assert!(budget.cooling_fraction() > 0.9);
}

/// The characterization loop (transient physics → measured library →
/// architecture estimate) lands in the paper's regime end-to-end.
#[test]
fn characterization_loop_closes() {
    let measured = sfq_chars::characterize().expect("transients converge");
    let est = sfq_estimator::estimate(&sfq_estimator::NpuConfig::paper_supernpu(), &measured);
    assert!(
        (est.frequency_ghz - 52.6).abs() / 52.6 < 0.5,
        "measured-library SuperNPU clock {:.1} GHz",
        est.frequency_ghz
    );
}
