//! From circuit physics to architecture: the transient JJ simulator
//! and the analytic stack must tell one consistent story.

use jjsim::extract::{jtl_characteristics, max_shift_frequency};
use jjsim::stdlib::{
    clocked_and, dff, jtl_chain, shift_register, splitter, AndParams, DffParams, JtlParams,
};
use jjsim::{BatchedTransient, Circuit, ElementId, SimOptions, SimResult, Solver};
use sfq_cells::{CellLibrary, GateKind};
use sfq_estimator::clocking::feedback_comparison;
use sfq_estimator::{estimate, NpuConfig};

/// The transient simulator's per-stage JTL delay and the cell
/// library's characterized delay agree to within a factor of two —
/// both are picosecond-scale SFQ propagation.
#[test]
fn jtl_delay_consistent() {
    let golden = jtl_characteristics(8, &JtlParams::default()).expect("transient converges");
    let lib = CellLibrary::aist_10um();
    let cell = lib.gate(GateKind::Jtl).delay_ps * 1e-12;
    let ratio = golden.delay_s / cell;
    assert!(ratio > 0.5 && ratio < 2.5, "delay ratio {ratio:.2}");
}

/// Switching energy scale: transient dissipation per event lands near
/// Ic·Φ0 ≈ 2×10⁻¹⁹ J — the number the paper's introduction quotes.
#[test]
fn switching_energy_near_ic_phi0() {
    let golden = jtl_characteristics(8, &JtlParams::default()).expect("transient converges");
    let ic_phi0 = 1.0e-4 * jjsim::PHI0;
    let ratio = golden.energy_j / ic_phi0;
    assert!(ratio > 0.2 && ratio < 5.0, "energy/IcΦ0 = {ratio:.2}");
}

/// The analytic counter-flow shift-register frequency and the measured
/// functional clock-rate limit agree to within ~2×; both sit in the
/// tens of GHz.
#[test]
fn shift_register_frequency_consistent() {
    let measured =
        max_shift_frequency(&DffParams::default(), 5.0, 50.0).expect("bisection converges") / 1e9;
    let model = feedback_comparison(&CellLibrary::aist_10um()).sr_feedback_ghz;
    assert!(
        measured > 20.0 && measured < 200.0,
        "measured {measured:.1} GHz"
    );
    let ratio = model / measured;
    assert!(ratio > 0.5 && ratio < 2.0, "model/measured = {ratio:.2}");
}

/// Architecture-level sanity: a 2×2 4-bit NPU (the paper's validation
/// die, Fig. 12(c)) estimates at tens of GHz, milliwatt static power
/// and a few mm² — die-scale numbers, not chip-scale.
#[test]
fn validation_die_scale() {
    let tiny = NpuConfig {
        name: "2x2 4-bit".into(),
        array_height: 2,
        array_width: 2,
        bits: 4,
        regs_per_pe: 1,
        ifmap_buf_bytes: 64,
        output_buf_bytes: 64,
        psum_buf_bytes: 64,
        weight_buf_bytes: 16,
        division: 1,
        integrated_output: false,
    };
    let est = estimate(&tiny, &CellLibrary::aist_10um());
    assert!(est.frequency_ghz > 30.0 && est.frequency_ghz < 80.0);
    assert!(
        est.static_w > 1e-4 && est.static_w < 0.1,
        "{} W",
        est.static_w
    );
    assert!(est.area_mm2_native > 0.1 && est.area_mm2_native < 50.0);
    // And it is ~6 orders of magnitude smaller than the full chip.
    let full = estimate(&NpuConfig::paper_supernpu(), &CellLibrary::aist_10um());
    assert!(full.jj_total > 1000 * est.jj_total);
}

/// The full-adder feedback penalty measured analytically matches the
/// paper's qualitative claim: counter-flow clocked accumulators run at
/// less than half the feed-forward rate.
#[test]
fn feedback_halves_frequency() {
    let f = feedback_comparison(&CellLibrary::aist_10um());
    assert!(f.fa_feedback_ghz < 0.5 * f.fa_feedforward_ghz);
    assert!(f.sr_feedback_ghz < 0.65 * f.sr_feedforward_ghz);
}

/// Same pulse count at every probe, and each pulse within 0.5 ps.
fn assert_same_pulses(what: &str, reference: &SimResult, other: &SimResult, probes: &[ElementId]) {
    for &jj in probes {
        let (r, o) = (reference.pulse_times(jj), other.pulse_times(jj));
        assert_eq!(r.len(), o.len(), "{what}: pulse count");
        for (tr, to) in r.iter().zip(o) {
            assert!(
                (tr - to).abs() <= 0.5e-12,
                "{what}: pulse moved {tr:e} -> {to:e}"
            );
        }
    }
}

/// `bench_solver`'s testbenches: the adaptive stepper keeps every
/// fixed-step pulse, on the five stdlib cells and on the 40-stage JTL
/// that runs the banded LU.
#[test]
fn adaptive_stepping_keeps_the_bench_solver_pulses() {
    let (jtl, dff_p, and_p) = (
        JtlParams::default(),
        DffParams::default(),
        AndParams::default(),
    );
    let clocks = [100e-12, 140e-12, 180e-12];
    let (jtl8, jtl8_probes) = jtl_chain(8, &jtl);
    let (split, s) = splitter(&jtl);
    let (d, dp) = dff(&[60e-12], &[100e-12], &dff_p);
    let (and, ap) = clocked_and(&[60e-12], &[60e-12], &[100e-12], &and_p);
    let (sr, srp) = shift_register(3, 60e-12, &clocks, 0.0, &dff_p);
    let (jtl40, jtl40_probes) = jtl_chain(40, &jtl);
    let benches: [(&str, Circuit, Vec<ElementId>, f64); 6] = [
        ("jtl_chain_8", jtl8, jtl8_probes, 380e-12),
        ("splitter", split, vec![s.input, s.out_a, s.out_b], 140e-12),
        ("dff", d, vec![dp.input, dp.output], 170e-12),
        (
            "clocked_and",
            and,
            vec![ap.store_a, ap.store_b, ap.output],
            170e-12,
        ),
        ("shift_register_3", sr, srp.stage_outputs, 240e-12),
        ("jtl_chain_40", jtl40, jtl40_probes, 400e-12),
    ];
    for (name, circuit, probes, t_end) in benches {
        let run = |opts: SimOptions| {
            Solver::new(circuit.clone(), opts)
                .expect("valid circuit")
                .try_run(t_end)
                .expect("transient converges")
        };
        let fixed = run(SimOptions::default());
        assert_same_pulses(name, &fixed, &run(SimOptions::adaptive()), &probes);
    }
}

/// `bench_batch`'s equivalence check: four 40-stage JTLs with critical
/// currents scaled by 1.0, 0.97, 1.03 and 1.06, solved as one lane
/// batch, keep every pulse of their one-lane runs.
#[test]
fn lane_batches_keep_the_scalar_pulses() {
    let built: Vec<_> = [1.0, 0.97, 1.03, 1.06]
        .iter()
        .map(|s| {
            let mut p = JtlParams::default();
            p.ic *= s;
            jtl_chain(40, &p)
        })
        .collect();
    let opts = SimOptions::adaptive();
    let circuits = built.iter().map(|(c, _)| c.clone()).collect();
    jjsim::set_batch_width(Some(jjsim::LANES));
    let batched = BatchedTransient::new(circuits, opts.clone())
        .expect("the instances share one topology")
        .try_run(200e-12);
    jjsim::set_batch_width(None);
    for (k, ((circuit, probes), b)) in built.iter().zip(batched).enumerate() {
        let scalar = Solver::new(circuit.clone(), opts.clone())
            .expect("valid circuit")
            .try_run(200e-12)
            .expect("scalar run converges");
        let b = b.expect("batched run converges");
        assert_same_pulses(&format!("instance {k}"), &scalar, &b, probes);
    }
}
