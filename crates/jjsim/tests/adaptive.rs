//! Adaptive-vs-fixed equivalence over the stdlib cells.
//!
//! The adaptive controller's contract is behavioral equivalence at
//! the SFQ level: the *same pulses* (count-exact) at the *same times*
//! (within half a picosecond — five fixed-mode steps) for a fraction
//! of the steps. These tests enforce the contract across randomized
//! cell parameters, and pin the public margin searches (now backed by
//! adaptive probes) to the values the fixed-step solver measures.

use jjsim::margins::{self, find_margin};
use jjsim::stdlib::{
    clocked_and, dff, jtl_chain, shift_register, splitter, AndParams, DffParams, JtlParams,
};
use jjsim::{Circuit, ElementId, SimOptions, Solver};
use proptest::prelude::*;

const PULSE_TOL_S: f64 = 0.5e-12;

/// Run `build()`'s circuit in both modes and assert pulse equivalence
/// over `probes`.
fn assert_equivalent(build: &dyn Fn() -> Circuit, probes: &[ElementId], t_end: f64) {
    let fixed = Solver::new(build(), SimOptions::default())
        .expect("valid circuit")
        .try_run(t_end)
        .expect("fixed-step run converges");
    let adaptive = Solver::new(build(), SimOptions::adaptive())
        .expect("valid circuit")
        .try_run(t_end)
        .expect("adaptive run converges");
    for (k, &jj) in probes.iter().enumerate() {
        let f = fixed.pulse_times(jj);
        let a = adaptive.pulse_times(jj);
        assert_eq!(
            f.len(),
            a.len(),
            "probe {k}: adaptive pulse count {} != fixed {}",
            a.len(),
            f.len()
        );
        for (tf, ta) in f.iter().zip(a) {
            assert!(
                (tf - ta).abs() < PULSE_TOL_S,
                "probe {k}: pulse at {:.3} ps moved to {:.3} ps",
                tf * 1e12,
                ta * 1e12
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// JTL chains across their bias margin and a range of lengths.
    #[test]
    fn jtl_adaptive_equivalent(bias in 0.66f64..0.84, n in 3usize..9) {
        let p = JtlParams { bias_frac: bias, ..Default::default() };
        let (_, stages) = jtl_chain(n, &p);
        assert_equivalent(&|| jtl_chain(n, &p).0, &stages, 60e-12 + 40e-12 * n as f64);
    }

    /// DFF store-and-release across its readout-bias margin, plus the
    /// clock-without-data quiet case.
    #[test]
    fn dff_adaptive_equivalent(bias in 0.40e-4f64..0.62e-4) {
        let p = DffParams { bias_out: bias, ..Default::default() };
        let (_, pr) = dff(&[60e-12], &[100e-12], &p);
        assert_equivalent(
            &|| dff(&[60e-12], &[100e-12], &p).0,
            &[pr.input, pr.output, pr.forward],
            170e-12,
        );
        let (_, pr) = dff(&[], &[100e-12], &p);
        assert_equivalent(&|| dff(&[], &[100e-12], &p).0, &[pr.output], 170e-12);
    }

    /// Clocked AND over all four input combinations.
    #[test]
    fn and_adaptive_equivalent(case in 0usize..4) {
        let p = AndParams::default();
        let a: &[f64] = if case & 1 != 0 { &[60e-12] } else { &[] };
        let b: &[f64] = if case & 2 != 0 { &[60e-12] } else { &[] };
        let (_, pr) = clocked_and(a, b, &[100e-12], &p);
        assert_equivalent(
            &|| clocked_and(a, b, &[100e-12], &p).0,
            &[pr.store_a, pr.store_b, pr.output],
            170e-12,
        );
    }
}

/// Splitter and a 3-stage shift register, fixed parameters (their
/// testbenches have no free knob worth randomizing).
#[test]
fn splitter_and_shift_register_adaptive_equivalent() {
    let p = JtlParams::default();
    let (_, pr) = splitter(&p);
    assert_equivalent(&|| splitter(&p).0, &[pr.input, pr.out_a, pr.out_b], 140e-12);

    let dp = DffParams::default();
    let clocks = [100e-12, 140e-12, 180e-12];
    let (_, pr) = shift_register(3, 60e-12, &clocks, 0.0, &dp);
    assert_equivalent(
        &|| shift_register(3, 60e-12, &clocks, 0.0, &dp).0,
        &pr.stage_outputs,
        240e-12,
    );
}

/// Adaptive mode must actually pay for itself: a several-fold step
/// reduction on the mostly-quiescent characterization testbenches.
#[test]
fn adaptive_reduces_steps_at_least_3x_on_cells() {
    let p = JtlParams::default();
    let run = |opts: SimOptions| {
        Solver::new(jtl_chain(8, &p).0, opts)
            .unwrap()
            .try_run(380e-12)
            .unwrap()
            .accepted_steps
    };
    let fixed = run(SimOptions::default());
    let adaptive = run(SimOptions::adaptive());
    assert!(
        adaptive * 3 <= fixed,
        "adaptive {adaptive} steps vs fixed {fixed}"
    );
}

/// The public margin searches are backed by adaptive probes and a
/// process-wide memo; their results must be *identical* (not merely
/// close) to a fixed-step search, because every probe's boolean
/// outcome — pulse counts — is preserved exactly by the controller.
#[test]
fn margins_unchanged_by_adaptive_probes() {
    jjsim::extract::clear_extract_cache();

    let jtl_fixed = find_margin(0.72, 0.5, 6, |bias| {
        let p = JtlParams {
            bias_frac: bias,
            ..Default::default()
        };
        let (ckt, stages) = jtl_chain(4, &p);
        let out = Solver::new(ckt, SimOptions::default())?.try_run(200e-12)?;
        Ok(stages.iter().all(|j| out.pulse_count(*j) == 1))
    })
    .expect("fixed-step margin converges");
    let jtl_adaptive = margins::jtl_bias_margin().expect("adaptive margin converges");
    assert_eq!(jtl_fixed, jtl_adaptive);

    let dff_fixed = find_margin(0.5e-4, 0.6, 6, |bias| {
        let p = DffParams {
            bias_out: bias,
            ..Default::default()
        };
        let (ckt, probes) = dff(&[60e-12], &[100e-12], &p);
        let out = Solver::new(ckt, SimOptions::default())?.try_run(160e-12)?;
        let stores = out.pulse_count(probes.input) == 1 && out.pulse_count(probes.output) == 1;
        let (ckt, probes) = dff(&[], &[100e-12], &p);
        let out = Solver::new(ckt, SimOptions::default())?.try_run(160e-12)?;
        let quiet = out.pulse_count(probes.output) == 0;
        Ok(stores && quiet)
    })
    .expect("fixed-step margin converges");
    let dff_adaptive = margins::dff_bias_margin().expect("adaptive margin converges");
    assert_eq!(dff_fixed, dff_adaptive);
}
