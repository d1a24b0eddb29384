//! Incremental re-characterization: on a miss, `sfq_chars::measure_with`
//! runs every testbench extraction through the `jjsim::extract`
//! transient memo, keyed on each exact circuit, so a sweep point that
//! perturbs one family's parameters (JTL, DFF, clocked AND) re-runs
//! only that family's transients. Observed through the process-global
//! `jjsim.solver.transient_runs` counter, which is why everything lives
//! in a single `#[test]` (same pattern as `characterization_cache.rs`).

use jjsim::stdlib::{AndParams, DffParams, JtlParams};

#[test]
fn perturbing_one_family_reruns_only_its_testbenches() {
    sfq_chars::clear_measure_cache();
    let jtl = JtlParams::default();
    let dff = DffParams::default();
    let and = AndParams::default();

    // Cold fill: every testbench runs.
    let t0 = jjsim::transient_runs();
    let base = sfq_chars::measure_with(&jtl, &dff, &and).expect("baseline measurement");
    let full = jjsim::transient_runs() - t0;
    assert!(full > 0, "cold characterization must run transients");

    // Identical parameters: the outer memo answers, zero transients.
    let t = jjsim::transient_runs();
    let again = sfq_chars::measure_with(&jtl, &dff, &and).expect("memoized measurement");
    assert_eq!(jjsim::transient_runs(), t, "outer memo hit must be free");
    assert_eq!(again, base);

    // Perturb only the AND storage inductance: the JTL and DFF numbers
    // must be reused bit-identically without re-running their benches.
    let and2 = AndParams {
        l_store: and.l_store * 1.01,
        ..and
    };
    let t = jjsim::transient_runs();
    let m = sfq_chars::measure_with(&jtl, &dff, &and2).expect("AND perturbation");
    let d_and = jjsim::transient_runs() - t;
    assert!(d_and > 0, "changed AND params must re-run AND benches");
    assert!(d_and < full, "AND perturbation must not re-run everything");
    for (got, want) in [
        (m.jtl_delay_ps, base.jtl_delay_ps),
        (m.jtl_energy_aj, base.jtl_energy_aj),
        (m.splitter_delay_ps, base.splitter_delay_ps),
        (m.dff_delay_ps, base.dff_delay_ps),
        (m.dff_energy_aj, base.dff_energy_aj),
        (m.sr_max_ghz, base.sr_max_ghz),
    ] {
        assert_eq!(got.to_bits(), want.to_bits(), "unperturbed family drifted");
    }

    // Perturb only the DFF parameters.
    let dff2 = DffParams {
        l_store: dff.l_store * 1.01,
        ..dff
    };
    let t = jjsim::transient_runs();
    let m = sfq_chars::measure_with(&jtl, &dff2, &and).expect("DFF perturbation");
    let d_dff = jjsim::transient_runs() - t;
    assert!(d_dff > 0);
    assert_eq!(m.jtl_delay_ps.to_bits(), base.jtl_delay_ps.to_bits());
    assert_eq!(m.and_delay_ps.to_bits(), base.and_delay_ps.to_bits());
    assert_eq!(m.and_energy_aj.to_bits(), base.and_energy_aj.to_bits());

    // Perturb only the JTL parameters.
    let jtl2 = JtlParams {
        l: jtl.l * 1.01,
        ..jtl
    };
    let t = jjsim::transient_runs();
    let m = sfq_chars::measure_with(&jtl2, &dff, &and).expect("JTL perturbation");
    let d_jtl = jjsim::transient_runs() - t;
    assert!(d_jtl > 0);
    assert_eq!(m.dff_delay_ps.to_bits(), base.dff_delay_ps.to_bits());
    assert_eq!(m.sr_max_ghz.to_bits(), base.sr_max_ghz.to_bits());
    assert_eq!(m.and_delay_ps.to_bits(), base.and_delay_ps.to_bits());

    // The three family costs partition the cold fill exactly: every
    // testbench belongs to exactly one family.
    assert_eq!(
        d_jtl + d_dff + d_and,
        full,
        "family transient counts must sum to a cold characterization"
    );

    // Returning to already-seen parameter sets is free again, even
    // though the outer key (the full triple) is new in one case.
    let t = jjsim::transient_runs();
    let m = sfq_chars::measure_with(&jtl2, &dff2, &and2).expect("recombined parameters");
    assert_eq!(
        jjsim::transient_runs(),
        t,
        "every family is memoized; recombination must run nothing"
    );
    assert!(m.jtl_delay_ps > 0.0);

    sfq_chars::clear_measure_cache();
}
