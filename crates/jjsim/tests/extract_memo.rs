//! The `jjsim::extract` testbench memo: every scalar extraction, every
//! `max_shift_frequency` bisection trial and every margin probe solves
//! through one process-wide memo keyed on a bit-exact circuit
//! fingerprint and the horizon. A hit
//! must be bit-identical to a rerun and run no transient; anything
//! that could change the solve must miss; a failed run must never be
//! stored.
//!
//! One `#[test]` on purpose: the memo, its counters and
//! [`jjsim::transient_runs`] are process-wide, and this integration
//! binary runs nothing else, so every count is attributable to the
//! calls below.

use jjsim::extract::{
    and_clock_to_q, and_cycle_energy, clear_extract_cache, dff_clock_to_q, dff_cycle_energy,
    jtl_characteristics, max_shift_frequency, splitter_delay,
};
use jjsim::margins::{dff_bias_margin, jtl_bias_margin, Margin};
use jjsim::stdlib::{AndParams, DffParams, JtlParams};
use jjsim::SimError;
use sfq_guard::{CancelToken, RunBudget};

/// `f()`'s value and the number of real solver runs it started.
fn runs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = jjsim::transient_runs();
    let out = f();
    (out, jjsim::transient_runs() - before)
}

fn hits() -> u64 {
    sfq_obs::counter("jjsim.extract.cache_hit").get()
}

fn misses() -> u64 {
    sfq_obs::counter("jjsim.extract.cache_miss").get()
}

/// Every scalar extraction on one parameter triple, as raw bits.
fn extract_all(jtl: &JtlParams, dff: &DffParams, and: &AndParams) -> Vec<u64> {
    let j = jtl_characteristics(8, jtl).expect("JTL chain fires");
    [
        j.delay_s,
        j.energy_j,
        splitter_delay(jtl).expect("splitter fires"),
        dff_clock_to_q(dff).expect("DFF releases"),
        dff_cycle_energy(dff).expect("DFF converges"),
        and_clock_to_q(and).expect("AND fires"),
        and_cycle_energy(and).expect("AND converges"),
        max_shift_frequency(dff, 5.0, 50.0).expect("bisection converges"),
    ]
    .iter()
    .map(|v| v.to_bits())
    .collect()
}

#[test]
fn testbench_transients_are_memoized() {
    clear_extract_cache();
    assert_eq!((hits(), misses()), (0, 0), "clear resets the counters");
    let jtl = JtlParams::default();
    let dff = DffParams::default();
    let and = AndParams::default();

    // Clock-to-Q and cycle energy solve the same circuit: the energy
    // right after the delay is a hit.
    let (_, n) = runs_during(|| dff_clock_to_q(&dff).expect("DFF releases"));
    assert_eq!(n, 1, "cold DFF clock-to-Q runs one transient");
    let (_, n) = runs_during(|| dff_cycle_energy(&dff).expect("DFF converges"));
    assert_eq!(n, 0, "DFF cycle energy must reuse the clock-to-Q transient");
    let (_, n) = runs_during(|| and_clock_to_q(&and).expect("AND fires"));
    assert_eq!(n, 1, "cold AND clock-to-Q runs one transient");
    let (_, n) = runs_during(|| and_cycle_energy(&and).expect("AND converges"));
    assert_eq!(n, 0, "AND cycle energy must reuse the clock-to-Q transient");
    assert_eq!((hits(), misses()), (2, 2));

    // Cold fill of the rest; every miss is exactly one solver run.
    let (first, cold) = runs_during(|| extract_all(&jtl, &dff, &and));
    assert!(cold > 2, "JTL, splitter and bisection trials must run");
    assert_eq!(misses(), 2 + cold, "a miss is exactly one solver run");

    // Repeating every extraction is free and bit-identical.
    let hits_before = hits();
    let (again, n) = runs_during(|| extract_all(&jtl, &dff, &and));
    assert_eq!(n, 0, "repeated extractions re-ran transients");
    assert_eq!(again, first, "a memo hit changed a result");
    assert_eq!(misses(), 2 + cold);
    assert!(hits() > hits_before);

    // A one-ULP change in one inductance is a different circuit.
    let dff_ulp = DffParams {
        l_store: f64::from_bits(dff.l_store.to_bits() + 1),
        ..dff
    };
    let (_, n) = runs_during(|| dff_clock_to_q(&dff_ulp).expect("DFF releases"));
    assert_eq!(n, 1, "a one-ULP parameter change must miss");

    // A run stopped by a cancelled budget is not stored: the next plain
    // call solves for real and succeeds.
    let jtl_fresh = JtlParams {
        l: f64::from_bits(jtl.l.to_bits() + 1),
        ..jtl
    };
    let token = CancelToken::new();
    token.cancel();
    let cancelled = RunBudget::unlimited().with_cancel(token);
    let (err, n) =
        runs_during(|| sfq_guard::scope(&cancelled, || jtl_characteristics(8, &jtl_fresh)));
    assert!(err.expect_err("cancelled run must fail").is_cancelled());
    assert_eq!(n, 1);
    let (ok, n) = runs_during(|| jtl_characteristics(8, &jtl_fresh));
    assert!(ok.is_ok(), "plain run after a cancelled one failed: {ok:?}");
    assert_eq!(n, 1, "a cancelled run must not be memoized");

    // Margin searches probe through the memo too: a repeated search
    // runs no transient and finds the same margin.
    for (cell, search) in [
        ("JTL", jtl_bias_margin as fn() -> Result<Margin, SimError>),
        ("DFF", dff_bias_margin),
    ] {
        let (first, _) = runs_during(|| search().expect("margin converges"));
        let (again, n) = runs_during(|| search().expect("margin converges"));
        assert_eq!(n, 0, "repeated {cell} margin search re-ran transients");
        assert_eq!(again, first);
    }

    // Clearing drops every entry: the next call solves again, to the
    // same bits.
    clear_extract_cache();
    assert_eq!((hits(), misses()), (0, 0), "clear resets the counters");
    let (d, n) = runs_during(|| dff_clock_to_q(&dff).expect("DFF releases"));
    assert_eq!(n, 1, "a cleared memo must re-run the transient");
    assert_eq!(d.to_bits(), first[3]);
    assert_eq!((hits(), misses()), (0, 1));
}
