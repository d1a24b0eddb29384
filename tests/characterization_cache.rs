//! The characterization cache must make repeated characterizations
//! free: the first `sfq_chars::characterize()` runs the jjsim
//! testbenches, every later call with the same inputs must run *zero*
//! new transients. Observable through the [`jjsim::transient_runs`]
//! counter, which the solver bumps at the top of every transient.
//!
//! One `#[test]` on purpose: the counter and caches are process-wide,
//! and this integration binary runs nothing else, so the transient
//! count is attributable to the calls below.

use sfq_cells::CellLibrary;
use sfq_estimator::{estimate, NpuConfig};

/// `(hits, misses)` of the memo counting into `<name>.cache_hit` and
/// `<name>.cache_miss`.
fn memo_counts(name: &str) -> (u64, u64) {
    (
        sfq_obs::counter(&format!("{name}.cache_hit")).get(),
        sfq_obs::counter(&format!("{name}.cache_miss")).get(),
    )
}

#[test]
fn second_characterization_runs_no_new_transients() {
    assert_eq!(jjsim::transient_runs(), 0, "no transients before measuring");

    let first = sfq_chars::characterize().expect("testbenches converge");
    let runs_after_first = jjsim::transient_runs();
    assert!(runs_after_first > 0, "first characterization must simulate");
    let (hits0, misses0) = memo_counts("chars.measure");
    assert_eq!((hits0, misses0), (0, 1));

    let second = sfq_chars::characterize().expect("cache hit cannot fail");
    assert_eq!(
        jjsim::transient_runs(),
        runs_after_first,
        "second characterization re-ran jjsim transients"
    );
    let (hits1, misses1) = memo_counts("chars.measure");
    assert_eq!((hits1, misses1), (1, 1));

    // The cached library is the same library, bit for bit.
    for (kind, g) in first.iter() {
        let h = second.gate(kind);
        assert_eq!(g.delay_ps.to_bits(), h.delay_ps.to_bits(), "{kind:?}");
        assert_eq!(g.energy_aj.to_bits(), h.energy_aj.to_bits(), "{kind:?}");
    }

    // Downstream, repeated architecture estimates memoize too: the
    // second estimate of the same design under the same library is a
    // cache hit and returns an identical estimate (and, transitively,
    // never touches jjsim either).
    let cfg = NpuConfig::paper_supernpu();
    let lib = CellLibrary::aist_10um();
    let e1 = estimate(&cfg, &lib);
    let (_, m_before) = memo_counts("estimator.estimate");
    let e2 = estimate(&cfg, &lib);
    let (hits, misses) = memo_counts("estimator.estimate");
    assert_eq!(misses, m_before, "second estimate must not recompute");
    assert!(hits >= 1);
    assert_eq!(e1.frequency_ghz.to_bits(), e2.frequency_ghz.to_bits());
    assert_eq!(e1.area_mm2_28nm.to_bits(), e2.area_mm2_28nm.to_bits());
    assert_eq!(
        jjsim::transient_runs(),
        runs_after_first,
        "estimates must never run transients"
    );

    // Clearing the cache forces a real re-measurement.
    sfq_chars::clear_measure_cache();
    let _ = sfq_chars::measure().expect("testbenches converge");
    assert!(jjsim::transient_runs() > runs_after_first);
}
