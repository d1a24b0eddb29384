//! The parallel sweep engine must be a pure speed-up: running a sweep
//! across worker threads has to produce *bit-identical* output to the
//! serial run. [`sfq_par::par_map`] guarantees this by construction
//! (results are placed by item index, never by completion order);
//! this test checks the property end-to-end through real sweeps.
//!
//! One `#[test]` on purpose: [`sfq_par::set_threads`] is process-wide
//! state, so the serial/parallel comparison must not race with another
//! test toggling it.

use supernpu::explore::{fig20_buffer_sweep, fig21_resource_sweep, fig22_register_sweep};

/// Run `sweep` with the result memo emptied first, and require that it
/// really computed (a memo miss), so the comparison below never
/// compares a result with a stored copy of itself.
fn cold<T: serde::Serialize>(sweep: fn() -> T) -> String {
    supernpu::clear_result_cache();
    let out = serde_json::to_string(&sweep()).unwrap();
    assert_eq!(
        sfq_obs::counter("supernpu.results.cache_miss").get(),
        1,
        "sweep was served from the result memo"
    );
    out
}

#[test]
fn sweeps_are_bit_identical_serial_vs_parallel() {
    // Serial reference.
    sfq_par::set_threads(1);
    let fig20_serial = cold(fig20_buffer_sweep);
    let fig21_serial = cold(fig21_resource_sweep);
    let fig22_serial = cold(fig22_register_sweep);

    // Parallel run (oversubscribes on small machines — that only makes
    // completion order *more* scrambled, which is the point).
    sfq_par::set_threads(4);
    let fig20_par = cold(fig20_buffer_sweep);
    let fig21_par = cold(fig21_resource_sweep);
    let fig22_par = cold(fig22_register_sweep);

    // JSON strings carry full f64 round-trip precision, so string
    // equality here is bit-for-bit equality of every number.
    assert_eq!(fig20_serial, fig20_par, "fig20 parallel output diverged");
    assert_eq!(fig21_serial, fig21_par, "fig21 parallel output diverged");
    assert_eq!(fig22_serial, fig22_par, "fig22 parallel output diverged");
}
