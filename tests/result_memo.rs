//! The process-wide result memo: once each memoized result function
//! has run, `export::all_datasets` and `summary::full_report` re-run
//! no simulation, and what they render is byte-identical to a cold
//! render.
//!
//! One `#[test]` on purpose: the memo and its hit/miss counters are
//! process-wide.

use supernpu::{ablations, evaluator, explore, export, summary};

/// `(hits, misses)` of the result memo since the last clear.
fn counts() -> (u64, u64) {
    (
        sfq_obs::counter("supernpu.results.cache_hit").get(),
        sfq_obs::counter("supernpu.results.cache_miss").get(),
    )
}

#[test]
fn export_and_report_reuse_every_memoized_result() {
    supernpu::clear_result_cache();
    evaluator::fig15_cycle_breakdown();
    evaluator::fig17_roofline();
    evaluator::fig23_performance();
    evaluator::table3_power();
    explore::fig20_buffer_sweep();
    explore::fig21_resource_sweep();
    explore::fig22_register_sweep();
    ablations::all_ablations();
    assert_eq!(counts(), (0, 8), "each result computed once");

    let datasets = export::all_datasets();
    assert_eq!(counts(), (7, 8), "all_datasets reads its 7 results");
    let report = summary::full_report();
    assert_eq!(counts(), (15, 8), "full_report reads its 8 results");

    supernpu::clear_result_cache();
    let cold_datasets = export::all_datasets();
    let cold_report = summary::full_report();
    assert_eq!(counts(), (7, 8), "a cold render computes each result once");
    assert_eq!(datasets, cold_datasets);
    assert_eq!(report, cold_report);
}
