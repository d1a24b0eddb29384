//! # supernpu-bench
//!
//! Experiment regenerators for the SuperNPU reproduction: one binary
//! per paper table, figure and extension study (`fig05_network`, …,
//! `full_report`), each rendered from the one [`artifacts`] table, plus
//! the bench gates and Criterion benchmarks of the simulator,
//! estimator and transient circuit solver.
//!
//! Regenerate every artifact, in one process, with:
//!
//! ```text
//! cargo run -p supernpu-bench --release --bin run_all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod gate;
pub mod observatory;
pub mod report;
pub mod session;

/// Print the standard experiment header.
pub fn header(id: &str, paper_ref: &str) {
    println!("== {id} — reproduces {paper_ref} ==");
    println!();
}

/// Empty every process-wide memo a timed run could be served from:
/// the result memo, the estimate memo and the characterization memos
/// (which also drop the memoized transients). The bench harnesses call
/// this before each timed run, so every run pays the same cold cost
/// and none of them times memo lookups.
pub fn clear_caches() {
    supernpu::clear_result_cache();
    sfq_estimator::clear_estimate_cache();
    sfq_chars::clear_measure_cache();
}

/// Write `results/metrics.json` from the live [`sfq_obs`] registry.
/// No-op unless metrics are enabled (`SUPERNPU_METRICS=1`), so the
/// experiment binaries can call this unconditionally at the end of
/// `main` without changing their default-run artifacts.
pub fn write_metrics() {
    if !sfq_obs::enabled() {
        return;
    }
    let dir = std::path::Path::new("results");
    let written =
        std::fs::create_dir_all(dir).and_then(|()| supernpu::export::write_metrics_json(dir));
    match written {
        Ok(Some(path)) => {
            sfq_obs::ledger::record_artifact(&path);
            eprintln!("metrics written to {}", path.display());
        }
        Ok(None) => {}
        Err(e) => eprintln!("could not write metrics.json: {e}"),
    }
}
