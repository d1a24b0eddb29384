//! # supernpu-bench
//!
//! Experiment regenerators for the SuperNPU reproduction: one binary
//! per paper table, figure and extension study (`fig05_network`, …,
//! `full_report`), each rendered from the one [`artifacts`] table, plus
//! the bench binaries and regression gates of the simulator, estimator
//! and transient circuit solver.
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
/// the result memo, the estimate memo, the characterization memo and
/// the transient memo beneath it. The bench harnesses call
/// this before each timed run, so every run pays the same cold cost
/// and none of them times memo lookups.
pub fn clear_caches() {
    supernpu::clear_result_cache();
    sfq_estimator::clear_estimate_cache();
    sfq_chars::clear_measure_cache();
}

/// Keep the first half of a sweep checkpoint's `points`, as a sweep
/// killed mid-flight leaves it: the robustness benches and tests
/// resume from a real checkpoint cut this way.
///
/// # Errors
///
/// The checkpoint is missing, unreadable, not a sweep checkpoint, holds
/// fewer than two points (its first half would keep nothing), or
/// cannot be written back.
pub fn cut_to_first_half(path: &std::path::Path) -> Result<(), String> {
    use serde_json::Value;
    let mut cp: Value = sfq_guard::checkpoint::load_json(path)
        .map_err(|e| e.to_string())?
        .ok_or("no checkpoint written")?;
    let Value::Object(fields) = &mut cp else {
        return Err("checkpoint is not an object".into());
    };
    let Some((_, Value::Array(points))) = fields.iter_mut().find(|(k, _)| k == "points") else {
        return Err("checkpoint has no points".into());
    };
    if points.len() < 2 {
        return Err(format!("a half needs two points, found {}", points.len()));
    }
    points.truncate(points.len() / 2);
    sfq_guard::checkpoint::atomic_write_json(path, &cp).map_err(|e| e.to_string())
}

/// `bench_faults`' report: its curve configuration, then the outcome
/// tallies of every yield point, all invariants. One function, so the
/// binary and the test that holds the committed `BENCH_faults.json` to
/// a fresh run name the records alike.
#[must_use]
pub fn yield_curve_records(
    seed: u64,
    samples: u32,
    retries: u32,
    curves: &[Vec<sfq_faults::YieldPoint>],
) -> Vec<gate::Record> {
    use gate::Record;
    const CONFIG: &str = "the curve configuration the tallies were drawn under";
    const TALLY: &str = "deterministic: one seed draws every sample";
    let mut records = vec![
        Record::invariant("seed", seed, CONFIG),
        Record::invariant("samples_per_point", u64::from(samples), CONFIG),
        Record::invariant("retries", u64::from(retries), CONFIG),
    ];
    for p in curves.iter().flatten() {
        for (outcome, count) in [
            ("pass", p.pass),
            ("fail", p.fail),
            ("non_convergent", p.non_convergent),
            ("panicked", p.panicked),
        ] {
            records.push(Record::invariant(
                format!("{}.sigma_{}.{outcome}", p.cell, p.sigma),
                u64::from(count),
                TALLY,
            ));
        }
    }
    records
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
