//! Bench-regression gate CLI: compare a fresh bench report against a
//! committed baseline and exit nonzero on regression.
//!
//! ```text
//! bench_compare --baseline BENCH_sweeps.json --fresh /tmp/BENCH_sweeps.json \
//!               [--factor 1.5] [--abs-ms 100]
//! ```
//!
//! Defaults can also come from `SUPERNPU_BENCH_FACTOR` and
//! `SUPERNPU_BENCH_ABS_MS`; explicit flags win. See
//! [`supernpu_bench::gate`] for what is checked.

use std::process::ExitCode;

use supernpu_bench::gate::{compare_json, Tolerances};

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare --baseline <committed.json> --fresh <fresh.json> \
         [--factor <mult>] [--abs-ms <ms>]"
    );
    std::process::exit(2);
}

fn env_f64(key: &str) -> Option<f64> {
    std::env::var(key).ok()?.parse().ok()
}

fn main() -> ExitCode {
    let mut baseline = None;
    let mut fresh = None;
    let mut tol = Tolerances::default();
    if let Some(f) = env_f64("SUPERNPU_BENCH_FACTOR") {
        tol.factor = f;
    }
    if let Some(a) = env_f64("SUPERNPU_BENCH_ABS_MS") {
        tol.abs_ms = a;
    }

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--baseline" => baseline = Some(value()),
            "--fresh" => fresh = Some(value()),
            "--factor" => tol.factor = value().parse().unwrap_or_else(|_| usage()),
            "--abs-ms" => tol.abs_ms = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let (Some(baseline), Some(fresh)) = (baseline, fresh) else {
        usage();
    };

    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_compare: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let base_json = read(&baseline);
    let fresh_json = read(&fresh);

    match compare_json(&base_json, &fresh_json, &tol) {
        Err(e) => {
            eprintln!("bench_compare: parse error: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            println!(
                "bench_compare: {baseline} vs {fresh} — {} checks, {} failures, \
                 {} vacuous (factor {}, abs {} ms)",
                report.checks,
                report.failures.len(),
                report.vacuous.len(),
                tol.factor,
                tol.abs_ms
            );
            for s in &report.skipped {
                println!("SKIP: {s}");
            }
            for v in &report.vacuous {
                println!("VACUOUS: {v}");
            }
            if report.passed() {
                println!("PASS");
                ExitCode::SUCCESS
            } else {
                for f in &report.failures {
                    eprintln!("FAIL: {f}");
                }
                ExitCode::FAILURE
            }
        }
    }
}
