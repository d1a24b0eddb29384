//! Bench-regression gate CLI: compare a fresh bench report against a
//! committed baseline and exit nonzero on regression.
//!
//! ```text
//! bench_compare --baseline BENCH_sweeps.json --fresh /tmp/BENCH_sweeps.json
//! ```
//!
//! Each baseline record carries its own kind and tolerance; see
//! [`supernpu_bench::gate`] for what is checked.

use std::process::ExitCode;

use supernpu_bench::gate::compare_json;

fn usage() -> ! {
    eprintln!("usage: bench_compare --baseline <committed.json> --fresh <fresh.json>");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut baseline = None;
    let mut fresh = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--baseline" => baseline = Some(value()),
            "--fresh" => fresh = Some(value()),
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

    match compare_json(&base_json, &fresh_json) {
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
        Ok(report) => {
            println!(
                "bench_compare: {baseline} vs {fresh} — {} checks, {} failures, {} skipped",
                report.checks,
                report.failures.len(),
                report.skipped.len()
            );
            for s in &report.skipped {
                println!("SKIP: {s}");
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
