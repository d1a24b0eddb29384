//! The observatory CLI: aggregate the run ledger and the committed
//! `BENCH_*.json` baselines into `results/report.md` +
//! `results/report.html`.
//!
//! ```text
//! supernpu_report [--ledger results/ledger] [--out results] [--bench-dir .]
//! ```
//!
//! Runs are joined by (bin, config fingerprint); rows whose duration
//! exceeds the previous run's × 1.5 + 100 ms are flagged with the
//! literal `REGRESSION` marker
//! (`scripts/check.sh --report` greps for it). Exit is 0 even with
//! regressions present — this bin *reports*, the gate script decides.
//! Malformed ledger lines or baselines exit nonzero: a ledger that
//! does not parse is a bug, not noise.
//!
//! Deliberately **not** wrapped in `session::begin`: the observatory
//! reads the ledger it would otherwise be appending to, and the
//! `--report` smoke gate counts entries per producing bin.

use std::path::PathBuf;

use serde::Value;
use supernpu_bench::observatory::{build, load_ledger, BenchFile};
use supernpu_bench::report::{die, write_report};

fn usage() -> ! {
    eprintln!("usage: supernpu_report [--ledger <dir>] [--out <dir>] [--bench-dir <dir>]");
    std::process::exit(2);
}

fn main() {
    // The ledger directory this process would write (`SUPERNPU_LEDGER`
    // when it names one), else the default.
    let mut ledger_dir =
        sfq_obs::ledger::dir().unwrap_or_else(|| PathBuf::from(sfq_obs::ledger::DEFAULT_DIR));
    let mut out_dir = PathBuf::from("results");
    let mut bench_dir = PathBuf::from(".");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--ledger" => ledger_dir = PathBuf::from(value()),
            "--out" => out_dir = PathBuf::from(value()),
            "--bench-dir" => bench_dir = PathBuf::from(value()),
            _ => usage(),
        }
    }

    let runs = match load_ledger(&ledger_dir) {
        Ok(r) => r,
        Err(e) => die(e),
    };

    // Inventory every committed BENCH_*.json next to the repo root
    // (or wherever --bench-dir points), name-sorted for determinism.
    let mut bench: Vec<BenchFile> = Vec::new();
    let mut names: Vec<String> = match std::fs::read_dir(&bench_dir) {
        Ok(entries) => entries
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => die(format!("cannot list {}: {e}", bench_dir.display())),
    };
    names.sort();
    for name in names {
        let path = bench_dir.join(&name);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => die(format!("cannot read {}: {e}", path.display())),
        };
        let value: Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => die(format!("{}: malformed baseline: {e}", path.display())),
        };
        match BenchFile::from_value(&name, &value) {
            Ok(file) => bench.push(file),
            Err(e) => die(format!("{}: {e}", path.display())),
        }
    }

    let report = build(&runs, &bench);
    let md_path = out_dir.join("report.md");
    let html_path = out_dir.join("report.html");
    if let Err(e) = write_report(&md_path, &report.markdown) {
        die(e);
    }
    if let Err(e) = write_report(&html_path, &report.html) {
        die(e);
    }
    println!(
        "supernpu_report: {} run(s) in {} → {} trend group(s), {} regression flag(s), \
         {} baseline(s); wrote {} and {}",
        runs.len(),
        ledger_dir.display(),
        report.groups,
        report.regressions,
        bench.len(),
        md_path.display(),
        html_path.display()
    );
}
