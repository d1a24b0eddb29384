//! The output check can fail: a golden file with one record changed
//! turns into failed items, and the committed golden files into none.
//!
//! Each case runs the benchmark binary for its minimum number of
//! passes; build in release mode to keep this quick:
//! `cargo test --release --offline --manifest-path bench_e2e/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.json"))
}

/// A copy of the workload's golden file with the first character of
/// its first record changed.
fn perturbed(workload: &str) -> PathBuf {
    let text = std::fs::read_to_string(golden_path(workload)).expect("golden file");
    let start = text.find("[\n[\"").expect("a first pass") + 4;
    let old = text.as_bytes()[start];
    let new = match old {
        b'P' => 'F',
        b'0' => '1',
        _ => '0',
    };
    let mut changed = text.clone();
    changed.replace_range(start..start + 1, &new.to_string());
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-perturbed.json"));
    std::fs::write(&path, changed).expect("write perturbed golden");
    path
}

/// Run one workload for its minimum passes; returns (attempted, failed).
fn run(workload: &str, seed: u64, golden: &Path) -> (u64, u64) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", "0", "--golden"])
        .arg(golden)
        .output()
        .expect("run bench_e2e");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let v: serde::Value = serde_json::from_str(last).expect("result is JSON");
    let field = |k: &str| {
        v.as_object()
            .and_then(|o| o.iter().find(|(name, _)| name == k))
            .map(|(_, x)| x.clone())
            .unwrap_or_else(|| panic!("result has no {k}"))
    };
    let attempted = field("attempted").as_u64().expect("attempted is a count");
    let failed = field("failed").as_u64().expect("failed is a count");
    assert_eq!(field("correct").as_bool(), Some(failed == 0));
    (attempted, failed)
}

fn check(workload: &str, perturbed_seed: u64) {
    let (attempted, failed) = run(workload, 1, &golden_path(workload));
    assert!(attempted > 0);
    assert_eq!(failed, 0, "{workload}: the committed golden must match");
    let (attempted, failed) = run(workload, perturbed_seed, &perturbed(workload));
    assert!(
        failed > 0 && failed <= attempted,
        "{workload}: a changed golden record must fail items"
    );
}

#[test]
fn paper_perturbed_golden_fails_items() {
    check("paper", 1);
}

#[test]
fn dse_perturbed_golden_fails_items() {
    // A seed other than the golden one: only the golden replays see it.
    check("dse", 7);
}

#[test]
fn mc_yield_perturbed_golden_fails_items() {
    check("mc_yield", 7);
}
