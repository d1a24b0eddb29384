//! Byte-for-byte gate on what the artifact binaries print and write.
//!
//! Each of the 20 artifact binaries and `run_all` runs in a fresh
//! directory under the test's temporary area, with every `SUPERNPU_*`
//! knob cleared and the run ledger inside that directory. The
//! FNV-1a-64 digest of each stdout is compared with a committed
//! constant, `run_all` runs a second time on one worker thread and
//! must print the same bytes, and the CSVs `export_csv` writes and the
//! `report.md` `full_report` writes must equal the files committed
//! under `results/`. One `run_all` run leaves one ledger manifest,
//! which lists those eight files, and the one-thread run solves 13
//! transients.
//!
//! The digests were captured once, from the binaries as they were
//! before the artifact table existed, and are never edited: a change
//! that moves any printed byte fails here.

use std::path::{Path, PathBuf};
use std::process::Command;

use sfq_obs::ledger::RunManifest;

/// `(binary, executable path, committed stdout digest)`.
macro_rules! bin {
    ($name:literal, $digest:literal) => {
        ($name, env!(concat!("CARGO_BIN_EXE_", $name)), $digest)
    };
}

/// The 20 artifact binaries in `run_all` order, then `run_all`.
const GOLDEN: &[(&str, &str, u64)] = &[
    bin!("fig05_network", 0xa67b_0117_3c10_55f7),
    bin!("fig07_feedback", 0xec84_597d_e598_bb7e),
    bin!("fig08_duplication", 0x2432_7173_a022_0097),
    bin!("fig13_validation", 0xd836_bd48_d517_b966),
    bin!("fig15_breakdown", 0x404b_63e4_69b8_1c7b),
    bin!("fig17_roofline", 0x24a5_b10c_b190_0010),
    bin!("fig20_buffer_opt", 0xb996_ccce_6a2a_600e),
    bin!("fig21_resource_balance", 0x5793_ce72_11c9_0c09),
    bin!("fig22_registers", 0x798f_fce3_56ea_329b),
    bin!("fig23_performance", 0xceec_32f9_b027_a4f8),
    bin!("table1_setup", 0xf700_e292_0ad9_df76),
    bin!("table2_batches", 0xfd0a_a7ed_ab42_b34d),
    bin!("table3_power", 0x9940_884a_aac7_b0d1),
    bin!("ablations", 0x97d0_b291_fb8a_bcb3),
    bin!("ext_sensitivity", 0x5bfa_4c74_5f4b_083e),
    bin!("ext_accelerators", 0x9345_0b8e_5bb4_696c),
    bin!("ext_characterize", 0xe6c3_8808_04d1_83ab),
    bin!("ext_pareto", 0x7999_8d2d_1acd_e162),
    bin!("export_csv", 0x9309_d14a_407f_be31),
    bin!("full_report", 0x557b_922e_3b0d_b6ee),
    bin!("run_all", 0xe26c_4abd_2d06_8a7d),
];

/// The series `export_csv` writes, each committed as `results/<name>.csv`.
const CSVS: [&str; 7] = [
    "fig15_breakdown",
    "fig17_roofline",
    "fig20_buffer_opt",
    "fig21_resource_balance",
    "fig22_registers",
    "fig23_performance",
    "table3_power",
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn golden(name: &str) -> (&'static str, u64) {
    GOLDEN
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, exe, digest)| (exe, digest))
        .unwrap_or_else(|| panic!("no golden entry for {name}"))
}

/// Run `exe` in a fresh directory `tag` with the ledger in
/// `<dir>/ledger`, no inherited `SUPERNPU_*` knob and the extra `env`;
/// returns the directory and the stdout of the (successful) run.
fn run(exe: &str, tag: &str, env: &[(&str, &str)]) -> (PathBuf, Vec<u8>) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("artifact_outputs")
        .join(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear run dir");
    }
    std::fs::create_dir_all(&dir).expect("create run dir");
    let mut cmd = Command::new(exe);
    cmd.current_dir(&dir);
    for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("SUPERNPU_")) {
        cmd.env_remove(key);
    }
    cmd.env("SUPERNPU_LEDGER", dir.join("ledger"))
        .envs(env.iter().copied());
    let out = cmd.output().expect("spawn artifact binary");
    assert!(
        out.status.success(),
        "{tag} exited with {}; stderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, out.stdout)
}

fn committed(rel: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The seven CSVs under `dir/results` equal the committed ones, and
/// no other CSV was written.
fn check_csvs(dir: &Path) {
    for name in CSVS {
        let rel = format!("results/{name}.csv");
        let written = std::fs::read(dir.join(&rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        assert!(
            written == committed(&rel),
            "{rel} differs from the committed file"
        );
    }
    let written = std::fs::read_dir(dir.join("results"))
        .expect("results dir")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "csv"))
        })
        .count();
    assert_eq!(written, CSVS.len(), "export wrote an unexpected CSV set");
}

fn check_report(dir: &Path) {
    let written = std::fs::read(dir.join("results/report.md")).expect("read results/report.md");
    assert!(
        written == committed("results/report.md"),
        "results/report.md differs from the committed file"
    );
}

/// Report every digest that moved at once, as `GOLDEN` rows.
fn check_digests(got: &[(&str, u64)]) {
    let bad: Vec<String> = got
        .iter()
        .filter(|&&(name, d)| golden(name).1 != d)
        .map(|(name, d)| format!("    bin!(\"{name}\", 0x{d:016x}),"))
        .collect();
    assert!(
        bad.is_empty(),
        "artifact stdout moved; binaries that differ from GOLDEN:\n{}",
        bad.join("\n")
    );
}

#[test]
fn every_artifact_binary_prints_its_committed_bytes() {
    let mut got = Vec::new();
    for &(name, exe, _) in GOLDEN.iter().filter(|(n, _, _)| *n != "run_all") {
        let (dir, stdout) = run(exe, name, &[]);
        got.push((name, fnv1a(&stdout)));
        match name {
            "export_csv" => check_csvs(&dir),
            "full_report" => check_report(&dir),
            _ => {}
        }
    }
    check_digests(&got);
}

#[test]
fn run_all_prints_every_artifact_at_any_thread_count() {
    let (exe, _) = golden("run_all");
    let (dir, stdout) = run(exe, "run_all", &[]);
    let (serial_dir, serial) = run(
        exe,
        "run_all_serial",
        &[
            ("SUPERNPU_THREADS", "1"),
            ("SUPERNPU_METRICS_JSON", "metrics.json"),
        ],
    );
    check_digests(&[("run_all", fnv1a(&stdout)), ("run_all", fnv1a(&serial))]);
    check_csvs(&dir);
    check_report(&dir);

    // Every paper artifact needs only 13 distinct transients, and the
    // `jjsim::extract` memo runs each once. Both counters record with
    // metrics off.
    let text = std::fs::read_to_string(serial_dir.join("metrics.json")).expect("read metrics.json");
    let metrics: sfq_obs::MetricsReport = serde_json::from_str(&text).expect("parse metrics.json");
    assert_eq!(metrics.counter("jjsim.solver.transient_runs"), Some(13));
    assert_eq!(metrics.counter("jjsim.extract.cache_miss"), Some(13));

    // One process, one run record, and it names every file it wrote.
    let manifests: Vec<PathBuf> = std::fs::read_dir(dir.join("ledger"))
        .expect("ledger dir")
        .map(|e| e.expect("ledger entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    assert_eq!(manifests.len(), 1, "run_all left {manifests:?}");
    let text = std::fs::read_to_string(&manifests[0]).expect("read manifest");
    let manifest: RunManifest = serde_json::from_str(&text).expect("parse manifest");
    assert_eq!(manifest.bin, "run_all");
    let mut artifacts = manifest.artifacts;
    artifacts.sort();
    let mut expected: Vec<String> = CSVS.iter().map(|n| format!("results/{n}.csv")).collect();
    expected.push("results/report.md".to_owned());
    expected.sort();
    assert_eq!(artifacts, expected);
}
