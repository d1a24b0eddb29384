//! Workspace-level tests of the run-ledger provenance layer
//! (`sfq_obs::ledger`) and the `supernpu_report` observatory:
//! manifest serde round-trip, atomic-write survival of a torn
//! mid-write temp file, `ledger.jsonl` validity under concurrent
//! appends, and byte-identical observatory output regardless of the
//! thread configuration.
//!
//! The ledger's run record is process-global, so the lifecycle pieces
//! run inside one test function in a fixed order (same pattern as the
//! observability tests).

use std::path::PathBuf;

use sfq_obs::ledger::{self, KnobSetting, RunManifest, RunOutcome};
use supernpu_bench::gate::Record;
use supernpu_bench::observatory::{build, load_ledger, BenchFile};

fn tempdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("supernpu_ledger_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn manifest(bin: &str, seq: u64, duration_ms: f64) -> RunManifest {
    RunManifest {
        schema_version: sfq_obs::SCHEMA_VERSION,
        bin: bin.to_owned(),
        seq,
        args: vec!["--points".into(), "100".into()],
        env: vec![
            KnobSetting {
                name: "SUPERNPU_FAULT_SEED".into(),
                value: "42".into(),
            },
            KnobSetting {
                name: "SUPERNPU_THREADS".into(),
                value: "4".into(),
            },
        ],
        threads: 4,
        chunk: 0,
        lanes: 4,
        seeds: vec![42],
        cargo_profile: "release".into(),
        target: "x86_64-linux".into(),
        duration_ms,
        outcome: RunOutcome::Ok,
        cache_hits: 37,
        cache_misses: 3,
        artifacts: vec!["BENCH_sweeps.json".into(), "results/metrics.json".into()],
    }
}

#[test]
fn manifest_serde_round_trip() {
    for outcome in [
        RunOutcome::Ok,
        RunOutcome::GateFail,
        RunOutcome::Panicked,
        RunOutcome::BudgetExceeded,
    ] {
        let mut m = manifest("bench_sweeps", 7, 123.5);
        m.outcome = outcome;
        let compact = serde_json::to_string(&m).unwrap();
        let back: RunManifest = serde_json::from_str(&compact).unwrap();
        assert_eq!(back, m, "compact round-trip");
        let pretty = serde_json::to_string_pretty(&m).unwrap();
        let back: RunManifest = serde_json::from_str(&pretty).unwrap();
        assert_eq!(back, m, "pretty round-trip");
    }
}

/// Torn-tmp pattern (from the faults MC checkpoints): a writer that
/// panics mid-write leaves only a `.tmp` sibling; the destination is
/// either absent or the last complete manifest, and the next
/// successful write clears the residue.
#[test]
fn atomic_write_survives_injected_mid_write_panic() {
    let dir = tempdir("torn");
    let path = dir.join("fig20_buffer_opt-0001.json");
    let good = serde_json::to_string_pretty(&manifest("fig20_buffer_opt", 1, 10.0)).unwrap();
    ledger::atomic_write(&path, good.as_bytes()).unwrap();

    // Injected mid-write crash: the staging file exists, torn, when
    // the writer dies. Simulate by writing the torn prefix exactly
    // where atomic_write stages, then panicking before the rename.
    let result = std::panic::catch_unwind(|| {
        std::fs::write(ledger::tmp_path(&path), &good.as_bytes()[..17]).unwrap();
        panic!("injected mid-write crash");
    });
    assert!(result.is_err(), "the injected panic must fire");

    // The destination still parses as the last complete manifest.
    let text = std::fs::read_to_string(&path).unwrap();
    let m: RunManifest = serde_json::from_str(&text).unwrap();
    assert_eq!(m.seq, 1);

    // A new write goes through cleanly and clears the residue.
    let newer = serde_json::to_string_pretty(&manifest("fig20_buffer_opt", 2, 11.0)).unwrap();
    ledger::atomic_write(&path, newer.as_bytes()).unwrap();
    let m: RunManifest = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(m.seq, 2);
    assert!(!ledger::tmp_path(&path).exists(), "no staging residue");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent bins sharing one ledger directory: every append is a
/// single `O_APPEND` write, so the jsonl stays line-valid no matter
/// how the writers interleave.
#[test]
fn jsonl_append_is_valid_after_concurrent_writers() {
    let dir = tempdir("jsonl");
    const WRITERS: u64 = 8;
    const PER_WRITER: u64 = 10;
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let dir = &dir;
            scope.spawn(move || {
                for i in 0..PER_WRITER {
                    let m = manifest(&format!("bin{w}"), i + 1, (w * 100 + i) as f64);
                    let line = serde_json::to_string(&m).unwrap();
                    ledger::append_jsonl(dir, &line).unwrap();
                }
            });
        }
    });
    let text = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, WRITERS * PER_WRITER);
    for (i, line) in lines.iter().enumerate() {
        let m: Result<RunManifest, _> = serde_json::from_str(line);
        assert!(m.is_ok(), "line {} is not a manifest: {line}", i + 1);
    }
    // And the observatory's loader agrees.
    let runs = load_ledger(&dir).unwrap();
    assert_eq!(runs.len() as u64, WRITERS * PER_WRITER);
    let _ = std::fs::remove_dir_all(&dir);
}

/// End-to-end lifecycle against an isolated directory: begin →
/// config/seed/artifact/outcome → flush, twice (the panic hook and
/// the exit guard both flush), must yield one manifest file, one
/// jsonl line, and an escalation-respecting outcome. One test body:
/// the run record is process-global.
#[test]
fn lifecycle_flush_is_idempotent_and_escalates_outcome() {
    let dir = tempdir("lifecycle");
    ledger::set_dir(Some(&dir));
    ledger::begin("test_bin");
    ledger::set_config(8, 16, 4);
    ledger::record_seed(1234);
    ledger::record_artifact(&dir.join("BENCH_x.json"));
    ledger::set_outcome(RunOutcome::BudgetExceeded);
    ledger::set_outcome(RunOutcome::GateFail);
    ledger::set_outcome(RunOutcome::BudgetExceeded); // must not de-escalate
    ledger::flush();
    ledger::flush(); // double flush: same seq, single jsonl line

    let manifest_path = dir.join("test_bin-0001.json");
    let m: RunManifest =
        serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
    assert_eq!(m.schema_version, sfq_obs::SCHEMA_VERSION);
    assert_eq!(m.bin, "test_bin");
    assert_eq!(m.seq, 1);
    assert_eq!((m.threads, m.chunk, m.lanes), (8, 16, 4));
    assert!(m.seeds.contains(&1234));
    assert_eq!(m.outcome, RunOutcome::GateFail, "escalation only");
    assert!(!m.cargo_profile.is_empty() && !m.target.is_empty());
    assert!(
        m.artifacts.iter().any(|a| a.ends_with("BENCH_x.json")),
        "{:?}",
        m.artifacts
    );

    let jsonl = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
    assert_eq!(jsonl.lines().count(), 1, "double flush appends once");

    // A second run of the same bin gets the next sequence number.
    ledger::begin("test_bin");
    ledger::flush();
    assert!(dir.join("test_bin-0002.json").exists());
    assert_eq!(
        std::fs::read_to_string(dir.join("ledger.jsonl"))
            .unwrap()
            .lines()
            .count(),
        2
    );

    // Disabled: everything below is a no-op and leaves no trace.
    ledger::set_dir(None);
    ledger::begin("ghost_bin");
    ledger::flush();
    assert!(!dir.join("ghost_bin-0001.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The observatory is a pure function of its inputs: its output must
/// be byte-identical under any `SUPERNPU_THREADS`/`set_threads`
/// configuration, and must both show a trend row and flag an
/// injected regression on a fixed two-run fixture.
#[test]
fn observatory_output_is_thread_invariant_and_flags_regressions() {
    let runs = vec![
        manifest("bench_sweeps", 1, 100.0),
        manifest("bench_sweeps", 2, 5000.0), // injected regression
    ];
    let bench = vec![BenchFile {
        name: "BENCH_sweeps.json".into(),
        records: vec![Record::floor("fig20.speedup", Some(1.2), 1.0, "floor")],
    }];

    let reference = build(&runs, &bench);
    assert_eq!(reference.groups, 1, "same config joins into one trend");
    assert_eq!(reference.regressions, 1);
    assert!(reference.markdown.contains("REGRESSION"));
    assert!(reference.markdown.contains("| 2 |"), "trend row for seq 2");
    assert!(reference.html.contains("class=\"regression\""));

    for threads in [1, 2, 7] {
        sfq_par::set_threads(threads);
        let again = build(&runs, &bench);
        assert_eq!(
            again, reference,
            "observatory output changed at {threads} threads"
        );
    }
    sfq_par::clear_threads();
}
