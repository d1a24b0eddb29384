//! Workspace-level tests of the `sfq-obs` metrics layer: counters and
//! histograms stay accurate under `sfq_par` concurrency, snapshots of
//! identical workloads are identical, the disabled path records
//! nothing, and — the property the whole design hangs on — enabling
//! metrics does not change a sweep's output by a single bit.
//!
//! The registry is process-global, so everything runs inside one test
//! function in a fixed order (same pattern as the `sfq-par` tests).

use supernpu::explore::fig20_buffer_sweep;

/// A fixed, fully deterministic workload: only counters and
/// integer-valued samples, no clock reads.
fn fixed_workload() {
    for i in 0..10u64 {
        sfq_obs::add("obs_test.fixed.events", i);
        sfq_obs::observe("obs_test.fixed.sizes", (1 << (i % 7)) as f64);
    }
    sfq_obs::gauge_set("obs_test.fixed.level", 42.0);
}

#[test]
fn observability_end_to_end() {
    // --- 1. Accuracy under par_map concurrency -----------------------
    sfq_obs::set_enabled(true);
    sfq_obs::reset();
    sfq_par::set_threads(4);
    let items: Vec<u64> = (1..=64).collect();
    let doubled = sfq_par::par_map(&items, |&i| {
        sfq_obs::add("obs_test.par.events", i);
        // Integer-valued samples: the histogram's CAS-summed f64 total
        // is exact, so the assertion below is an equality.
        sfq_obs::observe("obs_test.par.sample", i as f64);
        i * 2
    });
    assert_eq!(doubled.len(), 64);
    let expected: u64 = items.iter().sum(); // 2080
    assert_eq!(sfq_obs::counter("obs_test.par.events").get(), expected);
    let h = sfq_obs::histogram("obs_test.par.sample");
    assert_eq!(h.count(), 64);
    assert_eq!(h.sum(), expected as f64);
    assert_eq!(h.min(), 1.0);
    assert_eq!(h.max(), 64.0);
    // The pool instrumented itself too: every item became a task.
    let snap = sfq_obs::snapshot();
    assert!(
        snap.counter("par.tasks").unwrap_or(0) >= 64,
        "par.tasks missing"
    );
    assert!(snap.histogram("par.task_ms").is_some_and(|t| t.count >= 64));

    // --- 2. Snapshot determinism after a fixed workload --------------
    sfq_obs::reset();
    fixed_workload();
    let first = sfq_obs::snapshot();
    sfq_obs::reset();
    fixed_workload();
    let second = sfq_obs::snapshot();
    assert_eq!(
        first, second,
        "identical workloads must snapshot identically"
    );
    assert_eq!(first.counter("obs_test.fixed.events"), Some(45));
    // And the snapshot survives a JSON round-trip through the export
    // path used for metrics.json.
    let json = supernpu::export::metrics_json().expect("metrics enabled");
    let back: sfq_obs::MetricsReport = serde_json::from_str(&json).expect("round-trip");
    assert_eq!(back, second);

    // --- 3. Disabled path records nothing ----------------------------
    sfq_obs::set_enabled(false);
    let before = sfq_obs::snapshot();
    fixed_workload();
    let _ = sfq_par::par_map(&items, |&i| {
        sfq_obs::inc("obs_test.disabled.events");
        i
    });
    {
        let _region = sfq_obs::region("obs_test.disabled.region");
    }
    let after = sfq_obs::snapshot();
    assert_eq!(
        before, after,
        "disabled metrics must not touch the registry"
    );
    assert_eq!(after.counter("obs_test.disabled.events"), None);
    // With every sink off a region feeds none of them.
    assert!(after.histogram("obs_test.disabled.region_ms").is_none());
    assert_eq!(sfq_obs::trace::sinks_registered(), 0, "no trace sink");
    assert_eq!(sfq_obs::prof::threads_registered(), 0, "no profile tree");

    // --- 4. Metrics cannot change results: fig20 bit-identical -------
    // The result memo is emptied before each run, so both runs compute
    // the sweep instead of re-serving the first one.
    supernpu::clear_result_cache();
    let off = serde_json::to_string(&fig20_buffer_sweep()).unwrap();
    sfq_obs::set_enabled(true);
    sfq_obs::reset();
    supernpu::clear_result_cache();
    let on = serde_json::to_string(&fig20_buffer_sweep()).unwrap();
    assert_eq!(off, on, "enabling metrics changed the sweep output");
    // ...while actually having recorded the sweep.
    let snap = sfq_obs::snapshot();
    assert!(snap
        .histogram("explore.fig20.point_ms")
        .is_some_and(|h| h.count > 0));
    sfq_obs::set_enabled(false);

    // --- 5. Panic hook flushes sinks before unwinding ----------------
    // A panicking run must still land its SUPERNPU_METRICS_JSON
    // snapshot on disk (the hook fires before unwinding, so this holds
    // even under panic=abort, which a dropped DumpOnExit guard does
    // not).
    let dir = std::env::temp_dir().join(format!("obs_panic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let json_path = dir.join("metrics.json");
    std::env::set_var("SUPERNPU_METRICS_JSON", &json_path);
    sfq_obs::set_enabled(true);
    sfq_obs::install_panic_flush();
    let unwound = std::panic::catch_unwind(|| {
        sfq_obs::inc("obs_test.panic.events");
        panic!("deliberate test panic");
    });
    assert!(unwound.is_err());
    let written = std::fs::read_to_string(&json_path).expect("panic hook wrote metrics json");
    let report: sfq_obs::MetricsReport = serde_json::from_str(&written).expect("parses");
    assert_eq!(report.counter("obs_test.panic.events"), Some(1));
    std::env::remove_var("SUPERNPU_METRICS_JSON");
    std::fs::remove_dir_all(&dir).ok();
    sfq_obs::set_enabled(false);
}
