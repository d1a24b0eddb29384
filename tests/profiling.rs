//! Workspace-level tests of the `sfq_obs::prof` hierarchical profiler:
//! the disabled path registers nothing and records nothing, enabling
//! profiling does not change the fig. 20 sweep output by a single bit,
//! the recorded tree has the documented structure (sweep frame, detail
//! point frames, estimator cache frames, npusim layer frames, solver
//! kernel laps under an explicit wrapper frame), the collapsed-stack
//! export is well-formed, and the report round-trips through JSON.
//!
//! The profiler registry is process-global, so everything runs inside
//! one test function in a fixed order (same pattern as the tracing
//! tests).

use sfq_obs::prof;

#[test]
fn profiling_end_to_end() {
    // --- 1. Disabled path registers and records nothing ---------------
    prof::set_profile(None);
    prof::clear();
    assert!(!prof::enabled());
    {
        let _f = prof::frame("never");
        prof::count("never", 1);
        prof::record_leaf("never", 1, 100);
    }
    assert_eq!(
        prof::threads_registered(),
        0,
        "disabled helpers must not register a thread tree"
    );
    assert!(
        prof::snapshot().paths.is_empty(),
        "disabled helpers must record nothing"
    );

    // --- 2. Profiling on/off does not change sweep output -------------
    // The result memo is emptied before each run, so both runs compute
    // the sweep (and the profiled one records its frames).
    supernpu::clear_result_cache();
    let off = serde_json::to_string(&supernpu::explore::fig20_buffer_sweep()).unwrap();
    prof::set_profile(Some("unused-profile-path.json"));
    prof::set_detail(true);
    supernpu::clear_result_cache();
    let on = serde_json::to_string(&supernpu::explore::fig20_buffer_sweep()).unwrap();
    prof::set_detail(false);
    // JSON strings carry full f64 round-trip precision, so string
    // equality here is bit-for-bit equality of every number.
    assert_eq!(off, on, "profiling changed fig20 sweep output");

    // --- 3. The recorded tree has the documented structure -------------
    let report = prof::snapshot();
    assert!(report.threads >= 1);
    let sweep = report.path("explore.fig20").expect("sweep frame recorded");
    assert_eq!(sweep.calls, 1);
    assert!(sweep.incl_ms > 0.0);
    assert!(
        report.paths.iter().any(|p| p.path.contains("fig20 d=")),
        "detail-gated per-point frames missing: {:?}",
        report.paths.iter().map(|p| &p.path).collect::<Vec<_>>()
    );
    assert!(
        report
            .paths
            .iter()
            .any(|p| p.path.contains("estimator.estimate")),
        "estimator cache frames missing"
    );
    assert!(
        report
            .paths
            .iter()
            .any(|p| p.path.contains("npusim.layer.")),
        "per-layer-class npusim frames missing"
    );

    // --- 4. Solver kernel laps under an explicit wrapper frame ---------
    {
        let _f = prof::frame("test_cell");
        let (ckt, _) = jjsim::stdlib::jtl_chain(40, &jjsim::stdlib::JtlParams::default());
        let solver = jjsim::Solver::new(ckt, jjsim::SimOptions::adaptive()).expect("valid circuit");
        solver.try_run(200e-12).expect("transient converges");
    }
    let report = prof::snapshot();
    let run = report
        .path("test_cell;solver.run")
        .expect("solver.run frame recorded under wrapper");
    assert_eq!(run.calls, 1);
    for kernel in [
        "restamp",
        "stamp",
        "newton",
        "newton;jj_stamp_rhs",
        "newton;lu_factor",
        "newton;lu_solve",
        "lte_control",
        "commit",
    ] {
        let p = report
            .path(&format!("test_cell;solver.run;{kernel}"))
            .unwrap_or_else(|| panic!("kernel path '{kernel}' missing"));
        assert!(p.calls > 0, "kernel '{kernel}' recorded zero calls");
    }
    assert!(
        report.descendants_self_ms("test_cell;solver.run") > 0.0,
        "kernel self-times all zero"
    );
    assert!(
        run.counters
            .iter()
            .any(|c| c.name == "steps" && c.value > 0),
        "solver unit counters missing: {:?}",
        run.counters
    );

    // --- 5. Batched solver kernels attribute under solver.run ----------
    // The lane-batched path must merge its kernel times under the same
    // `solver.run` frame (inside a `solver.batch` wrapper) with the
    // scalar kernel names, so the kernel-coverage gate counts batched
    // work as ordinary solver work.
    jjsim::set_batch_width(Some(jjsim::LANES));
    {
        let _f = prof::frame("test_batch");
        let circuits: Vec<_> = [1.0, 0.97, 1.03, 1.06]
            .iter()
            .map(|s| {
                let mut p = jjsim::stdlib::JtlParams::default();
                p.ic *= s;
                jjsim::stdlib::jtl_chain(10, &p).0
            })
            .collect();
        let batch = jjsim::BatchedTransient::new(circuits, jjsim::SimOptions::adaptive())
            .expect("batch builds");
        for r in batch.try_run(100e-12) {
            r.expect("batched transient converges");
        }
    }
    jjsim::set_batch_width(None);
    let report = prof::snapshot();
    let batch_run = report
        .path("test_batch;solver.batch;solver.run")
        .expect("batched solver.run frame recorded under solver.batch");
    assert_eq!(batch_run.calls, 1);
    for kernel in ["stamp", "newton;jj_stamp_rhs", "newton;lu_factor", "commit"] {
        let p = report
            .path(&format!("test_batch;solver.batch;solver.run;{kernel}"))
            .unwrap_or_else(|| panic!("batched kernel path '{kernel}' missing"));
        assert!(p.calls > 0, "batched kernel '{kernel}' recorded zero calls");
    }
    assert!(
        report.descendants_self_ms("test_batch;solver.batch;solver.run") > 0.0,
        "batched kernel self-times all zero — coverage gate would see an opaque run"
    );
    let batch_frame = report
        .path("test_batch;solver.batch")
        .expect("solver.batch wrapper frame recorded");
    assert!(
        batch_frame
            .counters
            .iter()
            .any(|c| c.name == "batch_lanes" && c.value > 0),
        "batch lane-occupancy counters missing: {:?}",
        batch_frame.counters
    );

    // --- 6. Exports: collapsed stacks and JSON round-trip --------------
    let folded = report.to_folded();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (path, weight) = line.rsplit_once(' ').expect("folded line has a weight");
        assert!(!path.is_empty());
        weight.parse::<u64>().expect("folded weight is an integer");
    }
    assert!(
        folded
            .lines()
            .any(|l| l.starts_with("test_cell;solver.run;newton ")),
        "folded output missing kernel stack"
    );
    let json = serde_json::to_string(&report).unwrap();
    let back: prof::ProfileReport = serde_json::from_str(&json).expect("report round-trips");
    assert_eq!(back.paths.len(), report.paths.len());
    assert!(back.top_self.len() <= prof::TOP_SELF_N);

    // Leave the process with profiling off for any later test code.
    prof::set_profile(None);
    prof::clear();
}
