//! Event-tracing tour: record a transient solve, a design-space sweep
//! on the worker pool, and an NPU access trace into one Chrome
//! trace-event JSON file, then re-read and validate it.
//!
//! Run with:
//!
//! ```text
//! SUPERNPU_TRACE=out.json cargo run --example trace --release
//! ```
//!
//! (Without the variable the example defaults to `trace.json` in the
//! current directory so it works out of the box.) Load the file in
//! <https://ui.perfetto.dev> or `chrome://tracing`: process 1 holds
//! the wall-clock tracks (main thread, `pool worker N`), process 2
//! the deterministic cycle-domain tracks of the NPU simulator.
//!
//! The example exits nonzero if the written file is not valid Chrome
//! trace JSON or is missing any of the expected track families, so
//! `scripts/check.sh` uses it as the end-to-end tracing gate.

use std::process::ExitCode;

use serde_json::Value;

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn main() -> ExitCode {
    // Honor SUPERNPU_TRACE when set; default so the example works
    // without any environment. Detail mode adds the solver's per-step
    // accept/reject/restamp instants.
    if sfq_obs::trace::path().is_none() {
        sfq_obs::trace::set_trace(Some("trace.json"));
    }
    sfq_obs::trace::set_detail(true);
    sfq_par::set_threads(sfq_par::threads().max(2));

    // 1. A transient solve — one `jjsim.solver.run` slice plus detail
    //    instants on the jjsim track.
    let (ckt, stages) = jjsim::stdlib::jtl_chain(8, &jjsim::stdlib::JtlParams::default());
    let out = jjsim::Solver::new(ckt, jjsim::SimOptions::default())
        .expect("valid circuit")
        .run(250e-12);
    println!(
        "jtl solve: pulse reaches stage 7 at {:.2} ps",
        out.pulse_times(stages[7]).first().copied().unwrap_or(0.0) * 1e12
    );

    // 2. A design-space sweep — the `explore.fig20` region's slice in
    //    category `explore` plus `par.*` region slices on the
    //    `pool worker N` tracks of the par_map fan-out.
    let points = supernpu::explore::fig20_buffer_sweep();
    println!("fig20 sweep: {} points", points.len());

    // 3. The cycle-domain process: AlexNet's access trace as
    //    deterministic cycle-timestamped tracks (1 µs = 1 cycle).
    let cfg = sfq_npu_sim::SimConfig::paper_supernpu();
    let net = dnn_models::zoo::alexnet();
    let mut ct = supernpu::export::cycle_trace(&cfg, &net, 4);

    // Merge the wall-clock events recorded above and write one file.
    sfq_obs::trace::drain_into(&mut ct);
    let path = sfq_obs::trace::path().expect("trace path was set above");
    if let Err(e) = ct.write(&path) {
        eprintln!("FAIL: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {} events to {}", ct.len(), path.display());

    // 4. Validate: parse the file back and check the required fields
    //    and track families are all present.
    let raw = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("FAIL: cannot re-read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let parsed: Value = match serde_json::from_str(&raw) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("FAIL: trace file is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(events) = get(&parsed, "traceEvents").and_then(Value::as_array) else {
        eprintln!("FAIL: no traceEvents array");
        return ExitCode::FAILURE;
    };
    let mut failures = Vec::new();
    if events.is_empty() {
        failures.push("traceEvents is empty".to_owned());
    }
    for (i, e) in events.iter().enumerate() {
        for field in ["ph", "ts", "pid", "tid", "name"] {
            if get(e, field).is_none() {
                failures.push(format!("event {i} lacks required field '{field}'"));
            }
        }
    }
    // Track families: pool workers and named categories.
    type Pred<'a> = &'a dyn Fn(&Value) -> bool;
    let has = |pred: Pred| events.iter().any(pred);
    let cat_is = |e: &Value, want: &str| get(e, "cat").and_then(Value::as_str) == Some(want);
    let meta_name_contains = |e: &Value, want: &str| {
        get(e, "ph").and_then(Value::as_str) == Some("M")
            && get(e, "args")
                .and_then(|a| get(a, "name"))
                .and_then(Value::as_str)
                .is_some_and(|n| n.contains(want))
    };
    let checks: [(&str, Pred); 5] = [
        ("pool worker track", &|e| {
            meta_name_contains(e, "pool worker")
        }),
        ("solver slice", &|e| cat_is(e, "jjsim")),
        ("explore sweep slice", &|e| cat_is(e, "explore")),
        ("npusim cycle slice", &|e| {
            cat_is(e, "npusim")
                && get(e, "pid").and_then(Value::as_u64)
                    == Some(u64::from(sfq_obs::trace::CYCLE_PID))
        }),
        ("pe array track", &|e| meta_name_contains(e, "pe array")),
    ];
    for (what, pred) in checks {
        if !has(pred) {
            failures.push(format!("missing {what}"));
        }
    }

    if failures.is_empty() {
        println!(
            "trace OK: {} events, all required fields present, all track families found",
            events.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
