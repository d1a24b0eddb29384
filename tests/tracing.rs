//! Workspace-level tests of the `sfq_obs::trace` event-tracing layer:
//! the disabled path records nothing, concurrent recording into small
//! rings loses nothing silently (drained + dropped is exact, no torn
//! events), exported Chrome trace JSON parses and round-trips with
//! every required field, the npusim cycle export is bit-identical
//! across worker-pool sizes, and enabling tracing does not change a
//! solver result by a single bit.
//!
//! The sink registry is process-global, so everything runs inside one
//! test function in a fixed order (same pattern as the observability
//! tests).

use serde_json::Value;
use sfq_obs::trace;

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

#[test]
fn tracing_end_to_end() {
    // --- 1. Disabled path records nothing ----------------------------
    trace::set_trace(None);
    trace::clear();
    assert!(!trace::enabled());
    trace::complete("test", "never", 0.0, 1.0);
    trace::instant("test", "never");
    {
        let _s = sfq_obs::region("test.never");
    }
    assert_eq!(
        trace::sinks_registered(),
        0,
        "disabled helpers must not register a sink"
    );
    // With every sink off the region fed none of them.
    assert!(!sfq_obs::enabled() && !sfq_obs::prof::enabled());
    assert!(sfq_obs::snapshot().histogram("test.never_ms").is_none());
    assert_eq!(sfq_obs::prof::threads_registered(), 0, "no profile tree");
    let mut ct = trace::ChromeTrace::new();
    trace::drain_into(&mut ct);
    assert!(ct.is_empty(), "disabled helpers must record nothing");

    // --- 2. Tracing on/off does not change solver results ------------
    let (ckt, stages) = jjsim::stdlib::jtl_chain(4, &jjsim::stdlib::JtlParams::default());
    let solver = jjsim::Solver::new(ckt, jjsim::SimOptions::default()).expect("valid circuit");
    let off = solver.run(250e-12);
    trace::set_trace(Some("unused-trace-path.json"));
    trace::set_detail(true);
    let on = solver.run(250e-12);
    for &jj in &stages {
        assert_eq!(
            off.pulse_times(jj),
            on.pulse_times(jj),
            "tracing changed solver output"
        );
    }
    trace::set_detail(false);
    let mut solver_events = trace::ChromeTrace::new();
    trace::drain_into(&mut solver_events);
    let json = solver_events.to_json();
    assert!(json.contains("solver.run"), "missing solver.run slice");
    assert!(json.contains("accept"), "detail instants missing");

    // --- 3. Concurrent stress into tiny rings: exact accounting ------
    trace::clear();
    trace::set_ring_capacity(64);
    const THREADS: usize = 4;
    const PER_THREAD: usize = 1000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    trace::complete("stress", &format!("t{t}.e{i}"), i as f64, 1.0);
                }
            });
        }
    });
    let mut ct = trace::ChromeTrace::new();
    trace::drain_into(&mut ct);
    let drained = ct.len();
    let dropped = trace::events_dropped();
    assert_eq!(
        drained as u64 + dropped,
        (THREADS * PER_THREAD) as u64,
        "drained {drained} + dropped {dropped} must equal every event recorded"
    );
    assert_eq!(
        drained,
        THREADS * 64,
        "each ring keeps exactly its capacity"
    );
    // No torn events: every drained event is fully formed.
    let file: Value = serde_json::from_str(&ct.to_json()).expect("stress trace parses");
    let events = get(&file, "traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    for e in events {
        let ph = get(e, "ph").and_then(Value::as_str).expect("ph present");
        assert!(matches!(ph, "X" | "i" | "C" | "M"), "unknown phase {ph}");
        for field in ["ts", "pid", "tid", "name", "cat", "dur", "args"] {
            assert!(get(e, field).is_some(), "event lacks field '{field}'");
        }
        if ph == "X" && get(e, "cat").and_then(Value::as_str) == Some("stress") {
            let name = get(e, "name").and_then(Value::as_str).expect("name");
            assert!(
                name.starts_with('t') && name.contains(".e"),
                "torn name {name}"
            );
        }
    }
    // The drop counter is also surfaced as an always-on metric.
    assert_eq!(sfq_obs::counter("obs.trace.events_dropped").get(), dropped);

    // --- 4. Typed round-trip through serde ---------------------------
    let back: trace::TraceFile = serde_json::from_str(&ct.to_json()).expect("typed parse");
    assert_eq!(back, ct.to_file(), "TraceFile does not round-trip");

    // --- 5. npusim cycle export is thread-count invariant ------------
    trace::set_trace(None);
    trace::clear();
    let cfg = sfq_npu_sim::SimConfig::paper_supernpu();
    let net = dnn_models::zoo::alexnet();
    sfq_par::set_threads(1);
    let serial = supernpu::export::cycle_trace(&cfg, &net, 4).to_json();
    sfq_par::set_threads(4);
    let parallel = supernpu::export::cycle_trace(&cfg, &net, 4).to_json();
    assert_eq!(serial, parallel, "cycle export depends on thread count");
    assert!(serial.contains("pe array") && serial.contains("dram_bytes"));
}
