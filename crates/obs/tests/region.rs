//! `sfq_obs::region` with every sink on: one region yields one profile
//! frame, one trace slice in the category before the name's first dot
//! and one `<name>_ms` histogram sample; each sink records only if it
//! was on when the region opened. Also: a setter called before the
//! environment is read does not hide another sink's variable.
//!
//! The sinks are process-global, so this binary holds one test body.

use sfq_obs::{prof, trace};

#[test]
fn one_region_feeds_every_sink_that_was_on_when_it_opened() {
    // Before any other sfq_obs call: the environment asks for detail
    // profile frames and warnings, and a setter goes first.
    std::env::set_var("SUPERNPU_PROFILE_DETAIL", "1");
    std::env::set_var("SUPERNPU_LOG", "warn");
    sfq_obs::set_enabled(true);
    prof::set_profile(Some("unused-profile.json"));
    assert!(
        prof::detail_enabled(),
        "the setter hid SUPERNPU_PROFILE_DETAIL"
    );
    assert!(sfq_obs::log_enabled(sfq_obs::Level::Warn));
    assert!(!sfq_obs::log_enabled(sfq_obs::Level::Info));

    trace::set_trace(Some("unused-trace.json"));
    {
        let _region = sfq_obs::region("demo.block");
    }
    let frame = prof::snapshot();
    let frame = frame.path("demo.block").expect("profile frame recorded");
    assert_eq!(frame.calls, 1);
    let mut ct = trace::ChromeTrace::new();
    trace::drain_into(&mut ct);
    let slices: Vec<(String, String)> = ct
        .to_file()
        .traceEvents
        .into_iter()
        .filter(|e| e.ph == "X")
        .map(|e| (e.name, e.cat))
        .collect();
    assert_eq!(slices, [("demo.block".to_owned(), "demo".to_owned())]);
    let hist = sfq_obs::snapshot();
    let hist = hist.histogram("demo.block_ms").expect("histogram recorded");
    assert_eq!(hist.count, 1);

    // Opened with trace off: no slice, even though trace is on by the
    // time the region closes; the other sinks still record.
    trace::set_trace(None);
    let late = sfq_obs::region("demo.late");
    trace::set_trace(Some("unused-trace.json"));
    drop(late);
    let mut ct = trace::ChromeTrace::new();
    trace::drain_into(&mut ct);
    assert!(
        ct.is_empty(),
        "a region opened with trace off recorded a slice"
    );
    assert!(prof::snapshot().path("demo.late").is_some());
    let late = sfq_obs::snapshot();
    assert_eq!(late.histogram("demo.late_ms").map(|h| h.count), Some(1));

    trace::set_trace(None);
    prof::set_profile(None);
    sfq_obs::set_enabled(false);
}
