//! Robustness bench for the execution-guard layer: demonstrates the
//! three guarantees of [`supernpu::resilient::run_resilient`] on the
//! real design-space sweeps and writes the evidence to
//! `BENCH_robust.json`.
//!
//! 1. **Overhead** — with guards disabled
//!    ([`ResilientOpts::unguarded`]) the resilient Fig. 20 sweep must
//!    cost within 2% (plus a small absolute floor for scheduler
//!    noise) of the plain sweep, and produce bit-identical values.
//! 2. **Zero silent loss under chaos** — with the chaos harness
//!    injecting panics, forced timeouts and stalls into 3/16 of
//!    `(task, attempt)` draws, every point of every sweep still ends
//!    `Completed` or `Degraded` with a value; `lost()` is zero.
//! 3. **Bit-identical resume** — a sweep cancelled mid-flight leaves
//!    an atomic checkpoint whose resumed continuation reproduces the
//!    uninterrupted run's values byte-for-byte.
//!
//! Any violated invariant is reported on stderr and the binary exits
//! nonzero — but the report is written first, so the `bench_compare`
//! gate can show exactly which check regressed.
//!
//! `--smoke` shrinks the run (single timing pass, Fig. 20 only) for
//! the `scripts/check.sh --chaos` gate.

use std::time::{Duration, Instant};

use serde::Serialize;
use serde_json::Value;
use sfq_guard::{chaos, CancelToken, RunBudget};
use supernpu::explore::{fig20_buffer_sweep, fig20_buffer_sweep_resilient};
use supernpu::resilient::{ResilientOpts, SweepReport};
use supernpu_bench::clear_caches;
use supernpu_bench::report::{die, to_json_pretty, write_report};

/// Seed for the chaos harness: deterministic, so the injected
/// failures (and therefore the retry/degrade counters) are the same
/// on every run.
const CHAOS_SEED: u64 = 2024;

/// Relative overhead budget for the unguarded resilient path.
const MAX_OVERHEAD_FRAC: f64 = 0.02;

/// Absolute floor added to the overhead budget: the Fig. 20 sweep is
/// a couple of milliseconds, where scheduler noise alone exceeds 2%.
const OVERHEAD_FLOOR_MS: f64 = 2.0;

/// Iterations folded into one timing sample so the measured window is
/// tens of milliseconds instead of ~2 ms.
const OVERHEAD_REPS: usize = 10;

fn json_of<T: Serialize>(what: &str, value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|e| die(format!("serialize {what}: {e}")))
}

/// Best-of-`passes` wall clock of `reps` back-to-back runs (caches
/// cleared before each rep so every rep pays the same cold cost).
fn timed<R>(passes: usize, reps: usize, mut run: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..passes {
        let t0 = Instant::now();
        for _ in 0..reps {
            clear_caches();
            out = Some(run());
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    match out {
        Some(r) => (r, best),
        None => die("timed(): zero passes ran"),
    }
}

/// One `"robust"` report entry from a sweep report, plus the
/// invariant violations it contributes.
fn sweep_entry<P: Serialize>(
    name: &str,
    report: &SweepReport<P>,
    ms: f64,
    failures: &mut Vec<String>,
) -> Value {
    let (completed, degraded, timed_out, cancelled, failed) = report.state_counts();
    let points = report.points.len();
    let lost = report.lost();
    if lost != 0 {
        failures.push(format!("{name}: {lost} point(s) silently lost"));
    }
    if completed + degraded + timed_out + cancelled + failed != points {
        failures.push(format!(
            "{name}: state counts do not cover all {points} points"
        ));
    }
    Value::Object(vec![
        ("name".into(), Value::Str(name.to_owned())),
        ("points".into(), Value::U64(points as u64)),
        ("completed".into(), Value::U64(completed as u64)),
        ("degraded".into(), Value::U64(degraded as u64)),
        ("timed_out".into(), Value::U64(timed_out as u64)),
        ("cancelled".into(), Value::U64(cancelled as u64)),
        ("failed".into(), Value::U64(failed as u64)),
        ("lost".into(), Value::U64(lost as u64)),
        ("restored".into(), Value::U64(report.restored as u64)),
        ("ms".into(), Value::F64(ms)),
    ])
}

fn resilient_fig20(opts: &ResilientOpts) -> SweepReport<supernpu::explore::BufferSweepPoint> {
    fig20_buffer_sweep_resilient(opts).unwrap_or_else(|e| die(format!("fig20 resilient: {e}")))
}

fn main() {
    let _session = supernpu_bench::session::begin("bench_robust");
    supernpu_bench::header("bench_robust", "execution-guard robustness gates");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let passes = if smoke { 1 } else { 3 };
    let reps = if smoke { 2 } else { OVERHEAD_REPS };
    let mut failures: Vec<String> = Vec::new();
    let mut entries: Vec<Value> = Vec::new();

    // ------------------------------------------------ 1. overhead
    // Plain sweep vs the unguarded resilient path. Warm-up first so
    // lazy statics and page faults land outside both windows.
    let _ = fig20_buffer_sweep();
    let (plain_points, plain_ms) = timed(passes, reps, fig20_buffer_sweep);
    let unguarded = ResilientOpts::unguarded();
    let (guarded_report, guarded_ms) = timed(passes, reps, || resilient_fig20(&unguarded));
    let values_match = json_of("plain fig20", &plain_points)
        == json_of("guarded fig20", &guarded_report.clone().values());
    let overhead_frac = (guarded_ms - plain_ms) / plain_ms;
    let within_overhead = guarded_ms <= plain_ms * (1.0 + MAX_OVERHEAD_FRAC) + OVERHEAD_FLOOR_MS;
    if !values_match {
        failures.push("unguarded resilient sweep diverged from the plain sweep".into());
    }
    if !within_overhead {
        failures.push(format!(
            "guards-disabled overhead {:.1}% exceeds {:.0}% (+{OVERHEAD_FLOOR_MS} ms floor): \
             plain {plain_ms:.2} ms vs guarded {guarded_ms:.2} ms",
            overhead_frac * 100.0,
            MAX_OVERHEAD_FRAC * 100.0,
        ));
    }
    entries.push(sweep_entry(
        "fig20_unguarded",
        &guarded_report,
        guarded_ms,
        &mut failures,
    ));
    println!(
        "overhead: plain {plain_ms:.2} ms, guarded {guarded_ms:.2} ms ({:+.1}%), identical: {values_match}",
        overhead_frac * 100.0
    );

    // --------------------------------------------------- 2. chaos
    // Deterministic injected panics/timeouts/stalls; the ladder must
    // still label and value every point. The hook swap keeps the
    // injected panics from spraying backtraces over the report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::set_chaos(Some(CHAOS_SEED));
    let guarded = ResilientOpts::unguarded();
    clear_caches();
    let t0 = Instant::now();
    let chaos_fig20 = resilient_fig20(&guarded);
    let chaos_ms = t0.elapsed().as_secs_f64() * 1e3;
    entries.push(sweep_entry(
        "fig20_chaos",
        &chaos_fig20,
        chaos_ms,
        &mut failures,
    ));
    if !smoke {
        clear_caches();
        let t0 = Instant::now();
        let chaos_fig21 = supernpu::explore::fig21_resource_sweep_resilient(&guarded)
            .unwrap_or_else(|e| die(format!("fig21 resilient: {e}")));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        entries.push(sweep_entry("fig21_chaos", &chaos_fig21, ms, &mut failures));
    }
    chaos::set_chaos(None);
    std::panic::set_hook(hook);
    let (c, d, ..) = chaos_fig20.state_counts();
    println!(
        "chaos(seed={CHAOS_SEED}): fig20 {} pts -> {c} completed, {d} degraded, {} lost",
        chaos_fig20.points.len(),
        chaos_fig20.lost()
    );

    // ------------------------------------------------- 3. resume
    // Reference run (uninterrupted), a cancelled run that leaves an
    // atomic checkpoint, and a resumed run that must reproduce the
    // reference byte-for-byte.
    let dir = std::env::temp_dir().join("supernpu_bench_robust");
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = dir.join("fig20.ckpt.json");

    clear_caches();
    let reference = resilient_fig20(&ResilientOpts::unguarded());
    let reference_json = json_of("reference fig20", &reference.values());

    let token = CancelToken::new();
    let killer = {
        let token = token.clone();
        // Fire mid-sweep: roughly half of one uninterrupted pass.
        let delay = Duration::from_secs_f64((plain_ms / reps as f64 / 2.0 / 1e3).max(5e-4));
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            token.cancel();
        })
    };
    let killed_opts = ResilientOpts::unguarded()
        .with_budget(RunBudget::unlimited().with_cancel(token))
        .with_checkpoint(ckpt.clone(), 2, false);
    clear_caches();
    let killed = resilient_fig20(&killed_opts);
    killer
        .join()
        .unwrap_or_else(|_| die("cancel timer thread panicked"));
    let (killed_done, killed_degraded, _, killed_cancelled, _) = killed.state_counts();

    entries.push(sweep_entry("fig20_killed", &killed, 0.0, &mut failures));

    let resume_opts = ResilientOpts::unguarded().with_checkpoint(ckpt, 2, true);
    clear_caches();
    let t0 = Instant::now();
    let resumed = resilient_fig20(&resume_opts);
    let resume_ms = t0.elapsed().as_secs_f64() * 1e3;
    entries.push(sweep_entry(
        "fig20_resumed",
        &resumed,
        resume_ms,
        &mut failures,
    ));
    let restored = resumed.restored;
    let resume_identical = json_of("resumed fig20", &resumed.values()) == reference_json;
    if !resume_identical {
        failures.push("resumed sweep diverged from the uninterrupted reference".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "resume: kill left {}/{} durable points ({killed_cancelled} cancelled), \
         resume restored {restored}, identical: {resume_identical}",
        killed_done + killed_degraded,
        killed.points.len()
    );

    // ------------------------------------------------- report
    let bench = Value::Object(vec![
        (
            "schema_version".into(),
            Value::U64(u64::from(sfq_obs::SCHEMA_VERSION)),
        ),
        ("robust".into(), Value::Array(entries)),
        ("chaos_seed".into(), Value::U64(CHAOS_SEED)),
        (
            "overhead".into(),
            Value::Object(vec![
                ("plain_ms".into(), Value::F64(plain_ms)),
                ("guarded_ms".into(), Value::F64(guarded_ms)),
                ("overhead_frac".into(), Value::F64(overhead_frac)),
                ("max_overhead_frac".into(), Value::F64(MAX_OVERHEAD_FRAC)),
                ("within_overhead".into(), Value::Bool(within_overhead)),
                ("values_match".into(), Value::Bool(values_match)),
            ]),
        ),
        (
            "resume".into(),
            Value::Object(vec![
                ("resume_identical".into(), Value::Bool(resume_identical)),
                ("restored".into(), Value::U64(restored as u64)),
            ]),
        ),
    ]);
    let json = to_json_pretty("BENCH_robust", &bench).unwrap_or_else(|e| die(e));
    write_report("BENCH_robust.json", &json).unwrap_or_else(|e| die(e));
    println!("\nreport written to BENCH_robust.json");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        supernpu_bench::session::fail(format!(
            "{} robustness invariant(s) violated",
            failures.len()
        ));
    }
    println!("all robustness invariants hold");
}
