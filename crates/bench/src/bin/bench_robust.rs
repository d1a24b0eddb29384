//! Robustness bench for the execution-guard layer: demonstrates the
//! two guarantees of [`sfq_par::resilient::run_resilient`] on the
//! real design-space sweeps and writes the evidence to
//! `BENCH_robust.json`.
//!
//! 1. **Zero silent loss under chaos** — with the chaos harness
//!    injecting panics, forced timeouts and stalls into 3/16 of
//!    `(task, attempt)` draws, every point of every sweep still ends
//!    `Completed` or `Degraded` with a value; `lost()` is zero. The
//!    bench fails when its seed's first-attempt draws hold no panic or
//!    no timeout for Fig. 20, or neither for Fig. 21, since such a run
//!    would not exercise the recovery it checks.
//! 2. **Bit-identical resume** — a full checkpoint cut to its first
//!    half, as a sweep killed mid-flight leaves it, is resumed once
//!    under a cancelled token and then once clean. The bench fails
//!    unless the cancelled resume cancels a point, the clean one
//!    restores a point, and the clean one reproduces the uninterrupted
//!    run's values byte-for-byte.
//!
//! The `fig20_unguarded` entry records the unguarded Fig. 20 sweep's
//! state counts and wall clock, the time `bench_compare` trends.
//!
//! Any violated invariant is reported on stderr and the binary exits
//! nonzero — but the report is written first, so the `bench_compare`
//! gate can show exactly which check regressed.
//!
//! `--smoke` shrinks the run (single timing pass, Fig. 20 only) for
//! the `scripts/check.sh --chaos` gate.

use std::time::Instant;

use serde::Serialize;
use serde_json::Value;
use sfq_guard::chaos::{self, ChaosAction};
use sfq_guard::{CancelToken, RunBudget};
use sfq_par::resilient::{ResilientOpts, SweepReport};
use supernpu::explore::fig20_buffer_sweep_resilient;
use supernpu_bench::report::{die, to_json_pretty, write_report};
use supernpu_bench::{clear_caches, cut_to_first_half};

/// Seed for the chaos harness: deterministic, so the injected
/// failures (and therefore the retry/degrade counters) are the same
/// on every run. Its first-attempt draws put a panic and a timeout
/// into Fig. 20's seven tasks and a panic or a timeout into Fig. 21's
/// five; [`chaos_misses`] checks that.
const CHAOS_SEED: u64 = 8;

/// Iterations folded into one timing sample so the measured window is
/// tens of milliseconds instead of ~2 ms.
const TIMING_REPS: usize = 10;

/// Why [`CHAOS_SEED`] would not exercise a sweep of `tasks` points:
/// with `need_both`, its first-attempt draws lack a panic or a
/// timeout; without, they lack both.
fn chaos_misses(name: &str, tasks: usize, need_both: bool) -> Option<String> {
    let count = |action| {
        (0..tasks as u64)
            .filter(|&t| chaos::decide_seeded(CHAOS_SEED, t, 0) == Some(action))
            .count()
    };
    let (panics, timeouts) = (count(ChaosAction::Panic), count(ChaosAction::Timeout));
    let tested = if need_both {
        panics > 0 && timeouts > 0
    } else {
        panics + timeouts > 0
    };
    (!tested).then(|| {
        format!(
            "{name}: chaos seed {CHAOS_SEED} draws {panics} panic(s) and {timeouts} \
             timeout(s) in the first attempts of its {tasks} tasks"
        )
    })
}

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
    let reps = if smoke { 2 } else { TIMING_REPS };
    let mut failures: Vec<String> = Vec::new();
    let mut entries: Vec<Value> = Vec::new();

    // ------------------------------------------------ unguarded timing
    // Warm-up first so lazy statics and page faults land outside the
    // timed window.
    let unguarded = ResilientOpts::unguarded();
    let _ = resilient_fig20(&unguarded);
    let (unguarded_report, unguarded_ms) = timed(passes, reps, || resilient_fig20(&unguarded));
    entries.push(sweep_entry(
        "fig20_unguarded",
        &unguarded_report,
        unguarded_ms,
        &mut failures,
    ));
    println!("unguarded fig20: {unguarded_ms:.2} ms for {reps} sweep(s)");

    // --------------------------------------------------- 1. chaos
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
    failures.extend(chaos_misses("fig20", chaos_fig20.points.len(), true));
    if !smoke {
        clear_caches();
        let t0 = Instant::now();
        let chaos_fig21 = supernpu::explore::fig21_resource_sweep_resilient(&guarded)
            .unwrap_or_else(|e| die(format!("fig21 resilient: {e}")));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        entries.push(sweep_entry("fig21_chaos", &chaos_fig21, ms, &mut failures));
        failures.extend(chaos_misses("fig21", chaos_fig21.points.len(), false));
    }
    chaos::set_chaos(None);
    std::panic::set_hook(hook);
    let (c, d, ..) = chaos_fig20.state_counts();
    println!(
        "chaos(seed={CHAOS_SEED}): fig20 {} pts -> {c} completed, {d} degraded, {} lost",
        chaos_fig20.points.len(),
        chaos_fig20.lost()
    );

    // ------------------------------------------------- 2. resume
    // Reference run (uninterrupted); a full checkpoint cut to its
    // first half, as a kill mid-sweep leaves it; a resume under a
    // cancelled token, which restores the half and cancels the rest;
    // and a clean resume that must reproduce the reference
    // byte-for-byte.
    let dir = std::env::temp_dir().join("supernpu_bench_robust");
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = dir.join("fig20.ckpt.json");

    clear_caches();
    let reference = resilient_fig20(&ResilientOpts::unguarded());
    let reference_json = json_of("reference fig20", &reference.values());

    clear_caches();
    resilient_fig20(&ResilientOpts::unguarded().with_checkpoint(ckpt.clone(), 2, false));
    cut_to_first_half(&ckpt).unwrap_or_else(|e| die(format!("cut fig20 checkpoint: {e}")));

    let token = CancelToken::new();
    token.cancel();
    let killed_opts = ResilientOpts::unguarded()
        .with_budget(RunBudget::unlimited().with_cancel(token))
        .with_checkpoint(ckpt.clone(), 2, true);
    clear_caches();
    let killed = resilient_fig20(&killed_opts);
    let (_, _, _, killed_cancelled, _) = killed.state_counts();
    entries.push(sweep_entry("fig20_killed", &killed, 0.0, &mut failures));
    if killed_cancelled == 0 {
        failures.push("fig20_killed: the cancelled resume cancelled no point".into());
    }

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
    if restored == 0 {
        failures.push("fig20_resumed: the resume restored no point".into());
    }
    let resume_identical = json_of("resumed fig20", &resumed.values()) == reference_json;
    if !resume_identical {
        failures.push("resumed sweep diverged from the uninterrupted reference".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "resume: cancelled resume restored {}/{} points ({killed_cancelled} cancelled), \
         clean resume restored {restored}, identical: {resume_identical}",
        killed.restored,
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
