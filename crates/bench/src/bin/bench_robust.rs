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
//! The report gates every sweep's point-state tallies as invariants and
//! the two chaos sweeps' wall clocks, which their injected stalls and
//! retry back-offs dominate. The unguarded and resumed sweeps' times
//! are printed, not gated: over 20 runs on a 2-vCPU host each spread
//! 2.3–2.5× from fastest to slowest run.
//!
//! Any violated invariant is reported on stderr and the binary exits
//! nonzero — but the report is written first, so the `bench_compare`
//! gate can show exactly which count moved.
//!
//! `--smoke` shrinks the run (Fig. 20 only) for the
//! `scripts/check.sh --chaos` gate.

use std::time::Instant;

use serde::Serialize;
use sfq_guard::chaos::{self, ChaosAction};
use sfq_guard::{CancelToken, RunBudget};
use sfq_par::resilient::{ResilientOpts, SweepReport};
use supernpu::explore::fig20_buffer_sweep_resilient;
use supernpu_bench::gate::{self, Record};
use supernpu_bench::report::die;
use supernpu_bench::{clear_caches, cut_to_first_half};

/// Seed for the chaos harness: deterministic, so the injected
/// failures (and therefore the retry/degrade counters) are the same
/// on every run. Its first-attempt draws put a panic and a timeout
/// into Fig. 20's seven tasks and a panic or a timeout into Fig. 21's
/// five; [`chaos_misses`] checks that.
const CHAOS_SEED: u64 = 8;

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

/// Run `sweep` on cold caches; its report and wall clock in ms.
fn timed<P>(sweep: impl FnOnce() -> SweepReport<P>) -> (SweepReport<P>, f64) {
    clear_caches();
    let t0 = Instant::now();
    let report = sweep();
    (report, t0.elapsed().as_secs_f64() * 1e3)
}

/// The point-state tallies of one sweep as invariant records, plus the
/// invariant violations it contributes.
fn sweep_records<P: Serialize>(
    name: &str,
    report: &SweepReport<P>,
    records: &mut Vec<Record>,
    failures: &mut Vec<String>,
) {
    let (completed, degraded, timed_out, cancelled, failed) = report.state_counts();
    let lost = report.lost();
    if lost != 0 {
        failures.push(format!("{name}: {lost} point(s) silently lost"));
    }
    let points = report.points.len();
    if completed + degraded + timed_out + cancelled + failed != points {
        failures.push(format!(
            "{name}: state counts do not cover all {points} points"
        ));
    }
    const TALLY: &str = "deterministic: a fixed sweep, chaos seed and checkpoint cut";
    for (state, count) in [
        ("points", points),
        ("completed", completed),
        ("degraded", degraded),
        ("timed_out", timed_out),
        ("cancelled", cancelled),
        ("failed", failed),
        ("restored", report.restored),
    ] {
        records.push(Record::invariant(
            format!("{name}.{state}"),
            count as u64,
            TALLY,
        ));
    }
}

fn resilient_fig20(opts: &ResilientOpts) -> SweepReport<supernpu::explore::BufferSweepPoint> {
    fig20_buffer_sweep_resilient(opts).unwrap_or_else(|e| die(format!("fig20 resilient: {e}")))
}

fn main() {
    let _session = supernpu_bench::session::begin("bench_robust");
    supernpu_bench::header("bench_robust", "execution-guard robustness gates");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut failures: Vec<String> = Vec::new();
    let mut records: Vec<Record> = Vec::new();

    // ------------------------------------------------ unguarded run
    // Warm-up first so lazy statics and page faults land outside the
    // timed window.
    let unguarded = ResilientOpts::unguarded();
    let _ = resilient_fig20(&unguarded);
    let (unguarded_report, unguarded_ms) = timed(|| resilient_fig20(&unguarded));
    sweep_records(
        "fig20_unguarded",
        &unguarded_report,
        &mut records,
        &mut failures,
    );
    println!("unguarded fig20: {unguarded_ms:.2} ms");

    // --------------------------------------------------- 1. chaos
    // Deterministic injected panics/timeouts/stalls; the ladder must
    // still label and value every point. The hook swap keeps the
    // injected panics from spraying backtraces over the report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::set_chaos(Some(CHAOS_SEED));
    const CHAOS_SPREAD: &str =
        "max/min - 1 over 20 runs on a 2-vCPU host, rounded up to 0.05; injected stalls \
         and retry back-offs dominate the time";
    let guarded = ResilientOpts::unguarded();
    let (chaos_fig20, chaos_ms) = timed(|| resilient_fig20(&guarded));
    sweep_records("fig20_chaos", &chaos_fig20, &mut records, &mut failures);
    records.push(Record::timing(
        "fig20_chaos.ms",
        chaos_ms,
        0.10,
        CHAOS_SPREAD,
    ));
    failures.extend(chaos_misses("fig20", chaos_fig20.points.len(), true));
    if !smoke {
        let (chaos_fig21, ms) = timed(|| {
            supernpu::explore::fig21_resource_sweep_resilient(&guarded)
                .unwrap_or_else(|e| die(format!("fig21 resilient: {e}")))
        });
        sweep_records("fig21_chaos", &chaos_fig21, &mut records, &mut failures);
        records.push(Record::timing("fig21_chaos.ms", ms, 0.25, CHAOS_SPREAD));
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
    sweep_records("fig20_killed", &killed, &mut records, &mut failures);
    if killed_cancelled == 0 {
        failures.push("fig20_killed: the cancelled resume cancelled no point".into());
    }

    let resume_opts = ResilientOpts::unguarded().with_checkpoint(ckpt, 2, true);
    let (resumed, resume_ms) = timed(|| resilient_fig20(&resume_opts));
    sweep_records("fig20_resumed", &resumed, &mut records, &mut failures);
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
         clean resume restored {restored} in {resume_ms:.2} ms, identical: {resume_identical}",
        killed.restored,
        killed.points.len()
    );

    gate::write("BENCH_robust.json", &records).unwrap_or_else(|e| die(e));

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
