//! Cross-crate tests of the execution-guard layer (the robustness
//! PR): deadlines and cooperative cancellation thread from the sweep
//! runner through `sfq-par` dispatch into the transient solver and
//! come back as typed outcomes, never as hangs or silent losses; the
//! chaos harness is deterministic and cannot lose a point; an
//! interrupted sweep leaves the memo caches consistent and resumes
//! bit-identically from its atomic checkpoint.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use jjsim::stdlib::{jtl_chain, AndParams, DffParams, JtlParams};
use jjsim::{SimError, SimOptions, Solver};
use proptest::prelude::*;
use sfq_chars::{GuardPolicy, MeasureSource};
use sfq_guard::{chaos, CancelToken, RunBudget};
use sfq_par::resilient::{run_resilient, sweep_identity, ResilientOpts};
use sfq_par::{par_map_deadline, TaskOutcome};

/// Serialize tests that flip process-global state (the chaos harness,
/// the panic hook, the worker pool).
static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn items(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

// ------------------------------------------------- par dispatch

/// With an unlimited budget, `par_map_deadline` is `par_map` with
/// labels: every task completes and the values match the plain path.
/// The unlimited budget installs nothing, so every task, on the
/// caller and on pool workers alike, still sees the caller's ambient
/// budget.
#[test]
fn unlimited_deadline_dispatch_matches_par_map() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let xs = items(64);
    let plain = sfq_par::par_map(&xs, |&x| x * x);
    let guarded = par_map_deadline(&xs, &RunBudget::unlimited(), |&x| x * x);
    assert_eq!(guarded.len(), plain.len());
    for (g, p) in guarded.into_iter().zip(plain) {
        match g {
            TaskOutcome::Completed(v) => assert_eq!(v, p),
            other => panic!("expected Completed, got {other:?}"),
        }
    }

    let token = CancelToken::new();
    token.cancel();
    // Two threads and one-item chunks, so pool workers really run tasks.
    sfq_par::set_threads(2);
    sfq_par::set_chunk(1);
    let seen = sfq_guard::scope(&RunBudget::unlimited().with_cancel(token), || {
        par_map_deadline(&xs, &RunBudget::unlimited(), |_| {
            sfq_guard::active().is_some_and(|b| b.is_cancelled())
        })
    });
    sfq_par::clear_threads();
    sfq_par::set_chunk(0);
    for out in seen {
        assert!(matches!(out, TaskOutcome::Completed(true)), "{out:?}");
    }
}

/// A pre-cancelled token cancels every task before it runs; an
/// already-expired deadline times every task out. Both are typed
/// outcomes, not panics or hangs.
#[test]
fn cancel_and_deadline_surface_as_typed_outcomes() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let xs = items(16);
    let token = CancelToken::new();
    token.cancel();
    let budget = RunBudget::unlimited().with_cancel(token);
    for out in par_map_deadline(&xs, &budget, |&x| x) {
        assert!(matches!(out, TaskOutcome::Cancelled), "{out:?}");
    }

    let expired = RunBudget::unlimited().with_deadline(Duration::ZERO);
    for out in par_map_deadline(&xs, &expired, |&x| x) {
        assert!(matches!(out, TaskOutcome::TimedOut), "{out:?}");
    }
}

/// A panicking task is contained as `Panicked` with its message;
/// neighbours still complete.
#[test]
fn panics_are_contained_per_task() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let xs = items(8);
    let outs = par_map_deadline(&xs, &RunBudget::unlimited(), |&x| {
        assert!(x != 3, "task three exploded");
        x
    });
    std::panic::set_hook(hook);
    for (i, out) in outs.into_iter().enumerate() {
        if i == 3 {
            match out {
                TaskOutcome::Panicked(p) => {
                    assert!(p.message.contains("task three exploded"), "{}", p.message);
                }
                other => panic!("expected Panicked, got {other:?}"),
            }
        } else {
            assert!(matches!(out, TaskOutcome::Completed(_)), "{out:?}");
        }
    }
}

// ------------------------------------------------- solver budget

/// The transient solver observes the ambient budget and surfaces the
/// stop as a typed [`SimError`], not a hang: a tiny step budget trips
/// `BudgetExceeded`, a cancelled token trips `Cancelled`.
#[test]
fn solver_surfaces_budget_stops_as_typed_errors() {
    let (circuit, _probes) = jtl_chain(4, &JtlParams::default());
    let solver = Solver::new(circuit, SimOptions::adaptive()).expect("valid circuit");

    let strict = RunBudget::unlimited().with_max_steps(3);
    let err = sfq_guard::scope(&strict, || solver.try_run(100e-12)).unwrap_err();
    assert!(err.is_budget(), "{err}");

    let token = CancelToken::new();
    token.cancel();
    let cancelled = RunBudget::unlimited().with_cancel(token);
    let err = sfq_guard::scope(&cancelled, || solver.try_run(100e-12)).unwrap_err();
    assert!(err.is_cancelled(), "{err}");
    assert!(matches!(err, SimError::Cancelled { .. }));

    // And without any ambient budget the same run completes — the
    // guard path costs nothing when absent.
    let (circuit, _probes) = jtl_chain(4, &JtlParams::default());
    let solver = Solver::new(circuit, SimOptions::adaptive()).expect("valid circuit");
    solver.try_run(100e-12).expect("unguarded run converges");
}

// ------------------------------------------------- chars ladder

/// `measure_resilient` with a liberal policy matches the plain
/// measurement bit-for-bit on the golden path (no degradation).
#[test]
fn resilient_measurement_matches_plain_on_golden_path() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_chars::clear_measure_cache();
    let plain = sfq_chars::measure().expect("plain measurement converges");
    sfq_chars::clear_measure_cache();
    let guarded = sfq_chars::measure_resilient(
        &JtlParams::default(),
        &DffParams::default(),
        &AndParams::default(),
        &GuardPolicy::default(),
    )
    .expect("guarded measurement converges");
    assert_eq!(guarded.source, MeasureSource::Transient);
    assert!(!guarded.is_degraded());
    assert_eq!(guarded.value, plain, "guards must not perturb the result");
}

/// A cancelled policy propagates `Cancelled` instead of degrading to
/// the reference numbers: cancellation means *stop*, not *fake it*.
#[test]
fn cancelled_measurement_propagates_instead_of_degrading() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_chars::clear_measure_cache();
    let token = CancelToken::new();
    token.cancel();
    let policy = GuardPolicy::default().with_cancel(token);
    let err = sfq_chars::measure_resilient(
        &JtlParams::default(),
        &DffParams::default(),
        &AndParams::default(),
        &policy,
    )
    .unwrap_err();
    assert!(err.is_cancelled(), "{err}");
}

/// An impossible per-attempt deadline exhausts the ladder and lands
/// on the reference fallback — degraded, labeled, never an error and
/// never a loss.
#[test]
fn exhausted_ladder_degrades_to_reference_measurements() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_chars::clear_measure_cache();
    let policy = GuardPolicy {
        attempt_timeout: Some(Duration::ZERO),
        retries: 1,
        cancel: None,
    };
    let guarded = sfq_chars::measure_resilient(
        &JtlParams::default(),
        &DffParams::default(),
        &AndParams::default(),
        &policy,
    )
    .expect("ladder bottoms out at the reference, not an error");
    assert_eq!(guarded.source, MeasureSource::Fallback);
    assert!(guarded.is_degraded());
    let reference = sfq_chars::reference_measurements();
    assert_eq!(guarded.value, reference);
    // The failed attempts must not have poisoned the memo cache: a
    // plain measurement afterwards still reports the transient truth.
    sfq_chars::clear_measure_cache();
    let plain = sfq_chars::measure().expect("plain measurement converges");
    assert_ne!(plain, reference, "transient and reference must differ");
}

// ------------------------------------------------- chaos harness

/// The chaos decision function is a pure function of (seed, task,
/// attempt): the same seed replays the same injection plan, and some
/// tasks are actually injected at the documented ~3/16 rate.
#[test]
fn chaos_plan_is_deterministic_and_nonempty() {
    let plan: Vec<_> = (0..64).map(|t| chaos::decide_seeded(2024, t, 0)).collect();
    let replay: Vec<_> = (0..64).map(|t| chaos::decide_seeded(2024, t, 0)).collect();
    assert_eq!(plan, replay);
    let injected = plan.iter().filter(|d| d.is_some()).count();
    assert!(injected > 0, "seed 2024 injects nothing in 64 draws");
    assert!(injected < 32, "injection rate implausibly high");
    // A different seed draws a different plan.
    let other: Vec<_> = (0..64).map(|t| chaos::decide_seeded(77, t, 0)).collect();
    assert_ne!(plan, other);
}

/// Under chaos injection, a resilient sweep with a fallback loses
/// nothing: every point terminates `Completed` or `Degraded` with a
/// value, and the values of surviving transient points match an
/// uninjected run.
#[test]
fn chaos_sweep_loses_no_points() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let eval = |i: usize| (i as f64).sqrt();
    let eval = &eval;
    let opts = ResilientOpts::unguarded();
    let clean =
        run_resilient("chaos_t", 1, 32, &opts, eval, Some(eval)).expect("no checkpoint, no error");

    chaos::set_chaos(Some(2024));
    let chaotic = run_resilient("chaos_t", 1, 32, &opts, eval, Some(eval));
    chaos::set_chaos(None);
    std::panic::set_hook(hook);

    let chaotic = chaotic.expect("no checkpoint, no error");
    assert_eq!(chaotic.lost(), 0, "chaos must not lose a point");
    let (completed, degraded, timed_out, cancelled, failed) = chaotic.state_counts();
    assert_eq!(timed_out + cancelled + failed, 0);
    assert_eq!(completed + degraded, 32);
    // The fallback is the same pure function here, so the values are
    // identical to the clean run regardless of which rung ran.
    assert_eq!(chaotic.values(), clean.values());
}

/// A retried point runs under the caller's ambient budget, like the
/// points of the first dispatch: an unlimited sweep budget installs
/// nothing, on retry as on the first attempt.
#[test]
fn retried_point_keeps_the_callers_budget() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Seed 63 panics task 0 at attempt 0 only, so point 0 completes
    // on its first retry.
    chaos::set_chaos(Some(63));
    let token = CancelToken::new();
    token.cancel();
    let eval = |_: usize| sfq_guard::active().is_some_and(|b| b.is_cancelled());
    let report = sfq_guard::scope(&RunBudget::unlimited().with_cancel(token), || {
        run_resilient(
            "budget_t",
            1,
            4,
            &ResilientOpts::unguarded(),
            eval,
            None::<fn(usize) -> bool>,
        )
    });
    chaos::set_chaos(None);
    std::panic::set_hook(hook);
    let report = report.expect("no checkpoint, no error");
    assert_eq!(report.state_counts(), (4, 0, 0, 0, 0));
    assert_eq!(
        report.values(),
        vec![true; 4],
        "every point sees the caller's budget"
    );
}

/// A plain sweep no longer loses a point to chaos injection: the
/// injected panic is retried, so the sweep is complete, the result
/// memo keeps it, and it is bit-identical to a cold serial run.
#[test]
fn chaos_lost_sweep_point_is_not_memoized() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Seed 42 injects a panic into the last of fig20's seven swept
    // division points (task 6, division 4096) at attempt 0 only.
    supernpu::clear_result_cache();
    chaos::set_chaos(Some(42));
    let chaotic = supernpu::explore::fig20_buffer_sweep();
    chaos::set_chaos(None);
    std::panic::set_hook(hook);
    assert_eq!(chaotic.len(), 8, "seed 42 must not lose a fig20 point");

    let hits = sfq_obs::counter("supernpu.results.cache_hit").get();
    let after = supernpu::explore::fig20_buffer_sweep();
    assert_eq!(
        sfq_obs::counter("supernpu.results.cache_hit").get(),
        hits + 1,
        "the complete sweep was memoized"
    );
    assert_eq!(after, chaotic);

    supernpu::clear_result_cache();
    sfq_par::set_threads(1);
    let serial = supernpu::explore::fig20_buffer_sweep();
    sfq_par::clear_threads();
    assert_eq!(
        serde_json::to_string(&after).expect("serialize"),
        serde_json::to_string(&serial).expect("serialize"),
        "fig20 under chaos must match a cold serial run bit-for-bit"
    );
}

// ------------------------------------------------- checkpoint/resume

fn ckpt_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("supernpu_guarded_execution_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Kill a sweep mid-flight with a cancel token, then resume: the
/// resumed run restores the durable prefix from the checkpoint and
/// reproduces the uninterrupted run bit-for-bit (JSON round-trip
/// included, which is what the bench gate compares).
#[test]
fn killed_sweep_resumes_bit_identically() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = ckpt_dir("resume");
    let path = dir.join("sweep.json");
    let n = 24usize;
    let ident = sweep_identity(&[n as u64, 7]);

    let eval = |i: usize| (i as f64) * 1.5 + 0.25;
    let eval = &eval;
    let reference = run_resilient(
        "kill_t",
        ident,
        n,
        &ResilientOpts::unguarded(),
        eval,
        Some(eval),
    )
    .expect("reference run");
    let reference_vals = reference.values();

    // Killed run: the eval itself fires the cancel token after 5
    // evaluations — a deterministic mid-sweep kill.
    let token = CancelToken::new();
    let calls = AtomicUsize::new(0);
    let killing_eval = |i: usize| {
        if calls.fetch_add(1, Ordering::SeqCst) + 1 >= 5 {
            token.cancel();
        }
        eval(i)
    };
    let killed_opts = ResilientOpts::unguarded()
        .with_budget(RunBudget::unlimited().with_cancel(token.clone()))
        .with_checkpoint(path.clone(), 4, false);
    let killed = run_resilient(
        "kill_t",
        ident,
        n,
        &killed_opts,
        killing_eval,
        None::<fn(usize) -> f64>,
    )
    .expect("killed run still reports");
    let (done, _, _, cancelled, _) = killed.state_counts();
    assert!(cancelled > 0, "the kill must actually cancel something");
    assert!(done < n, "the kill must land mid-sweep");
    assert!(path.exists(), "the killed run left a checkpoint");

    // Resume with clean options: restored prefix + fresh tail ==
    // reference, byte-for-byte through the JSON encoding.
    let resume_opts = ResilientOpts::unguarded().with_checkpoint(path.clone(), 4, true);
    let resumed =
        run_resilient("kill_t", ident, n, &resume_opts, eval, Some(eval)).expect("resumed run");
    assert!(
        resumed.restored > 0,
        "resume must restore the durable prefix"
    );
    let resumed_vals = resumed.values();
    assert_eq!(resumed_vals, reference_vals);
    assert_eq!(
        serde_json::to_string(&resumed_vals).expect("serialize"),
        serde_json::to_string(&reference_vals).expect("serialize"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint from a differently-parameterized sweep is rejected
/// with a typed mismatch instead of being silently grafted on.
#[test]
fn foreign_checkpoint_is_rejected() {
    let dir = ckpt_dir("mismatch");
    let path = dir.join("sweep.json");
    let eval = |i: usize| i as f64;
    let eval = &eval;
    let opts = ResilientOpts::unguarded().with_checkpoint(path.clone(), 2, false);
    run_resilient("mismatch_t", 1, 6, &opts, eval, Some(eval)).expect("first run");

    let resume = ResilientOpts::unguarded().with_checkpoint(path.clone(), 2, true);
    // Different identity → rejected.
    let err = run_resilient("mismatch_t", 2, 6, &resume, eval, Some(eval)).unwrap_err();
    assert!(err.to_string().contains("different sweep"), "{err}");
    // Different name → rejected.
    let err = run_resilient("other_t", 1, 6, &resume, eval, Some(eval)).unwrap_err();
    assert!(err.to_string().contains("different sweep"), "{err}");
    // Same everything → restored in full.
    let again = run_resilient("mismatch_t", 1, 6, &resume, eval, Some(eval)).expect("resume");
    assert_eq!(again.restored, 6);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The real fig20 sweep under the resilient runner: unguarded, it
/// reproduces the plain sweep exactly; killed-and-resumed, it
/// reproduces it bit-identically through the checkpoint.
#[test]
fn fig20_resilient_matches_plain_and_survives_kill() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    sfq_estimator::clear_estimate_cache();
    sfq_chars::clear_measure_cache();
    supernpu::clear_result_cache();
    let plain = supernpu::explore::fig20_buffer_sweep();

    sfq_estimator::clear_estimate_cache();
    sfq_chars::clear_measure_cache();
    let guarded = supernpu::explore::fig20_buffer_sweep_resilient(&ResilientOpts::unguarded())
        .expect("resilient fig20");
    assert_eq!(guarded.lost(), 0);
    assert_eq!(guarded.clone().values(), plain[1..]);

    // Kill after the first chunk via a pre-cancelled-at-2 token, then
    // resume and require identity.
    let dir = ckpt_dir("fig20");
    let path = dir.join("fig20.json");
    let token = CancelToken::new();
    let killed_opts = ResilientOpts::unguarded()
        .with_budget(RunBudget::unlimited().with_cancel(token.clone()))
        .with_checkpoint(path.clone(), 2, false);
    // The sweep owns its eval, so the kill comes from outside: a
    // watcher thread cancels as soon as the first checkpoint chunk
    // lands on disk (or after a generous timeout, so the test cannot
    // hang if checkpointing broke).
    let watcher = {
        let token = token.clone();
        let path = path.clone();
        std::thread::spawn(move || {
            for _ in 0..2000 {
                if path.exists() {
                    token.cancel();
                    return;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            token.cancel();
        })
    };
    sfq_estimator::clear_estimate_cache();
    sfq_chars::clear_measure_cache();
    let killed = supernpu::explore::fig20_buffer_sweep_resilient(&killed_opts)
        .expect("killed fig20 still reports");
    watcher.join().expect("watcher thread");
    assert_eq!(killed.lost(), 0, "cancelled points are not losses");

    let resume_opts = ResilientOpts::unguarded().with_checkpoint(path.clone(), 2, true);
    sfq_estimator::clear_estimate_cache();
    sfq_chars::clear_measure_cache();
    let resumed =
        supernpu::explore::fig20_buffer_sweep_resilient(&resume_opts).expect("resumed fig20");
    assert_eq!(
        serde_json::to_string(&resumed.values()).expect("serialize"),
        serde_json::to_string(&plain[1..]).expect("serialize"),
        "resumed fig20 must reproduce the plain sweep bit-for-bit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- S3 proptests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cancelling a sweep after `k` evaluations never corrupts later
    /// runs: a fresh run from the same seed state is bit-identical to
    /// an uninterrupted baseline, whatever `k` was.
    #[test]
    fn cancellation_point_never_perturbs_rerun(k in 1usize..20, n in 8usize..24) {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let eval = |i: usize| ((i as f64) + 0.5).ln();
        let eval = &eval;
        let opts = ResilientOpts::unguarded();
        let baseline = run_resilient("prop_t", 3, n, &opts, eval, Some(eval))
            .expect("baseline");

        let token = CancelToken::new();
        let calls = AtomicUsize::new(0);
        let killing_eval = |i: usize| {
            if calls.fetch_add(1, Ordering::SeqCst) + 1 >= k {
                token.cancel();
            }
            eval(i)
        };
        let killed_opts = ResilientOpts::unguarded()
            .with_budget(RunBudget::unlimited().with_cancel(token.clone()));
        let killed = run_resilient(
            "prop_t", 3, n, &killed_opts, killing_eval, None::<fn(usize) -> f64>,
        )
        .expect("killed run reports");
        prop_assert_eq!(killed.lost(), 0);

        // The interrupted run must not leak state into a fresh one.
        let again = run_resilient("prop_t", 3, n, &opts, eval, Some(eval))
            .expect("rerun");
        prop_assert_eq!(again.values(), baseline.clone().values());
    }

    /// Cancelling a guarded measurement mid-ladder leaves the chars
    /// memo cache consistent: the next plain measurement from the
    /// same parameters is bit-identical to one computed on a clean
    /// cache.
    #[test]
    fn cancelled_measure_leaves_cache_consistent(retries in 0u32..3) {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        sfq_chars::clear_measure_cache();
        let clean = sfq_chars::measure().expect("clean measurement");

        sfq_chars::clear_measure_cache();
        let token = CancelToken::new();
        token.cancel();
        let policy = GuardPolicy {
            attempt_timeout: Some(Duration::from_millis(1)),
            retries,
            cancel: Some(token),
        };
        let err = sfq_chars::measure_resilient(
            &JtlParams::default(),
            &DffParams::default(),
            &AndParams::default(),
            &policy,
        )
        .unwrap_err();
        prop_assert!(err.is_cancelled());

        // Without clearing: whatever the cancelled attempt cached (at
        // most a completed nominal entry) must agree with the clean
        // measurement.
        let after = sfq_chars::measure().expect("measurement after cancel");
        prop_assert_eq!(after, clean);
    }
}
