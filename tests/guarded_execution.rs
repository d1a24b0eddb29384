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
use sfq_faults::{run_outcomes, Cell, McOptions};
use sfq_guard::{chaos, CancelToken, RunBudget};
use sfq_par::resilient::{run_resilient, sweep_identity, PointState, ResilientOpts, SweepReport};

/// Serialize tests that flip process-global state (the chaos harness,
/// the panic hook, the worker pool, the metrics switch) or run the
/// sweep driver, whose attempts draw from the chaos harness.
static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Scheduling chunk sizes the dispatch tests sweep: automatic sizing,
/// one point per quantum, and a few points per quantum.
const CHUNKS: [usize; 3] = [0, 1, 3];

/// One attempt per point and no fallback, so each point's terminal
/// state is exactly the outcome of its first attempt.
fn once(budget: RunBudget) -> ResilientOpts {
    ResilientOpts {
        retries: 0,
        ..ResilientOpts::unguarded().with_budget(budget)
    }
}

/// `eval` over `n` points at each of [`CHUNKS`] on two threads (so
/// pool workers really run points), one report per chunk size.
fn dispatch<P: serde::Serialize + serde::Deserialize + Send>(
    n: usize,
    opts: &ResilientOpts,
    eval: impl Fn(usize) -> P + Sync,
) -> Vec<SweepReport<P>> {
    sfq_par::set_threads(2);
    let reports = CHUNKS
        .iter()
        .map(|&chunk| {
            sfq_par::set_chunk(chunk);
            run_resilient("dispatch_t", 1, n, opts, &eval, None::<fn(usize) -> P>)
                .expect("no checkpoint, no error")
        })
        .collect();
    sfq_par::clear_threads();
    sfq_par::set_chunk(0);
    reports
}

// ------------------------------------------------- sweep dispatch

/// With an unlimited budget, the sweep driver's dispatch is `par_map`
/// with labels: every point completes and the values match the plain
/// path. The unlimited budget installs nothing, so every point, on
/// the caller and on pool workers alike, still sees the caller's
/// ambient budget.
#[test]
fn unlimited_deadline_dispatch_matches_par_map() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let plain = sfq_par::par_map(&(0..64).collect::<Vec<usize>>(), |&i| i * i);
    for report in dispatch(64, &once(RunBudget::unlimited()), |i| i * i) {
        assert_eq!(report.state_counts(), (64, 0, 0, 0, 0));
        assert_eq!(report.values(), plain);
    }

    let token = CancelToken::new();
    token.cancel();
    let reports = sfq_guard::scope(&RunBudget::unlimited().with_cancel(token), || {
        dispatch(64, &once(RunBudget::unlimited()), |_| {
            sfq_guard::active().is_some_and(|b| b.is_cancelled())
        })
    });
    for report in reports {
        assert_eq!(report.values(), vec![true; 64]);
    }
}

/// A pre-cancelled token cancels every point before it runs; an
/// already-expired deadline times every point out. Both are typed
/// terminal states, not panics or hangs, and neither runs `eval`.
#[test]
fn cancel_and_deadline_surface_as_typed_outcomes() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let token = CancelToken::new();
    token.cancel();
    let never = |i: usize| -> usize { panic!("point {i} ran past its budget") };
    for report in dispatch(16, &once(RunBudget::unlimited().with_cancel(token)), never) {
        assert_eq!(report.state_counts(), (0, 0, 0, 16, 0));
        assert_eq!(report.lost(), 0, "a budget stop is not a loss");
    }
    let expired = RunBudget::unlimited().with_deadline(Duration::ZERO);
    for report in dispatch(16, &once(expired), never) {
        assert_eq!(report.state_counts(), (0, 0, 16, 0, 0));
        assert_eq!(report.lost(), 0, "a budget stop is not a loss");
    }
}

/// A panicking point fails as `Failed` with its message; neighbours
/// still complete.
#[test]
fn panics_are_contained_per_task() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let reports = dispatch(8, &once(RunBudget::unlimited()), |i| {
        assert!(i != 3, "task three exploded");
        i
    });
    std::panic::set_hook(hook);
    for report in reports {
        assert_eq!(report.lost(), 1);
        for p in report.points {
            if p.index == 3 {
                let PointState::Failed { message } = &p.state else {
                    panic!("expected Failed, got {:?}", p.state);
                };
                assert!(message.contains("task three exploded"), "{message}");
                assert_eq!(p.value, None);
            } else {
                assert_eq!((p.state, p.value), (PointState::Completed, Some(p.index)));
            }
        }
    }
}

/// Under an unlimited budget, a point that no attempt evaluates and no
/// fallback rescues ends `Failed` with its last attempt's message, so
/// it counts as lost: nothing timed it out. Under chaos seed 332 point
/// 1 draws a timeout, then two panics.
#[test]
fn unbudgeted_point_without_a_value_ends_failed() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let draws: Vec<_> = (0..=sfq_guard::DEFAULT_RETRIES)
        .map(|k| chaos::decide_seeded(332, 1, k))
        .collect();
    use sfq_guard::chaos::ChaosAction::{Panic, Timeout};
    assert_eq!(draws, [Some(Timeout), Some(Panic), Some(Panic)]);

    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::set_chaos(Some(332));
    let report = run_resilient(
        "unbudgeted_t",
        1,
        2,
        &ResilientOpts::unguarded(),
        |i| i,
        None::<fn(usize) -> usize>,
    );
    chaos::set_chaos(None);
    std::panic::set_hook(hook);

    let report = report.expect("no checkpoint, no error");
    assert_eq!(report.state_counts(), (0, 0, 0, 0, 2));
    assert_eq!(report.lost(), 2);
    assert_eq!(
        report.points[1].state,
        PointState::Failed {
            message: "chaos: injected panic in task 1".into()
        }
    );
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

    // `bench_robust`'s chaos run: under seed 8 the real Fig. 20 and
    // Fig. 21 sweeps lose no point either.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    chaos::set_chaos(Some(8));
    supernpu_bench::clear_caches();
    let fig20 = supernpu::explore::fig20_buffer_sweep_resilient(&opts);
    supernpu_bench::clear_caches();
    let fig21 = supernpu::explore::fig21_resource_sweep_resilient(&opts);
    chaos::set_chaos(None);
    std::panic::set_hook(hook);
    let (fig20, fig21) = (fig20.expect("no checkpoint"), fig21.expect("no checkpoint"));
    assert_eq!(
        (fig20.lost(), fig21.lost()),
        (0, 0),
        "chaos lost a sweep point"
    );
    assert_eq!(fig20.state_counts(), (7, 0, 0, 0, 0));
    assert_eq!(fig21.state_counts(), (5, 0, 0, 0, 0));
}

/// The chaos guard counters of one 7-point sweep under seed 8.
fn chaos_counts(opts: &ResilientOpts) -> [u64; 5] {
    const COUNTERS: [&str; 5] = [
        "guard.chaos.panic",
        "guard.chaos.stall",
        "guard.chaos.timeout",
        "guard.par.timed_out",
        "guard.retry",
    ];
    let read = || COUNTERS.map(|c| sfq_obs::counter(c).get());
    let eval = |i: usize| (i as f64).sqrt();
    let before = read();
    chaos::set_chaos(Some(8));
    let report = run_resilient("chunked_chaos_t", 1, 7, opts, eval, Some(eval));
    chaos::set_chaos(None);
    let report = report.expect("checkpoint writes");
    assert_eq!(report.lost(), 0);
    let after = read();
    std::array::from_fn(|k| after[k] - before[k])
}

/// Chaos draws are keyed on the sweep index, not on a point's place
/// in its checkpoint chunk: a sweep checkpointed every two points
/// draws exactly the faults and retries of the same sweep unchunked.
#[test]
fn checkpoint_chunks_draw_the_unchunked_chaos() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let metrics_were_on = sfq_obs::enabled();
    sfq_obs::set_enabled(true);
    let dir = ckpt_dir("chunked_chaos");
    let unchunked = chaos_counts(&ResilientOpts::unguarded());
    let chunked =
        chaos_counts(&ResilientOpts::unguarded().with_checkpoint(dir.join("c.json"), 2, false));
    sfq_obs::set_enabled(metrics_were_on);
    std::panic::set_hook(hook);
    let _ = std::fs::remove_dir_all(&dir);
    let [panics, _, timeouts, _, retries] = unchunked;
    assert!(
        panics > 0 && timeouts > 0 && retries > 0,
        "seed 8 must inject into 7 points: {unchunked:?}"
    );
    assert_eq!(
        chunked, unchunked,
        "[panic, stall, timeout, timed_out, retry] counts differ between chunkings"
    );
}

/// The Monte-Carlo fallback is chaos-free: a lane group that chaos
/// panics or times out is redone sample by sample without injection,
/// so no chaos seed changes a single outcome.
#[test]
fn chaos_never_changes_a_monte_carlo_outcome() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let opts = McOptions::new(64);
    let clean = run_outcomes(Cell::Jtl, 0.1, 1, &opts).expect("harness ok");
    let chaotic: Vec<_> = (1..=20u64)
        .map(|seed| {
            chaos::set_chaos(Some(seed));
            let out = run_outcomes(Cell::Jtl, 0.1, 1, &opts);
            chaos::set_chaos(None);
            (seed, out.expect("harness ok"))
        })
        .collect();
    std::panic::set_hook(hook);
    for (seed, outcomes) in chaotic {
        let moved: Vec<usize> = (0..clean.len())
            .filter(|&s| outcomes[s] != clean[s])
            .collect();
        assert!(
            moved.is_empty(),
            "chaos seed {seed} moved samples {moved:?}"
        );
    }
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
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
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
/// reproduces the plain sweep exactly; cut back to half its
/// checkpoint, resumed under a cancelled token and then resumed clean,
/// it reproduces it bit-identically through the checkpoint.
#[test]
fn fig20_resilient_matches_plain_and_survives_kill() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let fig20 = |opts: &ResilientOpts| {
        supernpu_bench::clear_caches();
        supernpu::explore::fig20_buffer_sweep_resilient(opts).expect("fig20 checkpoint")
    };
    supernpu_bench::clear_caches();
    let plain = supernpu::explore::fig20_buffer_sweep();
    let guarded = fig20(&ResilientOpts::unguarded());
    assert_eq!(guarded.lost(), 0);
    assert_eq!(guarded.values(), plain[1..]);

    // A full checkpoint cut to its first half is what a sweep killed
    // mid-flight leaves behind.
    let dir = ckpt_dir("fig20");
    let path = dir.join("fig20.json");
    fig20(&ResilientOpts::unguarded().with_checkpoint(path.clone(), 2, false));
    supernpu_bench::cut_to_first_half(&path).expect("cut the checkpoint");

    // Resuming under a cancelled token restores the half and cancels
    // the rest: nothing is computed and nothing is lost.
    let token = CancelToken::new();
    token.cancel();
    let killed = fig20(
        &ResilientOpts::unguarded()
            .with_budget(RunBudget::unlimited().with_cancel(token))
            .with_checkpoint(path.clone(), 2, true),
    );
    let (_, _, _, cancelled, _) = killed.state_counts();
    assert!(cancelled > 0, "the cancelled resume must cancel a point");
    assert!(
        killed.restored > 0,
        "the cancelled resume must restore a point"
    );
    assert_eq!(killed.lost(), 0, "cancelled points are not losses");

    let resumed = fig20(&ResilientOpts::unguarded().with_checkpoint(path, 2, true));
    assert!(
        resumed.restored > 0,
        "resume must restore the durable prefix"
    );
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

    /// Cancelling a measurement leaves the chars memo cache
    /// consistent, wherever the cancel bites: with the JTL, then also
    /// the DFF, testbenches already memoized by a measurement of other
    /// parameters, the cancelled run stops at the first cold bench, and
    /// the next plain measurement is bit-identical to one computed on a
    /// clean cache.
    #[test]
    fn cancelled_measure_leaves_cache_consistent(warm in 0usize..3) {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        sfq_chars::clear_measure_cache();
        let clean = sfq_chars::measure().expect("clean measurement");

        sfq_chars::clear_measure_cache();
        let (jtl, dff, and) = (JtlParams::default(), DffParams::default(), AndParams::default());
        let other_dff = DffParams { l_store: dff.l_store * 1.01, ..dff };
        let other_and = AndParams { l_store: and.l_store * 1.01, ..and };
        match warm {
            1 => drop(sfq_chars::measure_with(&jtl, &other_dff, &other_and).expect("warm JTL")),
            2 => drop(sfq_chars::measure_with(&jtl, &dff, &other_and).expect("warm JTL, DFF")),
            _ => {}
        }
        let token = CancelToken::new();
        token.cancel();
        let cancelled = RunBudget::unlimited().with_cancel(token);
        let err = sfq_guard::scope(&cancelled, sfq_chars::measure).unwrap_err();
        prop_assert!(err.is_cancelled(), "{}", err);

        // Without clearing: whatever the cancelled run cached must
        // agree with the clean measurement.
        let after = sfq_chars::measure().expect("measurement after cancel");
        prop_assert_eq!(after, clean);
    }
}
