//! Cross-crate robustness tests of the fault-injection stack
//! (PR 4): seeded fault plans and perturbed-cell probes never panic
//! and always reach a verdict, the Monte-Carlo harness is
//! bit-identical across thread counts, and an interrupted sweep
//! resumes from its checkpoint without changing a single outcome.

use dnn_models::{Layer, Network};
use proptest::prelude::*;
use sfq_faults::{
    draw_fault_plan, run_outcomes, yield_curve, Cell, Injection, McOptions, Outcome, YieldPoint,
};
use sfq_npu_sim::{simulate_network_with_fault_plan, SimConfig};

/// Serialize the tests that reconfigure the global worker pool or
/// swap the panic hook.
static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn cells() -> [Cell; 3] {
    Cell::all()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A seeded pulse-fault plan applied to a small CNN never panics
    /// and keeps the graceful-degradation accounting sane: timing and
    /// energy stay finite, and the corrupted-MAC tally never exceeds
    /// the work actually performed.
    #[test]
    fn fault_plans_degrade_gracefully(
        seed in any::<u64>(),
        intensity in 0.0f64..=2.0,
        layers in 1usize..=4,
        batch in 1u32..=4,
    ) {
        let net = Network::new(
            "prop-cnn",
            (0..layers)
                .map(|i| Layer::conv(&format!("c{i}"), (14, 14), 8, 16, 3, 1, 1))
                .collect(),
        );
        let plan = draw_fault_plan(seed, layers, intensity);
        let cfg = SimConfig::paper_baseline();
        let stats = simulate_network_with_fault_plan(&cfg, &net, batch, &plan);
        prop_assert!(stats.total_cycles() > 0);
        prop_assert!(stats.dynamic_energy().total_j().is_finite());
        let faults = stats.fault_counts();
        prop_assert!(faults.total() <= stats.total_macs());
        let frac = stats.fault_fraction();
        prop_assert!((0.0..=1.0).contains(&frac), "fault fraction {frac}");
        // Determinism: the same (seed, layers, intensity) redraws the
        // same plan.
        prop_assert_eq!(draw_fault_plan(seed, layers, intensity), plan);
    }

    /// A perturbed stdlib-cell probe always reaches a discrete verdict
    /// for every sample — any seed, any cell, any σ. Panics cannot
    /// escape (they become [`Outcome::Panicked`]) and solver errors
    /// become [`Outcome::NonConvergent`], so the harness itself only
    /// fails for unusable options, which this test never supplies.
    #[test]
    fn perturbed_probes_always_yield_a_verdict(
        cell_idx in 0usize..3,
        sigma in 0.0f64..=0.6,
        seed in any::<u64>(),
    ) {
        let cell = cells()[cell_idx];
        let outcomes = run_outcomes(cell, sigma, seed, &McOptions::new(2))
            .expect("valid options never produce a harness error");
        prop_assert_eq!(outcomes.len(), 2);
        // And bit-identical on a rerun with the same seed.
        let again = run_outcomes(cell, sigma, seed, &McOptions::new(2))
            .expect("valid options never produce a harness error");
        prop_assert_eq!(outcomes, again);
    }
}

/// The satellite determinism requirement: the same seed gives
/// bit-identical outcomes whether the pool runs 1 worker or 4
/// (i.e. independent of `SUPERNPU_THREADS`).
#[test]
fn same_seed_is_bit_identical_across_thread_counts() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    for cell in cells() {
        let opts = McOptions::new(6);
        sfq_par::set_threads(1);
        let serial = run_outcomes(cell, 0.15, 2024, &opts).expect("harness ok");
        sfq_par::set_threads(4);
        let parallel = run_outcomes(cell, 0.15, 2024, &opts).expect("harness ok");
        sfq_par::clear_threads();
        assert_eq!(serial, parallel, "{} diverged across pools", cell.name());
    }
}

/// An injected panic and an injected non-convergence poison exactly
/// their own samples; the surrounding sweep completes.
#[test]
fn injected_failures_are_contained() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut opts = McOptions::new(6);
    opts.injection = Injection {
        panic_at: vec![1],
        non_convergent_at: vec![4],
    };
    let outcomes = run_outcomes(Cell::Dff, 0.05, 11, &opts);
    std::panic::set_hook(hook);
    let outcomes = outcomes.expect("harness survives injected failures");
    assert_eq!(outcomes[1], Outcome::Panicked);
    assert_eq!(outcomes[4], Outcome::NonConvergent);
    for (i, o) in outcomes.iter().enumerate() {
        if i != 1 && i != 4 {
            assert!(
                matches!(o, Outcome::Pass | Outcome::Fail),
                "sample {i}: {o:?}"
            );
        }
    }
}

/// `bench_batch`'s yield workload (JTL, σ 0.08, seed 42, 200 samples)
/// gives every sample the same outcome on one lane as on
/// `jjsim::LANES` lanes.
#[test]
fn lane_batched_yield_matches_the_scalar_outcomes() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let opts = McOptions::new(200);
    let at = |width| {
        jjsim::set_batch_width(Some(width));
        run_outcomes(Cell::Jtl, 0.08, 42, &opts).expect("harness ok")
    };
    let (scalar, batched) = (at(1), at(jjsim::LANES));
    jjsim::set_batch_width(None);
    assert_eq!(scalar, batched);
}

/// Interrupted-sweep recovery: cut a real checkpoint back to the
/// first half of its points (as an interrupted checkpointed run leaves
/// it), resume, and require the full outcome vector to be
/// bit-identical to an uninterrupted run — on two cells, sample counts
/// and checkpoint cadences.
#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("supernpu_fault_injection_resume");
    for (cell, sigma, seed, samples, every) in [
        (Cell::ClockedAnd, 0.1f64, 7u64, 8u32, 2u32),
        (Cell::Jtl, 0.12, 99, 9, 4),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.json");
        let reference =
            run_outcomes(cell, sigma, seed, &McOptions::new(samples)).expect("harness ok");

        let mut opts = McOptions::new(samples);
        opts.checkpoint_every = every;
        opts.checkpoint_path = Some(path.clone());
        let full = run_outcomes(cell, sigma, seed, &opts).expect("checkpointed run ok");
        assert_eq!(full, reference, "checkpointing must not change any outcome");
        supernpu_bench::cut_to_first_half(&path).expect("cut the checkpoint");

        opts.resume = true;
        let resumed = run_outcomes(cell, sigma, seed, &opts).expect("resume ok");
        assert_eq!(resumed, reference, "resume must not change any outcome");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-write regression (the checkpoint writer is atomic: temp
/// sibling + fsync + rename). A garbage `.tmp` left by a crash
/// mid-write must never be mistaken for the checkpoint, and a
/// checkpointed run over it must leave a clean, parseable, resumable
/// checkpoint with no temp residue.
#[test]
fn torn_checkpoint_write_never_corrupts_resume() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("supernpu_fault_injection_torn");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("ckpt.json");
    let tmp = dir.join("ckpt.json.tmp");

    let (cell, sigma, seed) = (Cell::Dff, 0.05f64, 11u64);
    let reference = run_outcomes(cell, sigma, seed, &McOptions::new(6)).expect("harness ok");

    // Simulate the crash the old non-atomic writer was vulnerable to:
    // a torn, unparseable temp file beside the checkpoint target.
    std::fs::write(&tmp, "{\"cell\": \"DF").expect("write torn tmp");

    let mut opts = McOptions::new(6);
    opts.checkpoint_every = 2;
    opts.checkpoint_path = Some(path.clone());
    opts.resume = true;
    let outcomes =
        run_outcomes(cell, sigma, seed, &opts).expect("cold start despite torn tmp file");
    assert_eq!(outcomes, reference, "torn tmp must not perturb outcomes");

    // The atomic writer renamed its temp over the target: the final
    // checkpoint parses, covers every sample, and nothing torn
    // lingers.
    assert!(!tmp.exists(), "temp file must be consumed by the rename");
    let text = std::fs::read_to_string(&path).expect("final checkpoint readable");
    assert!(text.contains("\"points\""), "final checkpoint has points");
    let resumed = run_outcomes(cell, sigma, seed, &opts).expect("resume from final checkpoint");
    assert_eq!(resumed, reference, "resume after atomic write is clean");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed `BENCH_faults.json` yield curves are reproduced
/// exactly: `bench_faults`' curve configuration (seed 42, 200 samples
/// per point, one retry, a panic injected at sample 3 and a
/// non-convergence at sample 7) rerun over its σ grid for every cell
/// must pass the bench gate against the committed report, every tally
/// an invariant. This covers the batched lane groups, the injected
/// groups and the lone retried samples.
#[test]
fn bench_faults_yield_curves_match_the_committed_baseline() {
    let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_faults.json");
    let text = std::fs::read_to_string(path).expect("BENCH_faults.json is committed");
    let baseline = supernpu_bench::gate::parse(&serde_json::from_str(&text).expect("JSON"))
        .expect("BENCH_faults.json is a bench report");

    let (seed, samples, retries) = (42, 200, 1);
    let mut opts = McOptions::new(samples);
    opts.retries = retries;
    opts.injection = Injection {
        panic_at: vec![3],
        non_convergent_at: vec![7],
    };
    let sigmas = [0.02, 0.05, 0.10, 0.20, 0.35];
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let curves: Result<Vec<Vec<YieldPoint>>, _> = Cell::all()
        .into_iter()
        .map(|cell| yield_curve(cell, &sigmas, seed, &opts))
        .collect();
    std::panic::set_hook(hook);
    let curves = curves.expect("harness survives injected failures");
    let fresh = supernpu_bench::yield_curve_records(seed, samples, retries, &curves);
    let report = supernpu_bench::gate::compare(&baseline, &fresh);
    assert!(report.passed(), "{:#?}", report.failures);
    assert_eq!(report.checks, fresh.len(), "every fresh tally is gated");
}
