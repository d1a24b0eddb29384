//! # sfq-faults
//!
//! Deterministic, seed-driven fault and variation injection for the
//! SuperNPU reproduction, spanning all three layers of the stack:
//!
//! * **Gate layer** — per-instance parameter perturbation of the
//!   `jjsim` stdlib cells (critical currents, biases, inductances as
//!   multiplicative `1 + σ·z` draws) plus a Monte-Carlo yield
//!   estimator that reports per-cell yield vs σ
//!   ([`estimate_yield`], [`yield_curve`]).
//! * **Microarchitecture layer** — seeded per-layer
//!   [`sfq_npu_sim::PulseFaults`] plans for the cycle simulator
//!   ([`draw_fault_plan`]), whose corrupted-MAC accounting degrades
//!   gracefully instead of aborting.
//! * **Harness layer** — the Monte-Carlo runs go through the
//!   workspace's one sweep driver, `sfq_par::resilient::run_resilient`,
//!   over lane groups of samples: a panicking or non-converging probe
//!   poisons only its own sample (a per-sample `catch_unwind` + a
//!   bounded retry budget + the typed `jjsim::SimError::NonConvergent`),
//!   with periodic checkpoints of the completed prefix and
//!   bit-identical `--resume`. Chaos injection reaches only a group's
//!   first dispatch; the per-sample fallback that redoes it is
//!   chaos-free, so chaos never changes an outcome.
//!
//! The root determinism invariant: every random draw comes from a
//! [`SplitMix64`] substream derived from `(seed, identity tags)`, so
//! results depend only on the experiment seed — never on thread count,
//! schedule, or where a run was interrupted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mc;
mod plan;
pub mod rng;
mod variation;

pub use mc::{
    estimate_yield, run_outcomes, yield_curve, Cell, FaultError, Injection, McOptions, Outcome,
    YieldPoint,
};
pub use plan::draw_fault_plan;
pub use rng::SplitMix64;
pub use variation::{perturb_and, perturb_dff, perturb_jtl, Variation};

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize access to the global thread pool / panic hook across
    /// the tests below.
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn quiet_hook<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn yield_is_high_at_tiny_sigma_and_sane_at_large() {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let opts = McOptions::new(12);
        let tiny = estimate_yield(Cell::Jtl, 0.005, 42, &opts).expect("harness ok");
        assert_eq!(tiny.samples, 12);
        assert!(
            tiny.yield_fraction() > 0.9,
            "σ=0.5% yield {:.2}",
            tiny.yield_fraction()
        );
        let large = estimate_yield(Cell::Jtl, 0.5, 42, &opts).expect("harness ok");
        assert!(
            large.yield_fraction() < tiny.yield_fraction(),
            "σ=50% yield {:.2} should be below σ=0.5% yield {:.2}",
            large.yield_fraction(),
            tiny.yield_fraction()
        );
    }

    #[test]
    fn outcomes_are_bit_identical_across_thread_counts() {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let opts = McOptions::new(10);
        sfq_par::set_threads(1);
        let serial = run_outcomes(Cell::Dff, 0.08, 7, &opts).expect("harness ok");
        sfq_par::set_threads(4);
        let parallel = run_outcomes(Cell::Dff, 0.08, 7, &opts).expect("harness ok");
        sfq_par::clear_threads();
        assert_eq!(serial, parallel);
    }

    /// `P`ass / `F`ail / `N`on-convergent / panic`X` per sample.
    fn outcome_string(outcomes: &[Outcome]) -> String {
        outcomes
            .iter()
            .map(|o| match o {
                Outcome::Pass => 'P',
                Outcome::Fail => 'F',
                Outcome::NonConvergent => 'N',
                Outcome::Panicked => 'X',
            })
            .collect()
    }

    #[test]
    fn batched_outcomes_match_the_scalar_path_for_every_cell() {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let opts = McOptions::new(10);
        // Every DFF draw passes at σ = 0.08, so σ = 0.25 adds draws
        // that fail; its vectors are pinned.
        let pinned = [
            (Cell::Jtl, "PPPPPFFPFF"),
            (Cell::Dff, "FFPPFFPPPF"),
            (Cell::ClockedAnd, "FPFFFFFFPP"),
        ];
        for sigma in [0.08, 0.25] {
            for (cell, expected) in pinned {
                jjsim::set_batch_width(Some(1));
                let scalar = run_outcomes(cell, sigma, 7, &opts).expect("harness ok");
                jjsim::set_batch_width(Some(jjsim::LANES));
                let batched = run_outcomes(cell, sigma, 7, &opts).expect("harness ok");
                jjsim::set_batch_width(None);
                assert_eq!(scalar, batched, "cell {} at σ = {sigma}", cell.name());
                if sigma == 0.25 {
                    assert_eq!(outcome_string(&batched), expected, "cell {}", cell.name());
                }
            }
        }
    }

    #[test]
    fn injected_failures_poison_only_their_samples() {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut opts = McOptions::new(8);
        opts.injection = Injection {
            panic_at: vec![2],
            non_convergent_at: vec![5],
        };
        let outcomes = quiet_hook(|| run_outcomes(Cell::ClockedAnd, 0.01, 3, &opts))
            .expect("harness survives injected failures");
        assert_eq!(outcomes.len(), 8);
        assert_eq!(outcomes[2], Outcome::Panicked);
        assert_eq!(outcomes[5], Outcome::NonConvergent);
        for (i, o) in outcomes.iter().enumerate() {
            if i != 2 && i != 5 {
                assert!(
                    matches!(o, Outcome::Pass | Outcome::Fail),
                    "sample {i} got {o:?}"
                );
            }
        }
    }

    #[test]
    fn mismatched_checkpoint_is_a_typed_error() {
        let _g = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join("sfq_faults_test_mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("c.json");
        let mut opts = McOptions::new(9);
        opts.checkpoint_every = 4;
        opts.checkpoint_path = Some(path.clone());
        run_outcomes(Cell::Jtl, 0.12, 99, &opts).expect("harness ok");

        opts.resume = true;
        // Different seed → the persisted prefix must be rejected.
        let err = run_outcomes(Cell::Jtl, 0.12, 100, &opts).unwrap_err();
        assert!(matches!(err, FaultError::Checkpoint { .. }), "{err}");

        // Checkpointing without a path is rejected up front.
        let mut bad = McOptions::new(4);
        bad.checkpoint_every = 2;
        assert!(matches!(
            run_outcomes(Cell::Jtl, 0.1, 1, &bad),
            Err(FaultError::InvalidOptions { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
