//! Robustness demo: Monte-Carlo yield curves for the stdlib cells
//! under parameter variation, run through the crash-isolated,
//! checkpointing fault harness.
//!
//! For each cell in [`Cell::all`] the binary sweeps a σ grid and
//! estimates yield from `SUPERNPU_FAULT_SAMPLES` perturbed draws per
//! point. Every (cell, σ) run carries two *injected* failures — one
//! probe that panics and one that refuses to converge — so the run
//! itself doubles as a harness test: the sweep must survive both,
//! record them as discrete outcomes, and surface them in the
//! `faults.mc.*` metrics counters.
//!
//! After the curves, an interrupted-resume check emulates a mid-run
//! kill by cutting a real checkpoint back to the first half of its
//! points and resuming from it; the resumed outcome vector must be
//! bit-identical to an uninterrupted run.
//!
//! Knobs (all optional):
//!
//! | knob | default | meaning |
//! |------|---------|---------|
//! | `SUPERNPU_FAULT_SEED` | 42 | experiment seed (sole source of randomness) |
//! | `SUPERNPU_FAULT_SAMPLES` | 200 | Monte-Carlo samples per (cell, σ) point |
//! | `SUPERNPU_FAULT_RETRIES` | 1 | extra attempts after an erroring transient |
//! | `SUPERNPU_FAULT_CHECKPOINT` | 64 | checkpoint interval in samples (0 disables) |
//! | `--resume` (argv) | off | continue from checkpoints in `results/faults/` |
//!
//! Writes `BENCH_faults.json` (the configuration and every point's
//! tallies, as gate invariants) and (metrics are force-enabled)
//! `results/metrics.json`. Exits nonzero if the sweep dies or any
//! invariant fails.

use std::path::PathBuf;

use sfq_faults::{run_outcomes, yield_curve, Cell, Injection, McOptions, YieldPoint};
use supernpu_bench::report::die;
use supernpu_bench::{cut_to_first_half, gate, yield_curve_records};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Check the tally invariants of one yield point. Returns the
/// complaints (empty = healthy).
fn point_complaints(p: &YieldPoint, samples: u32) -> Vec<String> {
    let mut out = Vec::new();
    let tally = p.pass + p.fail + p.non_convergent + p.panicked;
    if tally != samples {
        out.push(format!(
            "{} σ={}: tally {tally} != samples {samples}",
            p.cell, p.sigma
        ));
    }
    if p.panicked < 1 {
        out.push(format!(
            "{} σ={}: injected panicking probe not recorded",
            p.cell, p.sigma
        ));
    }
    if p.non_convergent < 1 {
        out.push(format!(
            "{} σ={}: injected non-convergent probe not recorded",
            p.cell, p.sigma
        ));
    }
    out
}

/// Interrupted-resume check: reference run, then a checkpointed run
/// whose checkpoint is cut to its first half, then a resume from it.
/// Returns whether the resumed outcomes were bit-identical.
fn resume_check(cell: Cell, sigma: f64, seed: u64, opts: &McOptions) -> Result<bool, String> {
    let mut reference_opts = opts.clone();
    reference_opts.checkpoint_every = 0;
    reference_opts.checkpoint_path = None;
    reference_opts.resume = false;
    let reference = run_outcomes(cell, sigma, seed, &reference_opts).map_err(|e| e.to_string())?;

    let path = PathBuf::from("results/faults/resume_demo.checkpoint.json");
    let mut checkpointed = opts.clone();
    checkpointed.checkpoint_every = opts.checkpoint_every.max(1);
    checkpointed.checkpoint_path = Some(path.clone());
    checkpointed.resume = false;
    run_outcomes(cell, sigma, seed, &checkpointed).map_err(|e| e.to_string())?;
    cut_to_first_half(&path)?;
    checkpointed.resume = true;
    let resumed = run_outcomes(cell, sigma, seed, &checkpointed).map_err(|e| e.to_string())?;
    Ok(resumed == reference)
}

fn main() {
    let _session = supernpu_bench::session::begin("bench_faults");
    sfq_obs::set_enabled(true);
    supernpu_bench::header(
        "BENCH faults",
        "Monte-Carlo yield under parameter variation (robustness demo, not a paper figure)",
    );

    let seed = env_u64("SUPERNPU_FAULT_SEED", 42);
    // The injected failures sit at sample indices 3 and 7, so the run
    // needs at least 8 samples to exercise them.
    let samples = env_u32("SUPERNPU_FAULT_SAMPLES", 200).max(8);
    let retries = env_u32("SUPERNPU_FAULT_RETRIES", 1);
    let checkpoint_every = env_u32("SUPERNPU_FAULT_CHECKPOINT", 64);
    let resume = std::env::args().any(|a| a == "--resume");
    let sigmas = [0.02, 0.05, 0.10, 0.20, 0.35];

    let mut opts = McOptions::new(samples);
    opts.retries = retries;
    opts.checkpoint_every = checkpoint_every;
    opts.resume = resume;
    opts.injection = Injection {
        panic_at: vec![3],
        non_convergent_at: vec![7],
    };

    println!(
        "seed {seed} | {samples} samples/point | retries {retries} | \
         checkpoint every {checkpoint_every} | resume {resume}"
    );
    println!("injected per point: sample 3 panics, sample 7 never converges\n");

    // The injected probe panics are expected and caught by the
    // harness; silence the default hook so they do not spam stderr.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let mut complaints: Vec<String> = Vec::new();
    let mut curves: Vec<Vec<YieldPoint>> = Vec::new();
    for cell in Cell::all() {
        let mut per_cell = opts.clone();
        if checkpoint_every > 0 {
            per_cell.checkpoint_path = Some(PathBuf::from(format!(
                "results/faults/{}.checkpoint.json",
                cell.name()
            )));
        } else {
            per_cell.checkpoint_every = 0;
        }
        match yield_curve(cell, &sigmas, seed, &per_cell) {
            Ok(points) => {
                println!("{}:", cell.name());
                println!(
                    "  {:>6}  {:>7}  {:>5}  {:>5}  {:>7}  {:>8}",
                    "sigma", "yield", "pass", "fail", "nonconv", "panicked"
                );
                for p in &points {
                    println!(
                        "  {:>6.3}  {:>6.1}%  {:>5}  {:>5}  {:>7}  {:>8}",
                        p.sigma,
                        100.0 * p.yield_fraction(),
                        p.pass,
                        p.fail,
                        p.non_convergent,
                        p.panicked
                    );
                    complaints.extend(point_complaints(p, samples));
                }
                println!();
                curves.push(points);
            }
            Err(e) => {
                std::panic::set_hook(hook);
                supernpu_bench::session::fail(format!("{} sweep died: {e}", cell.name()));
            }
        }
    }

    let resume_identical = resume_check(Cell::Jtl, sigmas[1], seed, &opts).unwrap_or_else(|e| {
        eprintln!("resume check failed: {e}");
        false
    });
    std::panic::set_hook(hook);
    println!(
        "interrupted-resume check: {}",
        if resume_identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    if !resume_identical {
        complaints.push("resumed run diverged from uninterrupted run".into());
    }

    // The injected failures must be visible in the metrics registry
    // (they also land in results/metrics.json below).
    let metrics = sfq_obs::snapshot();
    for counter in ["faults.mc.panicked", "faults.mc.non_convergent"] {
        if metrics.counter(counter).unwrap_or(0) == 0 {
            complaints.push(format!("metrics counter {counter} is zero"));
        }
    }

    let records = yield_curve_records(seed, samples, retries, &curves);
    gate::write("BENCH_faults.json", &records).unwrap_or_else(|e| die(e));
    supernpu_bench::write_metrics();

    if !complaints.is_empty() {
        for c in &complaints {
            eprintln!("ERROR: {c}");
        }
        supernpu_bench::session::fail(format!(
            "{} Monte-Carlo invariant(s) violated",
            complaints.len()
        ));
    }
}
