//! Monte-Carlo yield estimation over perturbed stdlib cells, run
//! through the workspace's crash-isolated, checkpointing sweep driver
//! (`sfq_par::resilient::run_resilient`).
//!
//! For a cell and a variation strength σ, the estimator draws `samples`
//! independent perturbed parameter sets (one [`SplitMix64`] substream
//! per sample, derived from `(seed, cell, σ, index)`), simulates each
//! cell's functional testbench, and classifies every sample into a
//! discrete [`Outcome`]. The per-cell yield-vs-σ curve is the SFQ
//! analogue of a process corner report: it tells you how much parameter
//! spread a cell survives.
//!
//! ## Robustness contract
//!
//! * A sample that **panics** (whether injected via [`Injection`] or a
//!   genuine solver bug) is caught by its own `catch_unwind` and
//!   recorded as [`Outcome::Panicked`] — it poisons only itself.
//! * A sample whose transient **errors** is retried up to
//!   `McOptions::retries` extra times, then recorded as
//!   [`Outcome::NonConvergent`].
//! * The sweep's points are the lane groups of the run. With
//!   `checkpoint_every > 0` and a `checkpoint_path`, the completed
//!   prefix of groups is persisted every `checkpoint_every` samples
//!   (rounded up to whole groups); `resume` loads a matching
//!   checkpoint and continues. Because outcomes are discrete and every sample is a
//!   pure function of `(seed, cell, σ, index)`, a resumed run is
//!   **bit-identical** to an uninterrupted one, at any thread count.
//!   A checkpoint resumes only at the lane width that wrote it.
//! * Under the chaos harness (`SUPERNPU_CHAOS`), injected faults hit
//!   a lane group's first dispatch only. A group that does not
//!   complete is redone by the chaos-free per-sample fallback, so
//!   chaos never changes an outcome.

use std::path::PathBuf;

use jjsim::stdlib::{clocked_and, dff, jtl_chain, AndParams, DffParams, JtlParams};
use jjsim::{BatchedTransient, Circuit, ElementId, SimError, SimOptions, SimResult};
use serde::{Deserialize, Serialize};
use sfq_par::resilient::{run_resilient, sweep_identity, ResilientOpts};

use crate::rng::SplitMix64;
use crate::variation::{perturb_and, perturb_dff, perturb_jtl, Variation};

/// The stdlib cells the yield estimator knows how to probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cell {
    /// 4-stage Josephson transmission line: one pulse in, one out per
    /// stage.
    Jtl,
    /// D flip-flop: store-then-release works and a clock without data
    /// stays silent.
    Dff,
    /// Clocked AND: fires with both inputs set, silent with one.
    ClockedAnd,
}

impl Cell {
    /// All probeable cells.
    pub fn all() -> [Cell; 3] {
        [Cell::Jtl, Cell::Dff, Cell::ClockedAnd]
    }

    /// Stable display name (also the checkpoint identity).
    pub fn name(self) -> &'static str {
        match self {
            Cell::Jtl => "jtl",
            Cell::Dff => "dff",
            Cell::ClockedAnd => "clocked_and",
        }
    }

    /// Stable substream tag: part of every sample's RNG derivation.
    fn tag(self) -> u64 {
        match self {
            Cell::Jtl => 1,
            Cell::Dff => 2,
            Cell::ClockedAnd => 3,
        }
    }
}

/// The verdict of one Monte-Carlo sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// The perturbed cell passed its functional testbench.
    Pass,
    /// The cell simulated fine but misbehaved (wrong pulse counts).
    Fail,
    /// Every attempt errored (solver divergence or an injected
    /// non-convergence); no functional verdict exists.
    NonConvergent,
    /// The probe panicked; the harness absorbed it.
    Panicked,
}

/// Injected failures for exercising the harness itself: the listed
/// sample indices panic / refuse to converge instead of simulating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Injection {
    /// Samples that panic on every attempt.
    pub panic_at: Vec<usize>,
    /// Samples that return a typed non-convergence on every attempt.
    pub non_convergent_at: Vec<usize>,
}

/// Harness options for one Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct McOptions {
    /// Number of samples to draw.
    pub samples: u32,
    /// Extra attempts after a sample's first erroring transient.
    pub retries: u32,
    /// Persist the completed prefix every this many samples, rounded
    /// up to whole lane groups (0 disables checkpointing).
    pub checkpoint_every: u32,
    /// Where to persist / look for the checkpoint.
    pub checkpoint_path: Option<PathBuf>,
    /// Load a matching checkpoint and continue from its prefix.
    pub resume: bool,
    /// Injected failures (empty in production runs).
    pub injection: Injection,
}

impl McOptions {
    /// Plain run: `samples` draws, one retry, no checkpointing.
    pub fn new(samples: u32) -> Self {
        McOptions {
            samples,
            retries: 1,
            checkpoint_every: 0,
            checkpoint_path: None,
            resume: false,
            injection: Injection::default(),
        }
    }
}

/// One point of a yield curve: the outcome tally at a single σ.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct YieldPoint {
    /// Which cell was probed.
    pub cell: String,
    /// Relative variation σ applied to every parameter family.
    pub sigma: f64,
    /// Samples drawn.
    pub samples: u32,
    /// Functional passes.
    pub pass: u32,
    /// Functional failures (simulated fine, wrong behaviour).
    pub fail: u32,
    /// Samples with no verdict after the retry budget.
    pub non_convergent: u32,
    /// Samples whose probe panicked.
    pub panicked: u32,
}

impl YieldPoint {
    /// Fraction of samples that passed. Samples without a verdict
    /// (non-convergent, panicked) count against yield — a cell you
    /// could not certify is not a working cell.
    pub fn yield_fraction(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            f64::from(self.pass) / f64::from(self.samples)
        }
    }
}

/// Errors of the harness itself (never of an individual sample).
#[derive(Debug)]
pub enum FaultError {
    /// Options are unusable (e.g. checkpointing without a path).
    InvalidOptions {
        /// What is wrong.
        what: &'static str,
    },
    /// A checkpoint could not be read, written or trusted.
    Checkpoint {
        /// The offending path.
        path: PathBuf,
        /// Why.
        message: String,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::InvalidOptions { what } => write!(f, "invalid Monte-Carlo options: {what}"),
            FaultError::Checkpoint { path, message } => {
                write!(f, "checkpoint {}: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// One perturbed parameter draw of a cell.
#[derive(Debug, Clone, Copy)]
enum Draw {
    Jtl(JtlParams),
    Dff(DffParams),
    ClockedAnd(AndParams),
}

/// One phase of a cell's functional testbench.
struct Phase {
    circuit: Circuit,
    /// Simulated horizon, seconds.
    t_end: f64,
    check: Check,
}

/// A phase's pass check: every probed junction slips exactly `pulses`
/// times.
struct Check {
    probes: Vec<ElementId>,
    pulses: usize,
}

impl Check {
    fn passes(&self, out: &SimResult) -> bool {
        self.probes
            .iter()
            .all(|&j| out.pulse_count(j) == self.pulses)
    }
}

impl Draw {
    /// Sample `idx`'s parameters, drawn from its own substream: pure in
    /// `(seed, cell, σ, idx)`, so a retry or a resumed run redraws them
    /// identically.
    fn new(cell: Cell, sigma: f64, seed: u64, idx: usize) -> Draw {
        let v = Variation::uniform(sigma);
        let mut rng = SplitMix64::substream(seed, &[cell.tag(), sigma.to_bits(), idx as u64]);
        match cell {
            Cell::Jtl => Draw::Jtl(perturb_jtl(&JtlParams::default(), &v, &mut rng)),
            Cell::Dff => Draw::Dff(perturb_dff(&DffParams::default(), &v, &mut rng)),
            Cell::ClockedAnd => Draw::ClockedAnd(perturb_and(&AndParams::default(), &v, &mut rng)),
        }
    }

    /// Phase `k` of the cell's functional testbench, `None` past the
    /// last. A sample passes when every phase passes and fails at the
    /// first phase that does not. Every draw of one cell builds phase
    /// `k` with the same topology, so a phase batches across samples.
    fn phase(&self, k: usize) -> Option<Phase> {
        let (circuit, t_end, probes, pulses) = match (self, k) {
            // JTL: one pulse in, one out per stage.
            (Draw::Jtl(p), 0) => {
                let (c, stages) = jtl_chain(4, p);
                (c, 200e-12, stages, 1)
            }
            // DFF: store-then-release works...
            (Draw::Dff(p), 0) => {
                let (c, pr) = dff(&[60e-12], &[100e-12], p);
                (c, 160e-12, vec![pr.input, pr.output], 1)
            }
            // ...and a clock without data stays silent.
            (Draw::Dff(p), 1) => {
                let (c, pr) = dff(&[], &[100e-12], p);
                (c, 160e-12, vec![pr.output], 0)
            }
            // Clocked AND: fires with both inputs set...
            (Draw::ClockedAnd(p), 0) => {
                let (c, pr) = clocked_and(&[60e-12], &[60e-12], &[100e-12], p);
                (c, 170e-12, vec![pr.output], 1)
            }
            // ...and stays silent with one.
            (Draw::ClockedAnd(p), 1) => {
                let (c, pr) = clocked_and(&[60e-12], &[], &[100e-12], p);
                (c, 170e-12, vec![pr.output], 0)
            }
            _ => return None,
        };
        Some(Phase {
            circuit,
            t_end,
            check: Check { probes, pulses },
        })
    }
}

/// One sample's testbench verdict: pass or fail, or the error of a
/// transient that did not finish.
type Verdict = Result<bool, SimError>;

/// Run the testbenches of `draws` (all of one cell) phase by phase,
/// each phase as one [`BatchedTransient`] over the draws that passed
/// every earlier phase. A one-draw batch runs on one lane, so a lone
/// sample and a lane group share this function.
///
/// # Errors
///
/// A phase's batch could not be built (e.g. a perturbed circuit fails
/// validation).
fn run_testbenches(draws: &[Draw]) -> Result<Vec<Verdict>, SimError> {
    let mut verdicts: Vec<Verdict> = vec![Ok(true); draws.len()];
    let mut live: Vec<usize> = (0..draws.len()).collect();
    let mut k = 0;
    while !live.is_empty() {
        let Some(phases) = live
            .iter()
            .map(|&s| draws[s].phase(k))
            .collect::<Option<Vec<_>>>()
        else {
            break; // every live draw passed the cell's last phase
        };
        let t_end = phases[0].t_end;
        let (circuits, checks): (Vec<Circuit>, Vec<Check>) =
            phases.into_iter().map(|p| (p.circuit, p.check)).unzip();
        let runs = BatchedTransient::new(circuits, SimOptions::adaptive())?.try_run(t_end);
        let mut passed = Vec::with_capacity(live.len());
        for ((s, check), run) in live.into_iter().zip(checks).zip(runs) {
            match run {
                Ok(out) if check.passes(&out) => passed.push(s),
                Ok(_) => verdicts[s] = Ok(false),
                Err(e) => verdicts[s] = Err(e),
            }
        }
        live = passed;
        k += 1;
    }
    Ok(verdicts)
}

fn pass_or_fail(pass: bool) -> Outcome {
    if pass {
        Outcome::Pass
    } else {
        Outcome::Fail
    }
}

/// Run one sample alone to a verdict (everything but panic isolation,
/// which [`scalar_group`] provides).
fn run_sample(cell: Cell, sigma: f64, seed: u64, idx: usize, opts: &McOptions) -> Outcome {
    if opts.injection.panic_at.contains(&idx) {
        panic!("injected fault: sample {idx} of {} probe", cell.name());
    }
    for attempt in 0..=opts.retries {
        if attempt > 0 {
            sfq_obs::inc("faults.mc.retries");
        }
        if opts.injection.non_convergent_at.contains(&idx) {
            continue; // injected: this sample never converges
        }
        // The draw depends only on the sample identity — not the
        // attempt — so a retry reruns the identical computation. The
        // budget exists for injected and environmental failures; a
        // deterministic solver error will simply exhaust it.
        let draw = Draw::new(cell, sigma, seed, idx);
        if let Ok([Ok(pass)]) = run_testbenches(&[draw]).as_deref() {
            return pass_or_fail(*pass);
        }
    }
    Outcome::NonConvergent
}

/// Per-sample outcomes with individual panic isolation, used directly
/// for one-sample and injected groups and as the fallback when a lane
/// group cannot run batched.
fn scalar_group(
    cell: Cell,
    sigma: f64,
    seed: u64,
    idxs: &[usize],
    opts: &McOptions,
) -> Vec<Outcome> {
    sfq_par::par_map(idxs, |&i| {
        std::panic::catch_unwind(|| run_sample(cell, sigma, seed, i, opts)).unwrap_or_else(|_| {
            sfq_obs::inc("par.task_panics");
            Outcome::Panicked
        })
    })
}

/// One lane group of a Monte-Carlo run. Injected groups keep the
/// per-sample path (injection exercises the per-sample harness, which
/// is exactly what must stay observable). Clean groups run batched: a
/// sample whose transient errored reruns alone through [`run_sample`],
/// so the retry accounting and final [`Outcome`] match the per-sample
/// path exactly, and a batch that cannot be built or a genuine panic
/// demotes the whole group to the per-sample path, so panic isolation
/// still holds sample-by-sample.
fn run_group(cell: Cell, sigma: f64, seed: u64, idxs: &[usize], opts: &McOptions) -> Vec<Outcome> {
    let injected = idxs.iter().any(|i| {
        opts.injection.panic_at.contains(i) || opts.injection.non_convergent_at.contains(i)
    });
    if idxs.len() < 2 || injected {
        return scalar_group(cell, sigma, seed, idxs, opts);
    }
    let batched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let draws: Vec<Draw> = idxs
            .iter()
            .map(|&i| Draw::new(cell, sigma, seed, i))
            .collect();
        let verdicts = run_testbenches(&draws).ok()?;
        Some(
            idxs.iter()
                .zip(verdicts)
                .map(|(&i, v)| match v {
                    Ok(pass) => pass_or_fail(pass),
                    Err(_) => run_sample(cell, sigma, seed, i, opts),
                })
                .collect::<Vec<Outcome>>(),
        )
    }));
    match batched {
        Ok(Some(outcomes)) => {
            sfq_obs::inc("faults.mc.batched_groups");
            outcomes
        }
        _ => scalar_group(cell, sigma, seed, idxs, opts),
    }
}

/// Raw per-sample outcomes of one Monte-Carlo run (the basis of
/// [`estimate_yield`]; exposed so tests and the interrupted-resume
/// demo can compare runs sample-by-sample).
///
/// # Errors
///
/// Returns [`FaultError`] for unusable options or checkpoint trouble.
/// Individual sample failures are *outcomes*, not errors.
pub fn run_outcomes(
    cell: Cell,
    sigma: f64,
    seed: u64,
    opts: &McOptions,
) -> Result<Vec<Outcome>, FaultError> {
    if opts.checkpoint_every > 0 && opts.checkpoint_path.is_none() {
        return Err(FaultError::InvalidOptions {
            what: "checkpoint_every > 0 requires checkpoint_path",
        });
    }
    // Lane groups keyed on the *absolute* sample index, so a resumed
    // run regroups exactly like an uninterrupted one. At width 1 every
    // group is one sample.
    let width = jjsim::batch_width();
    let groups: Vec<Vec<usize>> = sfq_par::lane_groups(0, opts.samples as usize, width)
        .into_iter()
        .map(|r| r.collect())
        .collect();
    // No retries: a group that does not complete (a panic in its
    // bookkeeping, or a chaos-forced timeout) is redone at once
    // sample-by-sample with panic isolation.
    let mut run = ResilientOpts {
        retries: 0,
        ..ResilientOpts::unguarded()
    };
    if opts.checkpoint_every > 0 {
        run = run.with_checkpoint(
            opts.checkpoint_path.clone().unwrap_or_default(),
            (opts.checkpoint_every as usize).div_ceil(width),
            opts.resume,
        );
    }
    let identity = sweep_identity(&[
        cell.tag(),
        sigma.to_bits(),
        seed,
        u64::from(opts.samples),
        width as u64,
    ]);
    let report = run_resilient(
        cell.name(),
        identity,
        groups.len(),
        &run,
        |g: usize| run_group(cell, sigma, seed, &groups[g], opts),
        Some(|g: usize| scalar_group(cell, sigma, seed, &groups[g], opts)),
    )
    .map_err(|e| FaultError::Checkpoint {
        path: run.checkpoint_path.clone().unwrap_or_default(),
        message: e.to_string(),
    })?;

    let restored = report.restored;
    let mut outcomes = Vec::with_capacity(opts.samples as usize);
    for (g, point) in report.points.into_iter().enumerate() {
        // Only a fallback that panicked itself leaves a group without
        // a value.
        let group = point
            .value
            .unwrap_or_else(|| vec![Outcome::Panicked; groups[g].len()]);
        if g >= restored && sfq_obs::enabled() {
            for outcome in &group {
                sfq_obs::inc("faults.mc.samples");
                sfq_obs::inc(match outcome {
                    Outcome::Pass => "faults.mc.pass",
                    Outcome::Fail => "faults.mc.fail",
                    Outcome::NonConvergent => "faults.mc.non_convergent",
                    Outcome::Panicked => "faults.mc.panicked",
                });
            }
        }
        outcomes.extend(group);
    }
    Ok(outcomes)
}

/// Tally of [`run_outcomes`]: the yield point at one σ.
///
/// # Errors
///
/// Returns [`FaultError`] for unusable options or checkpoint trouble.
pub fn estimate_yield(
    cell: Cell,
    sigma: f64,
    seed: u64,
    opts: &McOptions,
) -> Result<YieldPoint, FaultError> {
    let outcomes = run_outcomes(cell, sigma, seed, opts)?;
    let mut point = YieldPoint {
        cell: cell.name().to_owned(),
        sigma,
        samples: opts.samples,
        pass: 0,
        fail: 0,
        non_convergent: 0,
        panicked: 0,
    };
    for o in &outcomes {
        match o {
            Outcome::Pass => point.pass += 1,
            Outcome::Fail => point.fail += 1,
            Outcome::NonConvergent => point.non_convergent += 1,
            Outcome::Panicked => point.panicked += 1,
        }
    }
    Ok(point)
}

/// Yield curve: one [`YieldPoint`] per σ. When checkpointing is on,
/// each σ gets its own file (the configured path with the σ bits
/// appended) so interrupting a sweep loses at most one chunk of one
/// point.
///
/// # Errors
///
/// Returns the first harness-level [`FaultError`].
pub fn yield_curve(
    cell: Cell,
    sigmas: &[f64],
    seed: u64,
    opts: &McOptions,
) -> Result<Vec<YieldPoint>, FaultError> {
    let mut points = Vec::with_capacity(sigmas.len());
    for &sigma in sigmas {
        let mut per_sigma = opts.clone();
        if let Some(base) = &opts.checkpoint_path {
            let mut name = base.as_os_str().to_owned();
            name.push(format!(".s{:016x}", sigma.to_bits()));
            per_sigma.checkpoint_path = Some(PathBuf::from(name));
        }
        points.push(estimate_yield(cell, sigma, seed, &per_sigma)?);
    }
    Ok(points)
}
