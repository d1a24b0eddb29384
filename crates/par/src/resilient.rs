//! Crash-safe, budget-aware sweep execution: the workspace's one
//! sweep driver.
//!
//! A sweep is `n` independent points, each evaluated by a pure
//! function of its index: the design-space sweeps of Figs. 20–22 and
//! the lane groups of a Monte-Carlo yield run alike. [`run_resilient`]
//! runs that shape under execution guards:
//!
//! * every evaluation of a point is one guarded attempt: the sweep's
//!   [`sfq_guard::RunBudget`] (deadline + cancel token) is checked
//!   before it starts, the chaos harness draws for `(point, attempt)`,
//!   a limited budget is installed as the ambient guard so transient
//!   solves inside observe it (an unlimited one leaves the caller's),
//!   and the point runs under its own `catch_unwind`;
//! * a point that panics or times out is retried serially under
//!   exponential backoff, then degraded to the caller's `fallback`
//!   (typically the same closed-form evaluation, or a slower but
//!   safer path) instead of being dropped;
//! * **every** point ends in a labeled terminal [`PointState`], and
//!   one that ends without a value is logged;
//! * with a checkpoint path, the completed prefix is persisted
//!   atomically (temp file + fsync + rename, via
//!   [`sfq_guard::checkpoint`]) after every chunk, so a killed sweep
//!   resumes bit-identically: restored values round-trip through the
//!   same JSON encoding the final report uses.
//!
//! Chaos draws are keyed on a point's sweep index, never on its
//! position in a checkpoint chunk, so a checkpointed or resumed sweep
//! draws exactly what an unchunked one does.
//!
//! With unguarded options (unlimited budget, no checkpoint) the runner
//! is a single [`par_map`] dispatch plus per-point bookkeeping.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use sfq_guard::chaos::{self, ChaosAction};
use sfq_guard::checkpoint::{self, CheckpointError};
use sfq_guard::{BudgetStop, RunBudget};

use crate::par_map;

/// Terminal state of one sweep point after a resilient sweep.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PointState {
    /// Evaluated normally (first attempt or a successful retry).
    Completed,
    /// Every attempt failed; the fallback evaluation supplied the
    /// value. `attempts` counts the retries that were burned first.
    Degraded {
        /// Retries attempted before degrading.
        attempts: u32,
    },
    /// The sweep budget's deadline passed before the point could run
    /// (and no fallback was available to degrade to).
    TimedOut,
    /// The sweep was cooperatively cancelled before the point ran.
    Cancelled,
    /// Every attempt failed and the fallback (if any) panicked too.
    /// Under an unlimited budget a chaos timeout fails an attempt like
    /// a panic, since no budget stopped it.
    Failed {
        /// Message of the last attempt's failure.
        message: String,
    },
}

/// One sweep point's terminal state plus its value (present exactly
/// when the state is `Completed` or `Degraded`).
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedPoint<P> {
    /// Index of the point in the sweep's 0..n ordering.
    pub index: usize,
    /// How the point terminated.
    pub state: PointState,
    /// The evaluated (or fallback) value.
    pub value: Option<P>,
}

/// Result of a resilient sweep: every point, labeled.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport<P> {
    /// All `n` points, in index order.
    pub points: Vec<ResolvedPoint<P>>,
    /// How many leading points were restored from a checkpoint
    /// instead of evaluated.
    pub restored: usize,
}

impl<P> SweepReport<P> {
    /// Values of all value-bearing points, in index order.
    pub fn values(self) -> Vec<P> {
        self.points.into_iter().filter_map(|p| p.value).collect()
    }

    /// Points that ended without a value for a non-budget reason —
    /// the "silently lost" class the guard layer exists to empty.
    /// Budget stops (`TimedOut`/`Cancelled`) are excluded: they are
    /// the caller's explicit request to stop, not a loss.
    #[must_use]
    pub fn lost(&self) -> usize {
        self.points
            .iter()
            .filter(|p| p.value.is_none() && matches!(p.state, PointState::Failed { .. }))
            .count()
    }

    /// `(completed, degraded, timed_out, cancelled, failed)` counts.
    #[must_use]
    pub fn state_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for p in &self.points {
            match p.state {
                PointState::Completed => c.0 += 1,
                PointState::Degraded { .. } => c.1 += 1,
                PointState::TimedOut => c.2 += 1,
                PointState::Cancelled => c.3 += 1,
                PointState::Failed { .. } => c.4 += 1,
            }
        }
        c
    }
}

/// Options for [`run_resilient`].
#[derive(Debug, Clone)]
pub struct ResilientOpts {
    /// Whole-sweep budget (deadline, cancel token). When limited, it
    /// is installed as the ambient guard around every point evaluation.
    pub budget: RunBudget,
    /// Serial retries (with exponential backoff) for a point that
    /// panicked or was chaos-timed-out before degrading to the
    /// fallback.
    pub retries: u32,
    /// Where to persist the completed prefix (`None` disables
    /// checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Points per chunk between checkpoint writes (0 with a path set
    /// means one final write after the whole sweep).
    pub checkpoint_every: usize,
    /// Load a matching checkpoint and continue from its completed
    /// prefix.
    pub resume: bool,
}

impl ResilientOpts {
    /// No guards at all: unlimited budget, default retries, no
    /// checkpoint.
    #[must_use]
    pub fn unguarded() -> Self {
        ResilientOpts {
            budget: RunBudget::unlimited(),
            retries: sfq_guard::DEFAULT_RETRIES,
            checkpoint_path: None,
            checkpoint_every: 0,
            resume: false,
        }
    }

    /// Builder: set the sweep budget.
    #[must_use]
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Builder: checkpoint to `path` every `every` points and resume
    /// from it when present.
    #[must_use]
    pub fn with_checkpoint(mut self, path: PathBuf, every: usize, resume: bool) -> Self {
        self.checkpoint_path = Some(path);
        self.checkpoint_every = every;
        self.resume = resume;
        self
    }
}

/// Errors of the resilient runner itself (never of a sweep point —
/// point failures are [`PointState`]s, not errors).
#[derive(Debug)]
pub enum SweepError {
    /// Reading or writing the checkpoint failed.
    Checkpoint(CheckpointError),
    /// A checkpoint was found but belongs to a different sweep
    /// (name, identity or point count mismatch).
    Mismatch {
        /// Path of the offending checkpoint.
        path: PathBuf,
    },
    /// A point value could not be serialized for the checkpoint.
    Serialize {
        /// Index of the unserializable point.
        index: usize,
        /// Serializer error text.
        message: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Checkpoint(e) => write!(f, "sweep checkpoint: {e}"),
            SweepError::Mismatch { path } => write!(
                f,
                "checkpoint {} belongs to a different sweep (name/identity/total mismatch)",
                path.display()
            ),
            SweepError::Serialize { index, message } => {
                write!(
                    f,
                    "point {index} not serializable for checkpoint: {message}"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Stable identity of a sweep's parameterization: mix the sweep's
/// defining integers (grid bounds, divisions, bit-cast floats…) so a
/// checkpoint from a differently-parameterized run is rejected
/// instead of silently grafted on.
#[must_use]
pub fn sweep_identity(parts: &[u64]) -> u64 {
    // splitmix64 finalizer over a running combine — stable across
    // runs and platforms, which is all an identity check needs.
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for &p in parts {
        let mut z = h ^ p.wrapping_mul(0xff51_afd7_ed55_8ccd);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = z ^ (z >> 31);
    }
    h
}

// Non-generic on-disk records (the vendored serde derive does not do
// generics): point values are stored pre-serialized.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PointRecord {
    index: u64,
    state: PointState,
    value_json: String,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct SweepCheckpoint {
    name: String,
    identity: u64,
    total: u64,
    points: Vec<PointRecord>,
}

fn load_prefix<P: Deserialize>(
    path: &Path,
    name: &str,
    identity: u64,
    n: usize,
) -> Result<Vec<ResolvedPoint<P>>, SweepError> {
    let Some(cp) =
        checkpoint::load_json::<SweepCheckpoint>(path).map_err(SweepError::Checkpoint)?
    else {
        return Ok(Vec::new());
    };
    if cp.name != name || cp.identity != identity || cp.total != n as u64 {
        return Err(SweepError::Mismatch {
            path: path.to_path_buf(),
        });
    }
    let mut restored = Vec::new();
    for rec in &cp.points {
        // Only the in-order prefix of value-bearing points is
        // trustworthy: the first gap or non-terminal point marks
        // where the killed run stopped making durable progress.
        if rec.index != restored.len() as u64
            || !matches!(
                rec.state,
                PointState::Completed | PointState::Degraded { .. }
            )
        {
            break;
        }
        match serde_json::from_str::<P>(&rec.value_json) {
            Ok(v) => restored.push(ResolvedPoint {
                index: restored.len(),
                state: rec.state.clone(),
                value: Some(v),
            }),
            Err(_) => break,
        }
    }
    sfq_obs::add("resilient.points_restored", restored.len() as u64);
    Ok(restored)
}

fn write_prefix<P: Serialize>(
    path: &Path,
    name: &str,
    identity: u64,
    n: usize,
    resolved: &[ResolvedPoint<P>],
) -> Result<(), SweepError> {
    let mut points = Vec::with_capacity(resolved.len());
    for rp in resolved {
        let value_json = match &rp.value {
            Some(v) => serde_json::to_string(v).map_err(|e| SweepError::Serialize {
                index: rp.index,
                message: e.to_string(),
            })?,
            None => String::new(),
        };
        points.push(PointRecord {
            index: rp.index as u64,
            state: rp.state.clone(),
            value_json,
        });
    }
    let cp = SweepCheckpoint {
        name: name.to_owned(),
        identity,
        total: n as u64,
        points,
    };
    checkpoint::atomic_write_json(path, &cp).map_err(SweepError::Checkpoint)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Attempt `k` (0 = the first dispatch) at sweep point `i`. The
/// budget gate stops a point that has not started once the deadline
/// passes or the token fires; the chaos draw for `(i, k)` may time the
/// attempt out, stall it or panic it; a limited budget becomes the
/// ambient guard for the transients `eval` spawns; and a panic is
/// caught here, so it fails only this point. `Err` carries the state
/// the point ends in if nothing rescues it: `Cancelled`, `TimedOut` or
/// `Failed` with the panic message. `TimedOut` is a budget stop, so a
/// chaos timeout under an unlimited budget is `Failed` instead.
fn attempt<P>(
    i: usize,
    k: u32,
    budget: &RunBudget,
    eval: &(impl Fn(usize) -> P + Sync),
) -> Result<P, PointState> {
    match budget.check_now() {
        Some(BudgetStop::Cancelled) => {
            sfq_obs::inc("guard.par.cancelled");
            return Err(PointState::Cancelled);
        }
        Some(_) => {
            sfq_obs::inc("guard.par.timed_out");
            return Err(PointState::TimedOut);
        }
        None => {}
    }
    let chaos_action = chaos::decide(i as u64, k);
    if chaos_action == Some(ChaosAction::Timeout) {
        sfq_obs::inc("guard.par.timed_out");
        return Err(if budget.is_unlimited() {
            PointState::Failed {
                message: format!("chaos: injected timeout in task {i}"),
            }
        } else {
            PointState::TimedOut
        });
    }
    let limited = (!budget.is_unlimited()).then_some(budget);
    catch_unwind(AssertUnwindSafe(|| {
        sfq_guard::scope_opt(limited, || {
            match chaos_action {
                Some(ChaosAction::Panic) => chaos::injected_panic(i as u64),
                Some(ChaosAction::Stall(d)) => std::thread::sleep(d),
                _ => {}
            }
            eval(i)
        })
    }))
    .map_err(|payload| {
        sfq_obs::inc("par.task_panics");
        sfq_obs::trace::instant("par", "task panic");
        PointState::Failed {
            message: panic_message(payload),
        }
    })
}

/// Resolve point `i` after its first attempt ended in `first`
/// (`TimedOut` or `Failed`): serial retries, then the fallback. A point
/// nothing rescues ends in its last attempt's state.
fn retry_point<P>(
    i: usize,
    first: PointState,
    opts: &ResilientOpts,
    eval: &(impl Fn(usize) -> P + Sync),
    fallback: Option<&(impl Fn(usize) -> P + Sync)>,
) -> ResolvedPoint<P> {
    let resolved = |state, value| ResolvedPoint {
        index: i,
        state,
        value,
    };
    let mut attempts = 0u32;
    let mut last = first;
    for k in 1..=opts.retries {
        if opts.budget.is_cancelled() {
            return resolved(PointState::Cancelled, None);
        }
        // A globally expired deadline makes retries pointless: go
        // straight down the ladder to the fallback.
        if opts.budget.deadline_passed() {
            break;
        }
        attempts = k;
        sfq_guard::sleep_backoff(k);
        match attempt(i, k, &opts.budget, eval) {
            Ok(v) => return resolved(PointState::Completed, Some(v)),
            Err(PointState::Cancelled) => return resolved(PointState::Cancelled, None),
            Err(state) => last = state,
        }
    }
    // Bottom rung: the fallback runs inline, chaos-free and outside
    // the budget scope — it is the guarantee that a point ends with a
    // value, so nothing is allowed to interrupt it but its own panic.
    if let Some(fb) = fallback {
        if let Ok(v) = catch_unwind(AssertUnwindSafe(|| fb(i))) {
            sfq_obs::inc("guard.degraded");
            return resolved(PointState::Degraded { attempts }, Some(v));
        }
    }
    resolved(last, None)
}

/// Run `n` sweep points under execution guards; see the module docs
/// for the guarantees.
///
/// `eval(i)` evaluates point `i`; it must be deterministic for
/// resume-bit-identity to hold. `fallback(i)`, when given, is the
/// degraded evaluation used after all retries fail — it runs inline
/// without chaos injection, so with a fallback present no point can
/// end valueless short of the fallback itself panicking.
///
/// `identity` fingerprints the sweep's parameterization (use
/// [`sweep_identity`]); a checkpoint whose identity differs is
/// rejected with [`SweepError::Mismatch`] rather than silently mixed
/// into the wrong sweep.
///
/// # Errors
///
/// Only checkpoint-layer problems ([`SweepError`]); design-point
/// failures are labeled [`PointState`]s in the report, never errors.
pub fn run_resilient<P, F, G>(
    name: &str,
    identity: u64,
    n: usize,
    opts: &ResilientOpts,
    eval: F,
    fallback: Option<G>,
) -> Result<SweepReport<P>, SweepError>
where
    P: Serialize + Deserialize + Send,
    F: Fn(usize) -> P + Sync,
    G: Fn(usize) -> P + Sync,
{
    let _sweep = sfq_obs::region("resilient.sweep");
    let indices: Vec<usize> = (0..n).collect();

    let mut resolved: Vec<ResolvedPoint<P>> = match (&opts.checkpoint_path, opts.resume) {
        (Some(p), true) => load_prefix(p, name, identity, n)?,
        _ => Vec::new(),
    };
    resolved.truncate(n);
    let restored = resolved.len();

    // Progress: the sweep narrates itself under its own name; the
    // par_map regions underneath see the slot taken and stay quiet.
    // Restored points count as done immediately.
    let progress = sfq_obs::progress::Phase::enter(name, n as u64);
    if progress.is_claimed() {
        sfq_obs::progress::tick(restored as u64);
    }

    // Chunk size: the checkpoint cadence, or everything at once (the
    // plain sweeps' single dispatch) when checkpointing is off.
    let chunk = if opts.checkpoint_path.is_some() && opts.checkpoint_every > 0 {
        opts.checkpoint_every
    } else {
        n.saturating_sub(restored).max(1)
    };

    while resolved.len() < n {
        let start = resolved.len();
        let end = (start + chunk).min(n);
        let firsts = par_map(&indices[start..end], |&i| {
            attempt(i, 0, &opts.budget, &eval)
        });
        for (i, first) in (start..end).zip(firsts) {
            let rp = match first {
                Ok(v) => ResolvedPoint {
                    index: i,
                    state: PointState::Completed,
                    value: Some(v),
                },
                Err(PointState::Cancelled) => ResolvedPoint {
                    index: i,
                    state: PointState::Cancelled,
                    value: None,
                },
                Err(state) => retry_point(i, state, opts, &eval, fallback.as_ref()),
            };
            if sfq_obs::enabled() {
                sfq_obs::inc(match rp.state {
                    PointState::Completed => "resilient.completed",
                    PointState::Degraded { .. } => "resilient.degraded",
                    PointState::TimedOut => "resilient.timed_out",
                    PointState::Cancelled => "resilient.cancelled",
                    PointState::Failed { .. } => "resilient.failed",
                });
            }
            // A point the budget clipped marks the whole run's ledger
            // outcome — the manifest should say the sweep was cut
            // short even though the report itself is well-formed.
            if matches!(rp.state, PointState::TimedOut | PointState::Cancelled) {
                sfq_obs::ledger::note_budget_exceeded();
            }
            if rp.value.is_none() {
                sfq_obs::log(sfq_obs::Level::Warn, || {
                    format!(
                        "{name}: sweep point {i} ended without a value: {:?}",
                        rp.state
                    )
                });
            }
            if progress.is_claimed() {
                sfq_obs::progress::tick(1);
            }
            resolved.push(rp);
        }
        if let Some(p) = &opts.checkpoint_path {
            write_prefix(p, name, identity, n, &resolved)?;
        }
    }

    Ok(SweepReport {
        points: resolved,
        restored,
    })
}
