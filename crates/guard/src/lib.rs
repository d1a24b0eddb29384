//! `sfq-guard` — the workspace's resilient-execution layer.
//!
//! Long sweeps die three ways: a pathological design point spins the
//! Newton loop forever, a worker panics and takes its design point
//! with it, or the whole process is killed mid-run. This crate holds
//! the shared machinery every layer uses to survive all three:
//!
//! * [`RunBudget`] / [`CancelToken`] — a wall-clock deadline plus
//!   step/Newton budgets plus a shared atomic cancel flag. The budget
//!   travels *ambiently*: [`scope`] installs it in a thread-local,
//!   [`active`] reads it back, and `sfq-par` re-installs the caller's
//!   budget inside its worker threads so a deadline set around a sweep
//!   reaches every transient the sweep spawns without threading a
//!   parameter through ten signatures.
//! * [`chaos`] — seeded, deterministic fault injection (panics,
//!   stalls, forced timeouts) into the sweep driver's guarded
//!   attempts, so the recovery machinery is exercised on purpose
//!   instead of only in production.
//! * [`checkpoint`] — crash-safe atomic file persistence (temp file in
//!   the same directory → fsync → rename) generalized out of the
//!   `sfq-faults` Monte-Carlo so any sweep can be killed and resumed
//!   bit-identically.
//!
//! # Disabled fast path
//!
//! Like `sfq-obs`, the guard layer must cost nothing when unused: a
//! process that never enters a [`scope`] pays **one relaxed atomic
//! load** per query ([`enabled`] short-circuits before touching the
//! thread-local). The solver's accept loop queries once per run, not
//! per step, and polls the captured budget only when one is active.

pub mod chaos;
pub mod checkpoint;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ------------------------------------------------------------- cancel

/// A cloneable cooperative-cancellation flag.
///
/// All clones share one atomic: cancelling any clone cancels them
/// all. Checking is a single relaxed load — cheap enough for a
/// solver accept loop.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation; every holder of a clone observes it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
        sfq_obs::inc("guard.cancel_requested");
    }

    /// Has cancellation been requested? One relaxed load.
    #[inline]
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

// ------------------------------------------------------------- budget

/// Why a budgeted run was stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetStop {
    /// The shared [`CancelToken`] was triggered.
    Cancelled,
    /// The wall-clock deadline passed.
    DeadlineExceeded,
    /// The step-attempt budget (accepted + rejected solver steps) ran
    /// out.
    StepBudgetExceeded,
    /// The cumulative Newton-iteration budget ran out.
    NewtonBudgetExceeded,
}

impl BudgetStop {
    /// Short static label (also the `guard.*` counter suffix).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BudgetStop::Cancelled => "cancelled",
            BudgetStop::DeadlineExceeded => "deadline",
            BudgetStop::StepBudgetExceeded => "step_budget",
            BudgetStop::NewtonBudgetExceeded => "newton_budget",
        }
    }

    fn count(self) {
        match self {
            BudgetStop::Cancelled => sfq_obs::inc("guard.stop.cancelled"),
            BudgetStop::DeadlineExceeded => sfq_obs::inc("guard.stop.deadline"),
            BudgetStop::StepBudgetExceeded => sfq_obs::inc("guard.stop.step_budget"),
            BudgetStop::NewtonBudgetExceeded => sfq_obs::inc("guard.stop.newton_budget"),
        }
    }
}

impl std::fmt::Display for BudgetStop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetStop::Cancelled => f.write_str("run cancelled"),
            BudgetStop::DeadlineExceeded => f.write_str("wall-clock deadline exceeded"),
            BudgetStop::StepBudgetExceeded => f.write_str("step budget exceeded"),
            BudgetStop::NewtonBudgetExceeded => f.write_str("newton-iteration budget exceeded"),
        }
    }
}

/// Deadline polls are strided: the wall clock is only read every
/// `DEADLINE_STRIDE`-th poll tick, bounding `Instant::now` overhead on
/// sub-microsecond solver steps while still catching a runaway
/// reject/retry loop (the tick advances on *attempts*, not accepts).
const DEADLINE_STRIDE: u64 = 16;

/// An execution budget: wall-clock deadline, step/Newton caps and a
/// cooperative cancel flag, any subset of which may be set.
///
/// The default budget is unlimited and cancel-free; [`RunBudget::poll`]
/// on it never stops anything.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    max_newton: Option<u64>,
    cancel: Option<CancelToken>,
}

impl RunBudget {
    /// A budget with no limits and no cancel token.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Builder: stop after `d` of wall-clock time from now.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Builder: stop at the absolute instant `at`.
    #[must_use]
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Builder: cap solver step *attempts* (accepted + rejected).
    #[must_use]
    pub fn with_max_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Builder: cap cumulative Newton iterations.
    #[must_use]
    pub fn with_max_newton(mut self, n: u64) -> Self {
        self.max_newton = Some(n);
        self
    }

    /// Builder: attach a shared cancel token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// True when no limit and no cancel token is set — polling can be
    /// skipped entirely.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_steps.is_none()
            && self.max_newton.is_none()
            && self.cancel.is_none()
    }

    /// The attached cancel token, if any.
    #[must_use]
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Has the cancel token been triggered? (False without a token.)
    #[inline]
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Has the wall-clock deadline passed? Reads the clock (use
    /// [`RunBudget::poll`] on hot paths, which strides the read).
    #[must_use]
    pub fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Hot-loop check. `tick` must be monotone per call site (the
    /// solver passes accepted + rejected step attempts); `newton` is
    /// the cumulative Newton-iteration count. Returns the first
    /// exceeded limit, or `None` to keep going. Cancel and the
    /// step/Newton caps are checked every call (a relaxed load and two
    /// compares); the wall clock only every [`DEADLINE_STRIDE`] ticks.
    #[inline]
    pub fn poll(&self, tick: u64, newton: u64) -> Option<BudgetStop> {
        if self.is_cancelled() {
            return Some(self.note(BudgetStop::Cancelled));
        }
        if self.max_steps.is_some_and(|m| tick >= m) {
            return Some(self.note(BudgetStop::StepBudgetExceeded));
        }
        if self.max_newton.is_some_and(|m| newton >= m) {
            return Some(self.note(BudgetStop::NewtonBudgetExceeded));
        }
        if self.deadline.is_some() && tick.is_multiple_of(DEADLINE_STRIDE) && self.deadline_passed()
        {
            return Some(self.note(BudgetStop::DeadlineExceeded));
        }
        None
    }

    /// Non-strided variant for cold call sites (task dispatch, sweep
    /// chunk boundaries): checks cancel and deadline immediately.
    #[must_use]
    pub fn check_now(&self) -> Option<BudgetStop> {
        if self.is_cancelled() {
            return Some(self.note(BudgetStop::Cancelled));
        }
        if self.deadline_passed() {
            return Some(self.note(BudgetStop::DeadlineExceeded));
        }
        None
    }

    #[cold]
    fn note(&self, stop: BudgetStop) -> BudgetStop {
        stop.count();
        stop
    }
}

// ---------------------------------------------------- ambient budgets

/// 0 = no scope was ever entered anywhere in the process (fast path:
/// every ambient query returns "nothing" after one relaxed load);
/// 1 = scopes have been used, consult the thread-local.
static GUARD_USED: AtomicU8 = AtomicU8::new(0);

thread_local! {
    static AMBIENT: RefCell<Vec<RunBudget>> = const { RefCell::new(Vec::new()) };
}

/// Has any guard scope ever been entered in this process? One relaxed
/// load; `false` means [`active`] is a no-op.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    GUARD_USED.load(Ordering::Relaxed) != 0
}

/// The innermost ambient [`RunBudget`] installed by [`scope`] on this
/// thread (cloned), or `None`. Costs one relaxed load when no scope
/// was ever used.
#[inline]
#[must_use]
pub fn active() -> Option<RunBudget> {
    if !enabled() {
        return None;
    }
    AMBIENT.with(|a| a.borrow().last().cloned())
}

struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        AMBIENT.with(|a| {
            a.borrow_mut().pop();
        });
    }
}

/// Run `f` with `budget` installed as the ambient budget on this
/// thread. Nested scopes shadow outer ones; the previous budget is
/// restored on exit (including on panic).
pub fn scope<R>(budget: &RunBudget, f: impl FnOnce() -> R) -> R {
    GUARD_USED.store(1, Ordering::Relaxed);
    AMBIENT.with(|a| a.borrow_mut().push(budget.clone()));
    let _g = ScopeGuard;
    f()
}

/// [`scope`] when the budget is optional: `None` runs `f` directly.
/// Used by the pool to re-install a captured caller budget inside
/// worker threads.
pub fn scope_opt<R>(budget: Option<&RunBudget>, f: impl FnOnce() -> R) -> R {
    match budget {
        Some(b) => scope(b, f),
        None => f(),
    }
}

// ------------------------------------------------------ retry/backoff

/// Default serial retries for a sweep point that panicked or timed
/// out before it degrades to its fallback.
pub const DEFAULT_RETRIES: u32 = 2;

/// Base delay of the exponential backoff ladder.
const BACKOFF_BASE: Duration = Duration::from_millis(5);
/// Backoff cap — retries are for transient contention, not long waits.
const BACKOFF_CAP: Duration = Duration::from_millis(80);

/// Exponential backoff delay before retry `attempt` (1-based):
/// `5ms · 2^(attempt-1)`, capped at 80ms.
#[must_use]
pub fn backoff(attempt: u32) -> Duration {
    let factor = 1u32 << attempt.saturating_sub(1).min(10);
    BACKOFF_BASE.saturating_mul(factor).min(BACKOFF_CAP)
}

/// Sleep the backoff delay for retry `attempt` and count it.
pub fn sleep_backoff(attempt: u32) {
    sfq_obs::inc("guard.retry");
    std::thread::sleep(backoff(attempt));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
        assert_eq!(t, u);
        assert_ne!(t, CancelToken::new());
    }

    #[test]
    fn unlimited_budget_never_stops() {
        let b = RunBudget::unlimited();
        assert!(b.is_unlimited());
        for tick in 0..1000 {
            assert_eq!(b.poll(tick, tick * 7), None);
        }
        assert_eq!(b.check_now(), None);
    }

    #[test]
    fn step_and_newton_budgets_trip() {
        let b = RunBudget::unlimited().with_max_steps(10);
        assert_eq!(b.poll(9, 0), None);
        assert_eq!(b.poll(10, 0), Some(BudgetStop::StepBudgetExceeded));
        let b = RunBudget::unlimited().with_max_newton(5);
        assert_eq!(b.poll(3, 4), None);
        assert_eq!(b.poll(3, 5), Some(BudgetStop::NewtonBudgetExceeded));
    }

    #[test]
    fn expired_deadline_trips_on_stride_tick() {
        let b = RunBudget::unlimited().with_deadline(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        // Tick 0 is on the stride, so the very first poll sees it.
        assert_eq!(b.poll(0, 0), Some(BudgetStop::DeadlineExceeded));
        // Off-stride ticks skip the clock read.
        assert_eq!(b.poll(1, 0), None);
        assert_eq!(
            b.poll(DEADLINE_STRIDE, 0),
            Some(BudgetStop::DeadlineExceeded)
        );
        assert_eq!(b.check_now(), Some(BudgetStop::DeadlineExceeded));
    }

    #[test]
    fn cancel_beats_other_limits() {
        let tok = CancelToken::new();
        let b = RunBudget::unlimited()
            .with_max_steps(0)
            .with_cancel(tok.clone());
        assert_eq!(b.poll(5, 0), Some(BudgetStop::StepBudgetExceeded));
        tok.cancel();
        assert_eq!(b.poll(5, 0), Some(BudgetStop::Cancelled));
        assert_eq!(b.check_now(), Some(BudgetStop::Cancelled));
    }

    #[test]
    fn scope_installs_and_restores_ambient_budget() {
        let outer = RunBudget::unlimited().with_max_steps(7);
        let seen = scope(&outer, || {
            let inner = RunBudget::unlimited().with_max_steps(3);
            let nested = scope(&inner, || active().and_then(|b| b.max_steps));
            (active().and_then(|b| b.max_steps), nested)
        });
        assert_eq!(seen, (Some(7), Some(3)));
        assert_eq!(active().and_then(|b| b.max_steps), None);
    }

    #[test]
    fn scope_restores_on_panic() {
        let b = RunBudget::unlimited().with_max_steps(1);
        let r = std::panic::catch_unwind(|| scope(&b, || panic!("boom")));
        assert!(r.is_err());
        assert!(active().is_none());
    }

    #[test]
    fn backoff_ladder_is_exponential_and_capped() {
        assert_eq!(backoff(1), Duration::from_millis(5));
        assert_eq!(backoff(2), Duration::from_millis(10));
        assert_eq!(backoff(3), Duration::from_millis(20));
        assert_eq!(backoff(30), Duration::from_millis(80));
    }

    #[test]
    fn budget_stop_labels_and_display() {
        for s in [
            BudgetStop::Cancelled,
            BudgetStop::DeadlineExceeded,
            BudgetStop::StepBudgetExceeded,
            BudgetStop::NewtonBudgetExceeded,
        ] {
            assert!(!s.label().is_empty());
            assert!(!s.to_string().is_empty());
        }
    }
}
