//! Live progress telemetry for long sweeps.
//!
//! A process-wide progress phase (points done/total, ETA from a
//! monotonic rate estimate) driven by the `sfq_par` map loops and the
//! resilient sweep runner. When `SUPERNPU_PROGRESS=1` the phase
//! renders as a throttled single-line stderr ticker, so a
//! `--points 100000` sweep or a chaos run is no longer silent; phase
//! boundaries and ticker updates are also recorded as instant events
//! in the trace sink (under its own `SUPERNPU_TRACE` gate), so the
//! timeline shows where a sweep stood at any moment.
//!
//! Disabled cost: [`tick`] is a single relaxed atomic load when the
//! ticker is off, matching the metrics/trace/profile gates, so
//! instrumented inner loops pay nothing in a plain run.
//!
//! Only one phase is live at a time. [`Phase::enter`] claims the
//! phase slot *if free* — the resilient runner claims it with the
//! sweep's name before dispatching, and the generic `par_map` region
//! underneath then leaves it alone and just ticks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::switch;

/// Minimum milliseconds between ticker renders.
const RENDER_EVERY_MS: u64 = 100;

// ------------------------------------------------------------- enable gate

/// Whether the progress ticker is on (`SUPERNPU_PROGRESS` truthy, or
/// [`set_enabled`]).
#[inline]
pub fn enabled() -> bool {
    switch::on(switch::PROGRESS)
}

/// Programmatically force the ticker on or off (overrides the env
/// var). Tests use this.
pub fn set_enabled(on: bool) {
    switch::set(switch::PROGRESS, on);
}

// --------------------------------------------------------------- the phase

/// Total points in the live phase; 0 = no phase live (the fast-path
/// check ticks make after the gate).
static TOTAL: AtomicU64 = AtomicU64::new(0);
/// Points completed in the live phase.
static DONE: AtomicU64 = AtomicU64::new(0);
/// Milliseconds-since-epoch of the last render (throttle).
static LAST_RENDER_MS: AtomicU64 = AtomicU64::new(0);

struct PhaseMeta {
    label: String,
    started_ms: u64,
}

static META: Mutex<Option<PhaseMeta>> = Mutex::new(None);

fn now_ms() -> u64 {
    crate::trace::epoch().elapsed().as_millis() as u64
}

fn lock_meta() -> std::sync::MutexGuard<'static, Option<PhaseMeta>> {
    META.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Begin (or replace) the live phase: `total` points under `label`.
/// Resets the done count. Emits a trace instant regardless of the
/// ticker gate so phase boundaries land on the timeline.
pub fn phase(label: &str, total: u64) {
    crate::trace::instant("progress", &format!("phase {label} ({total} points)"));
    if !enabled() {
        return;
    }
    *lock_meta() = Some(PhaseMeta {
        label: label.to_owned(),
        started_ms: now_ms(),
    });
    DONE.store(0, Ordering::Relaxed);
    LAST_RENDER_MS.store(0, Ordering::Relaxed);
    TOTAL.store(total, Ordering::Relaxed);
    render(0, total, true);
}

/// Report `n` more points done in the live phase. One relaxed load
/// when the ticker is off; one more when no phase is live.
#[inline]
pub fn tick(n: u64) {
    if !enabled() {
        return;
    }
    let total = TOTAL.load(Ordering::Relaxed);
    if n == 0 || total == 0 {
        return;
    }
    let done = DONE.fetch_add(n, Ordering::Relaxed) + n;
    render(done, total, false);
}

/// Close the live phase: final render, newline, slot freed.
pub fn finish() {
    if !enabled() {
        return;
    }
    let total = TOTAL.swap(0, Ordering::Relaxed);
    if total == 0 {
        return;
    }
    let done = DONE.swap(0, Ordering::Relaxed);
    render_line(done, total, true);
    eprintln!();
    let mut meta = lock_meta();
    if let Some(m) = meta.as_ref() {
        crate::trace::instant("progress", &format!("finish {} ({done}/{total})", m.label));
    }
    *meta = None;
}

/// Current `(label, done, total)` of the live phase, for tests.
#[must_use]
pub fn snapshot() -> Option<(String, u64, u64)> {
    let total = TOTAL.load(Ordering::Relaxed);
    if total == 0 {
        return None;
    }
    let label = lock_meta().as_ref().map(|m| m.label.clone())?;
    Some((label, DONE.load(Ordering::Relaxed), total))
}

fn render(done: u64, total: u64, force: bool) {
    let now = now_ms();
    let last = LAST_RENDER_MS.load(Ordering::Relaxed);
    if !force && now.saturating_sub(last) < RENDER_EVERY_MS {
        return;
    }
    // One renderer per throttle window; losers skip.
    if LAST_RENDER_MS
        .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
    {
        return;
    }
    render_line(done, total, false);
}

fn render_line(done: u64, total: u64, closing: bool) {
    use std::io::Write;
    let meta = lock_meta();
    let Some(m) = meta.as_ref() else { return };
    let elapsed_s = (now_ms().saturating_sub(m.started_ms)) as f64 / 1e3;
    let pct = if total == 0 {
        100.0
    } else {
        100.0 * done as f64 / total as f64
    };
    // Monotonic rate estimate: overall points/sec so far; ETA is the
    // remaining points at that rate.
    let eta = if done == 0 || elapsed_s <= 0.0 {
        "--".to_owned()
    } else {
        let rate = done as f64 / elapsed_s;
        format!("{:.1}s", (total.saturating_sub(done)) as f64 / rate)
    };
    let line = format!(
        "[{}] {done}/{total} ({pct:.0}%) elapsed {elapsed_s:.1}s ETA {eta}",
        m.label
    );
    let mut err = std::io::stderr().lock();
    // Pad to clear a longer previous line.
    let _ = write!(err, "\r{line:<78}");
    let _ = err.flush();
    if !closing {
        crate::trace::instant("progress", &line);
    }
}

// ------------------------------------------------------------- phase RAII

/// RAII claim on the phase slot: [`Phase::enter`] starts a phase only
/// when none is live, and its `Drop` closes the phase only if it was
/// the one that opened it. Lets `par_map` self-announce big regions
/// while deferring to an enclosing named sweep.
#[derive(Debug)]
pub struct Phase {
    claimed: bool,
}

impl Phase {
    /// Claim the phase slot for `total` points under `label` if it is
    /// free (and the ticker is on); otherwise return an inert claim.
    #[must_use]
    pub fn enter(label: &str, total: u64) -> Phase {
        if !enabled() || TOTAL.load(Ordering::Relaxed) != 0 {
            return Phase { claimed: false };
        }
        phase(label, total);
        Phase { claimed: true }
    }

    /// Whether this claim owns the live phase. Only the owner should
    /// [`tick`]: nested parallel regions inside one logical point must
    /// not inflate the done count past the total.
    #[must_use]
    pub fn is_claimed(&self) -> bool {
        self.claimed
    }
}

impl Drop for Phase {
    fn drop(&mut self) {
        if self.claimed {
            finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One body: the phase slot is process-global.
    #[test]
    fn phase_lifecycle_and_region_claiming() {
        set_enabled(true);
        phase("outer", 10);
        assert_eq!(snapshot(), Some(("outer".into(), 0, 10)));
        tick(3);
        assert_eq!(snapshot(), Some(("outer".into(), 3, 10)));
        {
            // Slot busy: an inner claim must not steal it.
            let _inner = Phase::enter("inner", 99);
            tick(2);
            assert_eq!(snapshot(), Some(("outer".into(), 5, 10)));
        }
        // An inert claim's drop must not close the outer phase.
        assert_eq!(snapshot(), Some(("outer".into(), 5, 10)));
        finish();
        assert_eq!(snapshot(), None);

        // A free slot is claimed and released by the claim.
        {
            let _r = Phase::enter("solo", 4);
            assert_eq!(snapshot(), Some(("solo".into(), 0, 4)));
        }
        assert_eq!(snapshot(), None);

        // Disabled: everything is inert.
        set_enabled(false);
        phase("off", 5);
        tick(1);
        assert_eq!(snapshot(), None);
    }
}
