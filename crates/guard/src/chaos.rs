//! Seeded chaos injection for the sweep driver.
//!
//! When enabled (`SUPERNPU_CHAOS=<seed>` or [`set_chaos`]), every
//! guarded attempt of `sfq_par::resilient::run_resilient` (the driver
//! behind the explore sweeps and the Monte-Carlo yield runs) consults
//! [`decide`] with the point's sweep index and the attempt number,
//! and deterministically injects one of three faults: a panic, a
//! short stall, or a forced timeout. The decision is a pure hash of
//! `(seed, task, attempt)`, so a chaos run is reproducible whatever
//! the checkpoint chunking, and a retry of the same point sees an
//! *independent* draw — exactly like a real transient fault.
//!
//! Plain `par_map` and a sweep's fallback are untouched: their
//! contract is that tasks do not fail, and injecting faults there
//! would crash the caller or change a result rather than exercise
//! recovery.
//!
//! Disabled cost: one relaxed atomic load per query, the same
//! fast-path discipline as `sfq-obs`.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// What the chaos harness injects into a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Panic inside the task (exercises panic containment).
    Panic,
    /// Sleep briefly before running the task (exercises deadlines
    /// and drain behaviour without failing the task).
    Stall(Duration),
    /// Report the task as timed out without running it (exercises
    /// the retry/degrade ladder).
    Timeout,
}

/// 0 = unread (resolve from env on first use), 1 = off, 2 = on.
static CHAOS_STATE: AtomicU8 = AtomicU8::new(0);
static CHAOS_SEED: AtomicU64 = AtomicU64::new(0);

/// Is chaos injection on? One relaxed load once resolved.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    match CHAOS_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_chaos_state(),
    }
}

#[cold]
fn init_chaos_state() -> bool {
    let seed = std::env::var("SUPERNPU_CHAOS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&s| s != 0);
    match seed {
        Some(s) => {
            CHAOS_SEED.store(s, Ordering::Relaxed);
            CHAOS_STATE.store(2, Ordering::Relaxed);
            true
        }
        None => {
            CHAOS_STATE.store(1, Ordering::Relaxed);
            false
        }
    }
}

/// Programmatically enable (`Some(seed)`, seed != 0) or disable
/// (`None`) chaos injection, overriding the environment.
pub fn set_chaos(seed: Option<u64>) {
    match seed.filter(|&s| s != 0) {
        Some(s) => {
            CHAOS_SEED.store(s, Ordering::Relaxed);
            CHAOS_STATE.store(2, Ordering::Relaxed);
        }
        None => CHAOS_STATE.store(1, Ordering::Relaxed),
    }
}

/// The active chaos seed (0 when disabled).
#[must_use]
pub fn seed() -> u64 {
    if enabled() {
        CHAOS_SEED.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// SplitMix64 finalizer — the same mixer the faults crate uses for
/// its substreams, good enough to decorrelate (task, attempt) pairs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Out of every 16 draws: one panic, one forced timeout, one stall.
const INJECT_MOD: u64 = 16;
const STALL_MS: u64 = 2;

/// Deterministic injection decision for `(task, attempt)` under the
/// active seed. `None` (the common case, and always when disabled)
/// means "run the task normally". Each injection is counted under
/// `guard.chaos.*`.
#[must_use]
pub fn decide(task: u64, attempt: u32) -> Option<ChaosAction> {
    if !enabled() {
        return None;
    }
    decide_seeded(CHAOS_SEED.load(Ordering::Relaxed), task, attempt).inspect(|a| match a {
        ChaosAction::Panic => sfq_obs::inc("guard.chaos.panic"),
        ChaosAction::Stall(_) => sfq_obs::inc("guard.chaos.stall"),
        ChaosAction::Timeout => sfq_obs::inc("guard.chaos.timeout"),
    })
}

/// The pure decision function (no gating, no counters) — exposed so
/// tests and the bench can predict a chaos run.
#[must_use]
pub fn decide_seeded(seed: u64, task: u64, attempt: u32) -> Option<ChaosAction> {
    let h = mix(seed ^ mix(task) ^ (u64::from(attempt) << 48));
    match h % INJECT_MOD {
        0 => Some(ChaosAction::Panic),
        1 => Some(ChaosAction::Timeout),
        2 => Some(ChaosAction::Stall(Duration::from_millis(STALL_MS))),
        _ => None,
    }
}

/// Panic with a recognisable message — the injection point calls this
/// so chaos panics are distinguishable from real ones in reports.
pub fn injected_panic(task: u64) -> ! {
    panic!("chaos: injected panic in task {task}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_deterministic_and_attempt_independent() {
        for task in 0..64u64 {
            assert_eq!(decide_seeded(42, task, 0), decide_seeded(42, task, 0));
        }
        // Different attempts are independent draws: over many tasks,
        // at least one decision must differ between attempt 0 and 1.
        let differs = (0..256u64).any(|t| decide_seeded(42, t, 0) != decide_seeded(42, t, 1));
        assert!(differs);
    }

    #[test]
    fn injection_rate_is_roughly_three_sixteenths() {
        let n = 4096u64;
        let injected = (0..n).filter(|&t| decide_seeded(7, t, 0).is_some()).count();
        let expect = (n as usize) * 3 / 16;
        assert!(
            injected > expect / 2 && injected < expect * 2,
            "rate off: {injected} vs ~{expect}"
        );
    }

    #[test]
    fn set_chaos_overrides_env() {
        set_chaos(Some(99));
        assert!(enabled());
        assert_eq!(seed(), 99);
        assert!((0..1024u64).any(|t| decide(t, 0).is_some()));
        set_chaos(None);
        assert!(!enabled());
        assert_eq!(decide(0, 0), None);
        assert_eq!(seed(), 0);
    }
}
