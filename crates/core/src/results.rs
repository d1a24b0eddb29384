//! Process-wide memo of the paper's result functions.
//!
//! `run_all` renders every artifact in one process, and `export_csv`
//! and `full_report` re-render results that earlier artifacts already
//! computed. The result functions routed through [`memoized`] take no
//! arguments and read only constants, the CNN zoo and the AIST cell
//! library, and their output is bit-identical at any thread count, so
//! the function's name is the whole key: each such result is computed
//! once per process and every later call returns a clone of it.

use std::any::Any;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// One memoized result: the function's name and its value.
type Entry = (&'static str, Box<dyn Any + Send>);

/// The result memo. Never locked while a result is computed: the
/// sweeps fan out over the worker pool, so two first calls may both
/// compute, and the first to finish stores its (identical) value.
static RESULTS: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

/// Lock the memo, recovering from poisoning: every update is one push
/// or one clear, so the entries stay consistent.
fn results() -> MutexGuard<'static, Vec<Entry>> {
    RESULTS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Always-on `supernpu.results.cache_hit` / `.cache_miss` counters:
/// they record whether or not `SUPERNPU_METRICS` is set.
fn cache_counters() -> (&'static sfq_obs::Counter, &'static sfq_obs::Counter) {
    static C: OnceLock<(&'static sfq_obs::Counter, &'static sfq_obs::Counter)> = OnceLock::new();
    *C.get_or_init(|| {
        (
            sfq_obs::counter("supernpu.results.cache_hit"),
            sfq_obs::counter("supernpu.results.cache_miss"),
        )
    })
}

/// Drop every memoized result and reset the
/// `supernpu.results.cache_hit` / `.cache_miss` counters, so the next
/// call of each result function computes it again. Benchmarks call
/// this before each timed run, and tests before each computation whose
/// work (profile frames, metrics, thread count) they check.
pub fn clear_result_cache() {
    results().clear();
    let (hits, misses) = cache_counters();
    hits.reset();
    misses.reset();
}

/// The memoized result `name`, or `compute`'s. `compute` returns the
/// result and whether it is complete; an incomplete result (a sweep
/// that lost a point to a panic or to chaos injection) is returned but
/// not stored, so the next call computes it again.
pub(crate) fn memoized<T: Clone + Send + 'static>(
    name: &'static str,
    compute: impl FnOnce() -> (T, bool),
) -> T {
    let (hits, misses) = cache_counters();
    let stored = results()
        .iter()
        .find(|(key, _)| *key == name)
        .and_then(|(_, value)| value.downcast_ref::<T>())
        .cloned();
    if let Some(value) = stored {
        hits.inc();
        return value;
    }
    misses.inc();
    let (value, complete) = compute();
    if complete {
        let mut memo = results();
        if !memo.iter().any(|(key, _)| *key == name) {
            memo.push((name, Box::new(value.clone())));
        }
    }
    value
}
