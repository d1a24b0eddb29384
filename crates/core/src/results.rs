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
use std::sync::Arc;

use sfq_obs::Memo;

/// The result memo: each function's name and its value. Never locked
/// while a result is computed: the sweeps fan out over the worker
/// pool, so two first calls may both compute, and the first to finish
/// stores its (identical) value.
static RESULTS: Memo<&'static str, Arc<dyn Any + Send + Sync>> =
    Memo::new("supernpu.results", None);

/// Drop every memoized result and reset the
/// `supernpu.results.cache_hit` / `.cache_miss` counters, so the next
/// call of each result function computes it again. Benchmarks call
/// this before each timed run, and tests before each computation whose
/// work (profile frames, metrics, thread count) they check.
pub fn clear_result_cache() {
    RESULTS.clear();
}

/// The memoized result `name`, or `compute`'s. `compute` returns the
/// result and whether it is complete; an incomplete result (a sweep
/// that lost a point to a panic or to chaos injection) is returned but
/// not stored, so the next call computes it again. Each name belongs
/// to one function, so a stored value always has that function's type.
pub(crate) fn memoized<T: Clone + Send + Sync + 'static>(
    name: &'static str,
    compute: impl FnOnce() -> (T, bool),
) -> T {
    if let Some(value) = RESULTS
        .get(&name)
        .and_then(|v| v.downcast_ref::<T>().cloned())
    {
        return value;
    }
    let (value, complete) = compute();
    if complete {
        RESULTS.insert(name, Arc::new(value.clone()));
    }
    value
}
