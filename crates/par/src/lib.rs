//! Deterministic scoped parallel map for the SuperNPU workspace.
//!
//! [`par_map`] fans a pure function over a slice using scoped worker
//! threads, then reassembles results **by index**, so the output is
//! bit-identical to the serial `items.iter().map(f)` — the schedule
//! affects only which thread computes each item, never the arithmetic
//! or the order of the returned `Vec`.
//!
//! # Granularity-aware chunking
//!
//! Dispatch is *chunked*: the first item runs inline on the caller as
//! a cost probe, and the measured per-task cost sizes the scheduling
//! quantum. Cheap tasks are auto-merged into chunks large enough to
//! amortize dispatch (target [`TARGET_CHUNK_US`] per chunk), expensive
//! tasks keep item granularity for load balance, and a sweep whose
//! projected total work is below the fan-out break-even threshold
//! never spawns a thread at all — it completes inline, so tiny
//! paper-figure sweeps cannot run slower than serial. The chunk size
//! can be pinned with [`set_chunk`] or the `SUPERNPU_CHUNK`
//! environment variable (which also disables the break-even fallback,
//! for tests that need the parallel path unconditionally).
//!
//! # Resilient sweeps
//!
//! [`resilient::run_resilient`] is the one sweep driver built on
//! [`par_map`], for points that may fail: each point runs as one
//! guarded attempt (budget gate, seeded chaos draw, its own
//! `catch_unwind`), a point that does not complete is retried and then
//! handed to a fallback, every point ends in a labeled terminal state,
//! and the completed prefix is checkpointed atomically. The Fig. 20–22
//! sweeps and the Monte-Carlo yield runs go through it.
//!
//! A global permit pool caps the total number of live workers across
//! nested calls: an outer sweep grabs the available permits and inner
//! `par_map` calls (e.g. per-workload evaluation inside a sweep point)
//! find the pool empty and degrade to inline serial execution instead
//! of oversubscribing the machine.
//!
//! Thread count resolution order: [`set_threads`] override, then the
//! `SUPERNPU_THREADS` environment variable, then
//! `std::thread::available_parallelism()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod resilient;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Programmatic thread-count override; 0 means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Programmatic chunk-size override; 0 means "unset" (fall back to
/// `SUPERNPU_CHUNK`, then automatic sizing).
static CHUNK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Target wall-clock per scheduling quantum, microseconds. Tasks
/// cheaper than this are merged until a chunk costs roughly this much;
/// dispatch overhead (an atomic increment plus a pair of `Vec` pushes)
/// is then noise against the work itself.
const TARGET_CHUNK_US: f64 = 200.0;

/// Minimum projected *remaining* work, microseconds, below which a
/// region runs inline instead of fanning out. Scales with the worker
/// count via [`spawn_break_even_us`]: each scoped thread costs tens of
/// microseconds to spawn and join, so a sweep has to bring at least
/// that much work to win.
const BREAK_EVEN_US: f64 = 200.0;

/// Estimated cost of spawning + joining one scoped worker thread,
/// microseconds.
const SPAWN_COST_US: f64 = 60.0;

/// Upper bound on chunks a worker is pre-assigned relative to its fair
/// share: chunk sizing aims for at least this many chunks per worker
/// so stealing can rebalance a skewed cost distribution.
const CHUNKS_PER_WORKER: usize = 4;

fn spawn_break_even_us(workers: usize) -> f64 {
    BREAK_EVEN_US.max(SPAWN_COST_US * workers as f64)
}

/// Trace-track id of pool worker 0 (the calling thread); worker `w`
/// records on track `WORKER_TRACK_BASE + w` of
/// [`sfq_obs::trace::HOST_PID`]. Workers are scoped threads that die
/// with their region, so routing their events to these stable tracks
/// (via [`sfq_obs::trace::with_track`]) keeps one timeline per worker
/// slot across regions instead of one orphan track per spawned
/// thread.
const WORKER_TRACK_BASE: u64 = 1000;

/// Worker permits still available for new parallel regions.
/// `usize::MAX` marks "not yet initialized from [`threads`]".
static PERMITS: Mutex<usize> = Mutex::new(usize::MAX);

/// Override the worker-thread count for subsequent [`par_map`] calls.
///
/// `n` counts total threads doing work (including the calling thread);
/// `set_threads(1)` forces fully serial execution. Takes precedence
/// over `SUPERNPU_THREADS`. Call this only while no `par_map` region
/// is active — it resets the shared worker-permit pool.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.max(1), Ordering::SeqCst);
    *PERMITS.lock().unwrap_or_else(|e| e.into_inner()) = n.max(1) - 1;
}

/// Clear a [`set_threads`] override, returning to the default
/// resolution order (`SUPERNPU_THREADS`, then
/// `std::thread::available_parallelism()`), and reset the worker
/// permit pool so the next [`par_map`] region re-derives it. Like
/// [`set_threads`], call only while no `par_map` region is active.
pub fn clear_threads() {
    THREAD_OVERRIDE.store(0, Ordering::SeqCst);
    *PERMITS.lock().unwrap_or_else(|e| e.into_inner()) = usize::MAX;
}

/// The resolved total thread count [`par_map`] will aim for.
pub fn threads() -> usize {
    let ov = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if ov != 0 {
        return ov;
    }
    if let Ok(s) = std::env::var("SUPERNPU_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Pin the scheduling chunk size for subsequent [`par_map`] calls.
///
/// `n >= 1` forces every scheduling quantum to `n` items and disables
/// both the cost probe's automatic sizing and the break-even serial
/// fallback (the region always takes the parallel path when workers
/// are available). `n == 0` clears the override, returning to
/// `SUPERNPU_CHUNK` and then automatic sizing. Results are bit-exact
/// for every chunk size by construction; this knob only moves the
/// overhead/balance trade-off.
pub fn set_chunk(n: usize) {
    CHUNK_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The pinned chunk size, if any: [`set_chunk`] first, then
/// `SUPERNPU_CHUNK`. `None` means automatic cost-probe sizing.
pub fn chunk_hint() -> Option<usize> {
    let ov = CHUNK_OVERRIDE.load(Ordering::SeqCst);
    if ov != 0 {
        return Some(ov);
    }
    if let Ok(s) = std::env::var("SUPERNPU_CHUNK") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return Some(n);
            }
        }
    }
    None
}

/// Take up to `want` worker permits from the global pool.
fn acquire_permits(want: usize) -> usize {
    let mut pool = PERMITS.lock().unwrap_or_else(|e| e.into_inner());
    if *pool == usize::MAX {
        *pool = threads() - 1;
    }
    let take = (*pool).min(want);
    *pool -= take;
    take
}

/// Returns permits on drop so panics inside `par_map` don't leak them.
struct PermitGuard(usize);

impl Drop for PermitGuard {
    fn drop(&mut self) {
        if self.0 > 0 {
            let mut pool = PERMITS.lock().unwrap_or_else(|e| e.into_inner());
            *pool += self.0;
        }
    }
}

/// Execution plan of one parallel region: item indices in execution
/// order, cut into chunks, with each chunk pre-assigned to a worker
/// queue. Workers drain their own queue first, then steal whole
/// chunks from the other queues (load balance).
struct Plan {
    /// Item indices (into the caller's slice) in execution order.
    /// Index 0 never appears: it is the caller's cost probe.
    order: Vec<u32>,
    /// `(offset, len)` windows into `order`.
    chunks: Vec<(u32, u32)>,
    /// Per-worker lists of chunk ids.
    queues: Vec<Vec<u32>>,
}

/// Size one scheduling quantum from the probed per-task cost.
fn auto_chunk(probe_us: f64, remaining: usize, workers: usize) -> usize {
    let by_cost = if probe_us > 0.0 {
        (TARGET_CHUNK_US / probe_us).ceil() as usize
    } else {
        remaining
    };
    // Keep enough chunks in flight for stealing to rebalance.
    let balance_cap = (remaining / (workers * CHUNKS_PER_WORKER)).max(1);
    by_cost.clamp(1, balance_cap)
}

/// Build the execution plan for items `1..n`: contiguous chunks
/// dealt round-robin across the worker queues.
fn plan(n: usize, chunk: usize, workers: usize) -> Plan {
    let mut order: Vec<u32> = Vec::with_capacity(n - 1);
    let mut chunks: Vec<(u32, u32)> = Vec::new();
    let mut queues: Vec<Vec<u32>> = vec![Vec::new(); workers];
    order.extend(1..n as u32);
    let mut off = 0usize;
    let mut q = 0usize;
    while off < order.len() {
        let take = chunk.min(order.len() - off);
        queues[q % workers].push(chunks.len() as u32);
        chunks.push((off as u32, take as u32));
        off += take;
        q += 1;
    }
    Plan {
        order,
        chunks,
        queues,
    }
}

/// Map `f` over `items` in parallel, returning results in input order.
///
/// `f` must be pure with respect to the output (it may read shared
/// state); given that, the result is exactly `items.iter().map(f)` —
/// every float operation happens with the same operands in the same
/// per-item order regardless of thread count or chunk size. Falls
/// back to inline serial execution when the slice is short, only one
/// thread is configured, all worker permits are held by an enclosing
/// `par_map` (nested calls), or the cost probe decides the whole
/// region is below the fan-out break-even point.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any thread.
#[allow(clippy::too_many_lines)]
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.iter().map(&f).collect();
    }
    let guard = PermitGuard(acquire_permits(n - 1));
    if guard.0 == 0 {
        // Nested call or single-thread pool: degrade to inline serial.
        let _region = sfq_obs::region("par.serial_fallback");
        sfq_obs::inc("par.serial_fallback");
        // A 1-core sweep still narrates itself (a nested call finds
        // the slot taken and stays quiet — its ticks would inflate
        // the enclosing phase's done count).
        let progress = sfq_obs::progress::Phase::enter("par_map", n as u64);
        let progress_on = progress.is_claimed();
        return items
            .iter()
            .map(|it| {
                let r = f(it);
                if progress_on {
                    sfq_obs::progress::tick(1);
                }
                r
            })
            .collect();
    }
    // Metrics gate, sampled once per region so every worker of this
    // region agrees (a mid-region toggle cannot skew the counts).
    let metrics_on = sfq_obs::enabled();

    // Cost probe: item 0 runs inline on the caller, timed. The probe
    // both warms lazy statics and prices the remaining work.
    let probe_region = sfq_obs::region("par.probe");
    let probe_t0 = Instant::now();
    let r0 = f(&items[0]);
    let probe_us = probe_t0.elapsed().as_secs_f64() * 1e6;
    drop(probe_region);
    if metrics_on {
        sfq_obs::observe("par.task_ms", probe_us * 1e-3);
    }

    let pinned = chunk_hint();
    let remaining = n - 1;
    if pinned.is_none() && probe_us * remaining as f64 <= spawn_break_even_us(guard.0 + 1) {
        // Break-even fallback: the whole region is projected cheaper
        // than spawning workers — finish inline. This is what keeps
        // fig20-scale sweeps from losing to serial.
        let inline_region = sfq_obs::region("par.inline");
        let out = finish_inline(items, r0, &f, metrics_on);
        drop(inline_region);
        drop(guard);
        if metrics_on {
            sfq_obs::inc("par.breakeven_serial");
        }
        return out;
    }
    let chunk = pinned.unwrap_or_else(|| auto_chunk(probe_us, remaining, guard.0 + 1));

    // Progress: claim the phase slot if no enclosing sweep (e.g. the
    // resilient runner) already narrates this work. Only the claimer
    // ticks — nested regions inside one logical point must not
    // inflate the done count past the total.
    let progress = sfq_obs::progress::Phase::enter("par_map", n as u64);
    let progress_on = progress.is_claimed();
    if progress_on {
        // The probe item already ran inline.
        sfq_obs::progress::tick(1);
    }

    // Spawn no more workers than there are chunks to run (the caller
    // drains queues too); surplus permits are returned by the guard.
    let plan = plan(n, chunk, guard.0 + 1);
    let spawned = guard.0.min(plan.chunks.len().saturating_sub(1));
    let workers = spawned + 1;

    if metrics_on {
        sfq_obs::inc("par.regions");
        sfq_obs::gauge_set("par.threads", threads() as f64);
        sfq_obs::gauge_set("par.chunk_size", chunk as f64);
        sfq_obs::add("par.chunks", plan.chunks.len() as u64);
    }
    if sfq_obs::trace::enabled() {
        for w in 0..workers {
            sfq_obs::trace::name_track(
                sfq_obs::trace::HOST_PID,
                WORKER_TRACK_BASE + w as u64,
                &format!("pool worker {w}"),
            );
        }
    }

    // One cursor per queue; a worker drains its own queue, then steals
    // chunks from the other queues. `fetch_add` hands every chunk to
    // exactly one thread.
    let cursors: Vec<AtomicUsize> = (0..plan.queues.len())
        .map(|_| AtomicUsize::new(0))
        .collect();
    let plan = &plan;
    let cursors = &cursors;
    let run = |worker: usize, out: &mut Vec<(usize, R)>| {
        // Route this worker's default-track trace events (its own
        // region slices plus anything `f` records, e.g. solver runs)
        // to its stable pool-worker track for the life of the region.
        let _track =
            sfq_obs::trace::with_track(sfq_obs::trace::HOST_PID, WORKER_TRACK_BASE + worker as u64);
        // One region per worker slot: everything `f` records (solver
        // runs, cache fills) nests under it, giving the merged profile
        // exact per-worker sub-trees.
        let _worker = sfq_obs::region(&format!("par.worker.{worker}"));
        let mut own = 0u64;
        let mut stolen = 0u64;
        for delta in 0..plan.queues.len() {
            let victim = (worker + delta) % plan.queues.len();
            let stealing = victim != worker;
            loop {
                let c = cursors[victim].fetch_add(1, Ordering::Relaxed);
                let Some(&chunk_id) = plan.queues[victim].get(c) else {
                    break;
                };
                let (off, len) = plan.chunks[chunk_id as usize];
                // Chunk execution as a region (not a pre-aggregated
                // leaf) so the regions `f` itself opens nest inside it.
                let chunk_region =
                    sfq_obs::region(if stealing { "par.steal" } else { "par.chunk" });
                for &i in &plan.order[off as usize..(off + len) as usize] {
                    if metrics_on {
                        let t0 = Instant::now();
                        out.push((i as usize, f(&items[i as usize])));
                        sfq_obs::observe("par.task_ms", t0.elapsed().as_secs_f64() * 1e3);
                    } else {
                        out.push((i as usize, f(&items[i as usize])));
                    }
                }
                drop(chunk_region);
                if progress_on {
                    sfq_obs::progress::tick(u64::from(len));
                }
                if stealing {
                    stolen += u64::from(len);
                } else {
                    own += u64::from(len);
                }
            }
        }
        if own + stolen > 0 {
            sfq_obs::prof::count("tasks", own + stolen);
            sfq_obs::prof::count("tasks_stolen", stolen);
        }
        if metrics_on && own + stolen > 0 {
            sfq_obs::add("par.tasks", own + stolen);
            sfq_obs::counter(&format!("par.worker.{worker}.tasks")).add(own + stolen);
            if worker == 0 {
                // Caller-run tasks are not steals: the calling thread
                // participates in its own region by design.
                sfq_obs::add("par.tasks_inline", own + stolen);
            }
            if stolen > 0 {
                // Only cross-queue pulls count as steals.
                sfq_obs::add("par.steals", stolen);
            }
        }
    };

    let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    let run = &run;
    // Capture the caller's ambient execution budget (if any) and
    // re-install it inside every worker thread, so a deadline or
    // cancel token set around a sweep reaches the transients its
    // tasks spawn. One relaxed load when guards were never used.
    let ambient_budget = sfq_guard::active();
    let ambient_budget = &ambient_budget;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=spawned)
            .map(|worker| {
                scope.spawn(move || {
                    sfq_guard::scope_opt(ambient_budget.as_ref(), || {
                        let mut out = Vec::new();
                        run(worker, &mut out);
                        out
                    })
                })
            })
            .collect();
        let mut mine = Vec::with_capacity(plan.order.len() / workers + 2);
        mine.push((0, r0));
        run(0, &mut mine);
        parts.push(mine);
        for h in handles {
            match h.join() {
                Ok(part) => parts.push(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    drop(guard);
    drop(progress);
    if metrics_on {
        // The probe task ran on the caller before fan-out.
        sfq_obs::add("par.tasks", 1);
        sfq_obs::add("par.tasks_inline", 1);
    }

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("every item was scheduled exactly once")))
        .collect()
}

/// Serial completion of a region whose probe decided against fan-out.
fn finish_inline<T, R, F>(items: &[T], r0: R, f: &F, metrics_on: bool) -> Vec<R>
where
    F: Fn(&T) -> R,
{
    let mut out = Vec::with_capacity(items.len());
    out.push(r0);
    for item in &items[1..] {
        if metrics_on {
            let t0 = Instant::now();
            out.push(f(item));
            sfq_obs::observe("par.task_ms", t0.elapsed().as_secs_f64() * 1e3);
        } else {
            out.push(f(item));
        }
    }
    if metrics_on {
        sfq_obs::add("par.tasks", items.len() as u64);
        sfq_obs::add("par.tasks_inline", items.len() as u64);
    }
    out
}

/// Cut the index range `start..end` into contiguous groups aligned on
/// absolute multiples of `width` — the batch-aware chunking for
/// consumers that feed lane-batched solvers (`jjsim::BatchedTransient`
/// callers fan out over these groups, one batched group per task).
///
/// Alignment is on the *absolute* index, not the range offset:
/// `lane_groups(6, 14, 4)` yields `[6..8, 8..12, 12..14]`. Group
/// membership therefore depends only on an item's index, so a resumed
/// or differently-chunked run regroups (and batches) identically — the
/// same invariant the pool's index-keyed reassembly gives scalar maps.
///
/// `width == 0` is treated as 1 (every item its own group).
pub fn lane_groups(start: usize, end: usize, width: usize) -> Vec<std::ops::Range<usize>> {
    let width = width.max(1);
    let mut groups = Vec::new();
    let mut i = start;
    while i < end {
        let boundary = (i / width + 1) * width;
        let stop = boundary.min(end);
        groups.push(i..stop);
        i = stop;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_groups_align_on_absolute_indices() {
        // Alignment depends only on the absolute index, not the range
        // offset — the invariant that makes resumed runs regroup
        // (and therefore batch) identically.
        let whole = lane_groups(0, 14, 4);
        assert_eq!(whole, vec![0..4, 4..8, 8..12, 12..14]);
        let resumed = lane_groups(6, 14, 4);
        assert_eq!(resumed, vec![6..8, 8..12, 12..14]);
        // Every group of the resumed run is a suffix of (or equal to)
        // the corresponding group of the full run.
        for g in &resumed {
            assert!(
                whole.iter().any(|w| w.start <= g.start && w.end == g.end),
                "group {g:?} is not nested in the full-run grouping"
            );
        }
        assert_eq!(lane_groups(3, 3, 4), Vec::<std::ops::Range<usize>>::new());
        assert_eq!(lane_groups(0, 3, 0), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn matches_serial_exactly_and_handles_nesting() {
        // Single test so `set_threads` isn't raced by the parallel
        // test harness.

        // With no override and no SUPERNPU_THREADS, the pool defaults
        // to the machine's available parallelism — sweeps fan out by
        // default instead of silently running single-threaded.
        std::env::remove_var("SUPERNPU_THREADS");
        std::env::remove_var("SUPERNPU_CHUNK");
        clear_threads();
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(threads(), hw, "default must track the hardware");
        // Env var takes effect once the override is cleared.
        std::env::set_var("SUPERNPU_THREADS", "3");
        assert_eq!(threads(), 3);
        std::env::remove_var("SUPERNPU_THREADS");

        set_threads(4);
        assert_eq!(threads(), 4);

        let items: Vec<u64> = (0..257).collect();
        let f = |x: &u64| {
            // Float-heavy body: bit-identical results required.
            let mut acc = *x as f64;
            for k in 1..50 {
                acc = (acc * 1.000_1 + k as f64).sin() + acc;
            }
            acc
        };
        let serial: Vec<f64> = items.iter().map(f).collect();
        let parallel = par_map(&items, f);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.to_bits(), p.to_bits(), "bit-identical to serial");
        }

        // Pinned chunk sizes (including degenerate ones) never change
        // the result, only the schedule.
        for chunk in [1usize, 2, 3, 64, 1000] {
            set_chunk(chunk);
            let chunked = par_map(&items, f);
            for (s, p) in serial.iter().zip(&chunked) {
                assert_eq!(s.to_bits(), p.to_bits(), "chunk={chunk}");
            }
        }
        set_chunk(0);
        assert_eq!(chunk_hint(), None);
        std::env::set_var("SUPERNPU_CHUNK", "17");
        assert_eq!(chunk_hint(), Some(17));
        std::env::remove_var("SUPERNPU_CHUNK");

        // Nested calls degrade gracefully and stay correct.
        let outer: Vec<Vec<u64>> = par_map(&items[..16], |x| {
            let inner: Vec<u64> = (0..8).map(|k| x + k).collect();
            par_map(&inner, |y| y * 2)
        });
        for (i, row) in outer.iter().enumerate() {
            let expect: Vec<u64> = (0..8).map(|k| (items[i] + k) * 2).collect();
            assert_eq!(*row, expect);
        }

        // Serial override still produces the same values.
        set_threads(1);
        let forced_serial = par_map(&items, f);
        for (s, p) in serial.iter().zip(&forced_serial) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
        set_threads(4);

        // Empty and singleton inputs.
        let empty: Vec<f64> = par_map(&[] as &[u64], f);
        assert!(empty.is_empty());
        assert_eq!(par_map(&[7u64], |x| x + 1), vec![8]);

        // A panicking point fails only itself — even when the chunk
        // size forces multiple points into each quantum.
        set_threads(4);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output quiet
        let once = resilient::ResilientOpts {
            retries: 0,
            ..resilient::ResilientOpts::unguarded()
        };
        for chunk in [0usize, 1, 4, 32] {
            set_chunk(chunk);
            let eval = |i: usize| {
                assert!(i % 5 != 3, "injected failure at {i}");
                items[i] * 10
            };
            let report =
                resilient::run_resilient("chunk_t", 0, 32, &once, eval, None::<fn(usize) -> u64>)
                    .expect("no checkpoint, no error");
            assert_eq!(report.points.len(), 32);
            for p in report.points {
                let i = p.index;
                if i % 5 == 3 {
                    let resilient::PointState::Failed { message } = &p.state else {
                        panic!("chunk={chunk}: point {i} must fail, got {:?}", p.state);
                    };
                    assert!(message.contains("injected failure"), "{message}");
                    assert_eq!(p.value, None, "chunk={chunk}");
                } else {
                    assert_eq!(p.state, resilient::PointState::Completed, "chunk={chunk}");
                    assert_eq!(p.value, Some(items[i] * 10), "chunk={chunk}");
                }
            }
        }
        set_chunk(0);
        std::panic::set_hook(hook);

        // Leave the process in the default state for any later code.
        clear_threads();
    }
}
