//! The traced run's instruments, kept in memory until the last pass:
//! spans the benchmark opens around each call it makes into a layer's
//! public function, and deltas of the program's own counters taken at
//! pass boundaries. [`per_layer`] turns them into the per-layer
//! metrics.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::stats::median;
use crate::sys;

/// Layer tag of a span that only groups one paper artifact's layer
/// calls; its self time is the benchmark's glue, not a layer's work.
pub const GROUP: &str = "artifact";

/// One closed span. Times are nanoseconds since the process's trace
/// epoch; `parent` is 0 for a top-level span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub pass: u64,
    pub tid: u64,
    pub layer: String,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// CPU time charged to the span: the process clock for spans the
    /// benchmark opens outside a parallel task (they own every thread the
    /// call fans out to), the thread clock inside one.
    pub cpu_ns: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static PASS: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

fn epoch() -> Instant {
    static E: OnceLock<Instant> = OnceLock::new();
    *E.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Switch tracing (and the program's gated metrics) on or off for the
/// next pass, labelling its spans with `pass`.
pub fn begin_pass(on: bool, pass: u64) {
    epoch();
    PASS.store(pass, Ordering::Relaxed);
    ON.store(on, Ordering::Relaxed);
    sfq_obs::set_enabled(on);
}

/// Run `f` as a span of `layer`. With tracing off this is one relaxed
/// load.
pub fn span<R>(layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            STACK.with(|s| s.borrow_mut().pop());
        }
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let top = s.last().copied().unwrap_or(0);
        s.push(id);
        top
    });
    let pop = Pop;
    let in_task = IN_TASK.with(Cell::get);
    let cpu = || {
        if in_task {
            sys::thread_cpu_s()
        } else {
            sys::process_cpu_s()
        }
    };
    let cpu0 = cpu();
    let start_ns = now_ns();
    let out = f();
    let dur_ns = now_ns() - start_ns;
    let cpu_ns = ((cpu() - cpu0).max(0.0) * 1e9) as u64;
    drop(pop);
    let rec = SpanRec {
        id,
        parent,
        pass: PASS.load(Ordering::Relaxed),
        tid: TID.with(|t| *t),
        layer: layer.to_owned(),
        name: name.to_owned(),
        start_ns,
        dur_ns,
        cpu_ns,
    };
    SPANS.lock().expect("span list poisoned").push(rec);
    out
}

/// Run `f` as one parallel task: spans inside charge the thread clock.
pub fn task<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_TASK.with(|t| t.set(self.0));
        }
    }
    let _reset = Reset(IN_TASK.with(|t| t.replace(true)));
    f()
}

/// Remove and return every recorded span.
pub fn take_spans() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span list poisoned"))
}

/// The program counters read at pass boundaries. The estimator memo,
/// measure memo and transient-run counters always record; the rest
/// record only while `sfq_obs` metrics are on (traced passes).
pub const COUNTERS: &[&str] = &[
    "npusim.layer.mappings",
    "estimator.estimate.cache_hit",
    "estimator.estimate.cache_miss",
    "chars.measure.cache_hit",
    "chars.measure.cache_miss",
    "jjsim.solver.transient_runs",
    "jjsim.solver.steps",
    "jjsim.solver.steps_rejected",
    "jjsim.solver.newton_iters",
    "jjsim.solver.lu_factor",
    "jjsim.solver.lu_reuse",
    "jjsim.batch.steps",
    "jjsim.batch.steps_rejected",
    "jjsim.batch.newton_iters",
    "jjsim.batch.lu_factor",
    "jjsim.batch.lu_reuse",
    "jjsim.batch.groups",
    "jjsim.batch.lanes",
    "jjsim.batch.retired_newton",
    "jjsim.batch.retired_singular",
    "faults.mc.retries",
    "par.tasks",
    "par.steals",
    "par.serial_fallback",
];

/// Current values of [`COUNTERS`], in order.
pub fn read_counters() -> Vec<u64> {
    COUNTERS.iter().map(|n| sfq_obs::counter(n).get()).collect()
}

/// Element-wise `end − start` of two [`read_counters`] readings.
pub fn delta(start: &[u64], end: &[u64]) -> Vec<u64> {
    start.iter().zip(end).map(|(a, b)| b - a).collect()
}

/// One traced pass: host wall and process CPU time, the pool width,
/// and the [`COUNTERS`] deltas.
pub struct TracedPass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub workers: u64,
    pub counters: Vec<u64>,
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The `supernpu` modules and crates only the `paper` workload calls
/// directly, with their busy-time metric.
const ARTIFACT_LAYERS: &[(&str, &str)] = &[
    ("explore", "explore.busy_s"),
    ("evaluator", "evaluator.busy_s"),
    ("report", "report.busy_s"),
    ("ablations", "ablations.busy_s"),
    ("sensitivity", "sensitivity.busy_s"),
    ("pareto", "pareto.busy_s"),
    ("latency", "latency.busy_s"),
    ("dnn", "dnn.busy_s"),
    ("scalesim", "scalesim.busy_s"),
    ("export", "export.busy_s"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, per traced pass. Busy times are span self
/// times summed over threads; counts are per-pass means; ratios are
/// ratios of sums. `untraced_pass_s` (passes of the same run with
/// tracing off) gives the trace overhead.
pub fn per_layer(passes: &[TracedPass], spans: &[SpanRec], untraced_pass_s: &[f64]) -> Vec<Metric> {
    let n = passes.len().max(1) as f64;
    let count = |name: &str| -> f64 {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("counter is listed in COUNTERS");
        passes.iter().map(|p| p.counters[i] as f64).sum()
    };

    // Self time and self CPU: a span minus the spans directly inside it.
    let mut child: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let e = child.entry(s.parent).or_default();
        e.0 += s.dur_ns;
        e.1 += s.cpu_ns;
    }
    let mut busy_ns: HashMap<&str, f64> = HashMap::new();
    let mut layer_cpu_s = 0.0;
    for s in spans {
        let (cd, cc) = child.get(&s.id).copied().unwrap_or_default();
        *busy_ns.entry(s.layer.as_str()).or_default() += s.dur_ns.saturating_sub(cd) as f64;
        if s.layer != GROUP {
            layer_cpu_s += s.cpu_ns.saturating_sub(cc) as f64 * 1e-9;
        }
    }
    let busy_s = |layer: &str| busy_ns.get(layer).copied().unwrap_or(0.0) * 1e-9;

    let thread_s: f64 = passes.iter().map(|p| p.workers as f64 * p.wall_s).sum();
    let idle_s: f64 = passes
        .iter()
        .map(|p| (p.workers as f64 * p.wall_s - p.cpu_s).max(0.0))
        .sum();

    let steps = count("jjsim.solver.steps") + count("jjsim.batch.steps");
    let rejected = count("jjsim.solver.steps_rejected") + count("jjsim.batch.steps_rejected");
    let factors = count("jjsim.solver.lu_factor") + count("jjsim.batch.lu_factor");
    let reuses = count("jjsim.solver.lu_reuse") + count("jjsim.batch.lu_reuse");
    let transient_s = busy_s("jjsim") + busy_s("chars") + busy_s("faults");
    let mappings = count("npusim.layer.mappings");
    let est_hits = count("estimator.estimate.cache_hit");
    let est_misses = count("estimator.estimate.cache_miss");
    let chars_hits = count("chars.measure.cache_hit");
    let chars_misses = count("chars.measure.cache_miss");
    let traced_s: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();

    let mut out = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric { name, value, unit });
    };
    push("npusim.busy_s", busy_s("npusim") / n, "s");
    push("npusim.mappings", mappings / n, "count");
    push(
        "npusim.ns_per_mapping",
        ratio(busy_ns.get("npusim").copied().unwrap_or(0.0), mappings),
        "ns",
    );
    push("estimator.busy_s", busy_s("estimator") / n, "s");
    push(
        "estimator.hit_ratio",
        ratio(est_hits, est_hits + est_misses),
        "ratio",
    );
    push("jjsim.busy_s", busy_s("jjsim") / n, "s");
    push("chars.busy_s", busy_s("chars") / n, "s");
    push(
        "chars.hit_ratio",
        ratio(chars_hits, chars_hits + chars_misses),
        "ratio",
    );
    push("faults.busy_s", busy_s("faults") / n, "s");
    push("faults.retries", count("faults.mc.retries") / n, "count");
    push(
        "jjsim.transient_runs",
        count("jjsim.solver.transient_runs") / n,
        "count",
    );
    push("jjsim.steps", steps / n, "count");
    push(
        "jjsim.newton_iters",
        (count("jjsim.solver.newton_iters") + count("jjsim.batch.newton_iters")) / n,
        "count",
    );
    push(
        "jjsim.accept_ratio",
        ratio(steps, steps + rejected),
        "ratio",
    );
    push(
        "jjsim.lu_reuse_ratio",
        ratio(reuses, factors + reuses),
        "ratio",
    );
    push("jjsim.us_per_step", ratio(transient_s * 1e6, steps), "us");
    push(
        "jjsim.batch_occupancy",
        ratio(
            count("jjsim.batch.lanes"),
            count("jjsim.batch.groups") * jjsim::LANES as f64,
        ),
        "ratio",
    );
    push(
        "jjsim.batch_retired",
        (count("jjsim.batch.retired_newton") + count("jjsim.batch.retired_singular")) / n,
        "count",
    );
    for &(layer, name) in ARTIFACT_LAYERS {
        push(name, busy_s(layer) / n, "s");
    }
    push("par.tasks", count("par.tasks") / n, "count");
    push("par.steals", count("par.steals") / n, "count");
    push(
        "par.serial_fallback",
        count("par.serial_fallback") / n,
        "count",
    );
    push("par.idle_frac", ratio(idle_s, thread_s), "ratio");
    push(
        "obs.trace_overhead_frac",
        ratio(median(&traced_s), median(untraced_pass_s)) - 1.0,
        "ratio",
    );
    push(
        "obs.coverage_frac",
        ratio(layer_cpu_s + idle_s, thread_s),
        "ratio",
    );
    out
}

/// Write the spans as a Chrome trace-event file (Perfetto /
/// `chrome://tracing`): one complete event per span, with its pass,
/// id, parent and CPU time in `args`.
pub fn write_chrome(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"pass\":{},\"id\":{},\"parent\":{},\"cpu_us\":{:.3}}}}}",
            s.name,
            s.layer,
            s.tid,
            s.start_ns as f64 * 1e-3,
            s.dur_ns as f64 * 1e-3,
            s.pass,
            s.id,
            s.parent,
            s.cpu_ns as f64 * 1e-3,
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
