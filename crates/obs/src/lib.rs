//! # sfq-obs
//!
//! Unified tracing & metrics layer for the SuperNPU workspace: a
//! lightweight, dependency-free registry of named metrics — atomic
//! [`Counter`]s, [`Gauge`]s and log-bucketed latency [`Histogram`]s —
//! plus the [`region`] scope guard (one profile frame, trace slice and
//! `<name>_ms` histogram per scope), the [`prof`] profiler, the
//! [`trace`] event recorder, the run [`ledger`], the [`progress`]
//! ticker and the [`Memo`] type, shared by the `jjsim` solver, the
//! memo caches, the `sfq-par` worker pool, the `npusim` cycle
//! simulator and the `supernpu` sweep engine.
//!
//! ## Naming scheme
//!
//! Names are hierarchical, dot-separated, lowercase:
//! `<crate>.<subsystem>.<what>` — e.g. `jjsim.solver.newton_iters`,
//! `chars.measure.cache_hit`, `par.task_ms`,
//! `npusim.layer.stall_cycles`, `explore.fig20.point`. Duration
//! histograms end in `_ms` and record milliseconds.
//!
//! ## Gating
//!
//! Everything except the ledger is off by default. One switch reads
//! the nine observability variables ([`KNOBS`]) once, into one flag
//! word; the programmatic setters ([`set_enabled`], [`set_log_level`],
//! `prof::set_profile`, `trace::set_trace`, …) flip its bits:
//!
//! * `SUPERNPU_METRICS=1` — record metrics at the gated call sites
//!   ([`add`], [`observe`], [`gauge_set`], [`region`]).
//! * `SUPERNPU_LOG=error|warn|info|debug|trace` — emit [`log`] lines
//!   on stderr at or above the given level.
//! * `SUPERNPU_PROFILE`, `SUPERNPU_TRACE`, `SUPERNPU_LEDGER`,
//!   `SUPERNPU_PROGRESS` and the detail knobs — see their modules.
//!
//! The disabled fast path of every gated helper is a single relaxed
//! atomic load followed by an early return: no locking, no allocation,
//! no clock read — cheap enough to leave in the solver's inner loops.
//! Metrics can never change a simulation result; they only count it.
//!
//! A handful of *always-on* counters predate this crate (the
//! `jjsim::transient_runs()` and cache hit/miss counters migrated from
//! ad-hoc statics); those use [`counter`] handles directly and keep
//! recording with metrics off, exactly as their former statics did —
//! one relaxed atomic add per event.
//!
//! ## Memos
//!
//! [`Memo`] is the one process-wide memo type. Four instances exist:
//! the `jjsim::extract` testbench transients, `sfq_chars::measure`,
//! `sfq_estimator::estimate` and the `supernpu` result functions. Each
//! counts into always-on `<name>.cache_hit` / `<name>.cache_miss`
//! counters, and each owner's `clear_*_cache()` function empties it
//! and resets them.
//!
//! ## Reading the numbers
//!
//! [`snapshot`] returns a serde-serializable [`MetricsReport`] (stable
//! name-sorted order); [`render_table`] formats the live registry as a
//! fixed-width human-readable table; [`dump_on_exit`] returns a guard
//! that prints that table on drop when metrics are enabled.
//!
//! # Example
//!
//! ```
//! sfq_obs::set_enabled(true);
//! sfq_obs::inc("demo.events");
//! sfq_obs::observe("demo.latency_ms", 0.25);
//! {
//!     let _region = sfq_obs::region("demo.block"); // demo.block_ms on drop
//! }
//! let report = sfq_obs::snapshot();
//! assert!(report.counters.iter().any(|c| c.name == "demo.events"));
//! assert_eq!(report.histogram("demo.block_ms").map(|h| h.count), Some(1));
//! sfq_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
mod memo;
pub mod prof;
pub mod progress;
mod switch;
pub mod trace;

pub use memo::Memo;
pub use switch::KNOBS;

/// Schema version stamped into every persisted snapshot this crate
/// (and the bench reports downstream) writes: [`MetricsReport`],
/// [`prof::ProfileReport`], [`ledger::RunManifest`] and the
/// `BENCH_*.json` files. Bump on any field change so the bench gate
/// can reject cross-version comparisons with one clear error instead
/// of a field-by-field mismatch spray.
pub const SCHEMA_VERSION: u32 = 1;

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

// ------------------------------------------------------------- enable gate

/// Whether gated metric recording is on: `SUPERNPU_METRICS` (any
/// value other than empty, `0`, `false` or `off`) or [`set_enabled`].
/// One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    switch::on(switch::METRICS)
}

/// Programmatically force metrics on or off (overrides the env var).
pub fn set_enabled(on: bool) {
    switch::set(switch::METRICS, on);
}

// ---------------------------------------------------------------- logging

/// Log severity for [`log`], most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or result-affecting conditions.
    Error = 1,
    /// Suspicious but survivable conditions.
    Warn = 2,
    /// Coarse progress (one line per sweep, not per point).
    Info = 3,
    /// Per-point / per-run detail.
    Debug = 4,
    /// Inner-loop detail.
    Trace = 5,
}

impl Level {
    fn tag(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

/// Whether a [`log`] call at `level` would print (`SUPERNPU_LOG` or
/// [`set_log_level`]).
#[inline]
pub fn log_enabled(level: Level) -> bool {
    switch::log_level() >= level as u32
}

/// Programmatically set the log threshold (`None` silences all logs).
pub fn set_log_level(level: Option<Level>) {
    switch::set_log_level(level.map_or(0, |l| l as u32));
}

/// Emit one log line on stderr if `level` is enabled. The message
/// closure is only evaluated when the line will actually print, so a
/// disabled call costs one relaxed atomic load.
#[inline]
pub fn log(level: Level, msg: impl FnOnce() -> String) {
    if log_enabled(level) {
        eprintln!("[supernpu:{}] {}", level.tag(), msg());
    }
}

// ---------------------------------------------------------------- metrics

/// Monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    fn new() -> Self {
        Counter {
            v: AtomicU64::new(0),
        }
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    /// Reset to zero (tests and benchmark phases).
    pub fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins instantaneous value (e.g. a pool size).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// Number of power-of-two histogram buckets. Bucket `i` counts values
/// in `[2^(i-20), 2^(i-19))`, so the range spans ~1 µs to ~4.6 h when
/// values are milliseconds; values below the range land in bucket 0,
/// above it in the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 44;

/// Exponent offset: bucket 0 starts at 2^-20.
const BUCKET_EXP_OFFSET: i32 = 20;

/// Log-bucketed distribution of non-negative samples (latencies in
/// milliseconds by convention — name such histograms `*_ms`).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    /// Σ samples, stored as f64 bits and updated by CAS so the total
    /// is exact regardless of interleaving (up to f64 associativity).
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

fn cas_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Bucket index for a sample. NaN and non-positive samples land in
    /// bucket 0.
    fn bucket_of(v: f64) -> usize {
        if v.is_nan() || v <= 0.0 {
            return 0;
        }
        let idx = v.log2().floor() as i32 + BUCKET_EXP_OFFSET;
        idx.clamp(0, HISTOGRAM_BUCKETS as i32 - 1) as usize
    }

    /// Upper bound (exclusive) of bucket `i`.
    pub fn bucket_upper_bound(i: usize) -> f64 {
        debug_assert!(i < HISTOGRAM_BUCKETS);
        (2f64).powi(i as i32 - BUCKET_EXP_OFFSET + 1)
    }

    /// Record one sample.
    pub fn observe(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        cas_f64(&self.sum_bits, |s| s + v);
        cas_f64(&self.min_bits, |m| m.min(v));
        cas_f64(&self.max_bits, |m| m.max(v));
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest sample seen (+∞ when empty).
    pub fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Largest sample seen (−∞ when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Quantile estimate by linear interpolation inside the bucket the
    /// q-th sample falls in (`q` in `[0, 1]`), clamped to the observed
    /// `[min, max]`. Because buckets are powers of two, the estimate's
    /// relative error is bounded by one octave — the true value lies
    /// within a factor of 2 of the estimate — which is plenty to tell
    /// "p99 moved from 2 ms to 40 ms" apart from noise. Returns 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let lo = if i == 0 {
                    0.0
                } else {
                    Self::bucket_upper_bound(i - 1)
                };
                let hi = Self::bucket_upper_bound(i);
                let frac = (target - seen) as f64 / c as f64;
                let est = lo + (hi - lo) * frac;
                return est.clamp(self.min(), self.max());
            }
            seen += c;
        }
        self.max()
    }

    /// Clear all samples.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

// --------------------------------------------------------------- registry

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Name → metric. A `BTreeMap` keeps snapshot/table order stable and
/// deterministic. Registered metrics are leaked (`&'static`) so hot
/// paths hold lock-free handles; the set of distinct metric names is
/// small and bounded by the instrumentation, so the leak is too.
static REGISTRY: RwLock<BTreeMap<String, Metric>> = RwLock::new(BTreeMap::new());

fn lookup<T>(name: &str, pick: impl Fn(&Metric) -> Option<T>) -> Option<T> {
    let map = REGISTRY.read().unwrap_or_else(|e| e.into_inner());
    map.get(name).map(|m| {
        pick(m).unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind()))
    })
}

fn register<T>(
    name: &str,
    make: impl FnOnce() -> Metric,
    pick: impl Fn(&Metric) -> Option<T>,
) -> T {
    let mut map = REGISTRY.write().unwrap_or_else(|e| e.into_inner());
    let m = map.entry(name.to_owned()).or_insert_with(make);
    pick(m).unwrap_or_else(|| panic!("metric `{name}` already registered as a {}", m.kind()))
}

/// Get or register the counter named `name`. The returned handle is
/// `'static` and always records (use [`add`] for the gated variant).
pub fn counter(name: &str) -> &'static Counter {
    let pick = |m: &Metric| match m {
        Metric::Counter(c) => Some(*c),
        _ => None,
    };
    lookup(name, pick).unwrap_or_else(|| {
        register(
            name,
            || Metric::Counter(Box::leak(Box::new(Counter::new()))),
            pick,
        )
    })
}

/// Get or register the gauge named `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    let pick = |m: &Metric| match m {
        Metric::Gauge(g) => Some(*g),
        _ => None,
    };
    lookup(name, pick).unwrap_or_else(|| {
        register(
            name,
            || Metric::Gauge(Box::leak(Box::new(Gauge::new()))),
            pick,
        )
    })
}

/// Get or register the histogram named `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    let pick = |m: &Metric| match m {
        Metric::Histogram(h) => Some(*h),
        _ => None,
    };
    lookup(name, pick).unwrap_or_else(|| {
        register(
            name,
            || Metric::Histogram(Box::leak(Box::new(Histogram::new()))),
            pick,
        )
    })
}

/// Reset every registered metric to its empty state. Registered names
/// stay registered (handles remain valid); only the values clear.
pub fn reset() {
    let map = REGISTRY.read().unwrap_or_else(|e| e.into_inner());
    for m in map.values() {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}

// ---------------------------------------------------------- gated helpers

/// Add `n` to counter `name` — no-op (one relaxed load) when disabled.
#[inline]
pub fn add(name: &str, n: u64) {
    if enabled() {
        counter(name).add(n);
    }
}

/// Add 1 to counter `name` — no-op (one relaxed load) when disabled.
#[inline]
pub fn inc(name: &str) {
    add(name, 1);
}

/// Record `v` into histogram `name` — no-op when disabled.
#[inline]
pub fn observe(name: &str, v: f64) {
    if enabled() {
        histogram(name).observe(v);
    }
}

/// Set gauge `name` to `v` — no-op when disabled.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        gauge(name).set(v);
    }
}

// ----------------------------------------------------------------- region

/// One instrumented scope, feeding every sink that was on when it
/// opened: the profile frame `name`, the trace slice `name` in the
/// category before its first dot, and the histogram `<name>_ms`. With
/// all three sinks off it is inert and never reads the clock. A
/// region closes on the thread that opened it (profile frames nest
/// per thread), so the guard is `!Send`.
#[must_use = "a region records on drop; binding it to `_` drops it immediately"]
#[derive(Debug)]
pub struct Region {
    /// Boxed, so an inert region is one null pointer.
    live: Option<Box<Live>>,
    _not_send: PhantomData<*const ()>,
}

/// An open region's start time and the sinks it records into.
#[derive(Debug)]
struct Live {
    t0: Instant,
    profile: bool,
    trace: Option<String>,
    hist: Option<&'static Histogram>,
}

/// Open a [`Region`] named `name` (`<crate>.<subsystem>.<what>`).
/// Costs one relaxed load when metrics, profile and trace are all
/// off.
#[inline]
pub fn region(name: &str) -> Region {
    let f = switch::flags();
    Region {
        live: (f & switch::REGION_SINKS != 0).then(|| Live::open(name, f)),
        _not_send: PhantomData,
    }
}

impl Live {
    #[inline(never)]
    fn open(name: &str, f: u32) -> Box<Live> {
        let hist = (f & switch::METRICS != 0).then(|| histogram(&format!("{name}_ms")));
        let profile = f & switch::PROFILE != 0;
        if profile {
            prof::enter(name);
        }
        let trace = (f & switch::TRACE != 0).then(|| {
            trace::epoch();
            name.to_owned()
        });
        Box::new(Live {
            t0: Instant::now(),
            profile,
            trace,
            hist,
        })
    }

    #[inline(never)]
    fn close(&self) {
        let elapsed = self.t0.elapsed();
        if self.profile {
            #[allow(clippy::cast_possible_truncation)]
            prof::exit(elapsed.as_nanos() as u64);
        }
        if let Some(name) = &self.trace {
            let start_us = self.t0.duration_since(trace::epoch()).as_secs_f64() * 1e6;
            let cat = name.split_once('.').map_or(name.as_str(), |(cat, _)| cat);
            trace::complete(cat, name, start_us, elapsed.as_secs_f64() * 1e6);
        }
        if let Some(h) = self.hist {
            h.observe(elapsed.as_secs_f64() * 1e3);
        }
    }
}

impl Drop for Region {
    #[inline]
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            live.close();
        }
    }
}

// --------------------------------------------------------------- snapshot

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Event count.
    pub value: u64,
}

/// Snapshot of one gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Instantaneous value.
    pub value: f64,
}

/// One non-empty histogram bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Exclusive upper bound of the bucket.
    pub le: f64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Median estimate ([`Histogram::quantile`]; 0 when empty).
    pub p50: f64,
    /// 90th-percentile estimate (0 when empty).
    pub p90: f64,
    /// 99th-percentile estimate (0 when empty).
    pub p99: f64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<BucketCount>,
}

/// Serializable dump of the whole registry, name-sorted — the payload
/// of `metrics.json`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Snapshot schema version ([`SCHEMA_VERSION`]; 0 = pre-versioned).
    pub schema_version: u32,
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsReport {
    /// Value of a counter by name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// A histogram row by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Total number of metric entries.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether the registry was empty at snapshot time.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Capture the current state of every registered metric. Order is the
/// registry's name order, so two snapshots of identical state compare
/// equal.
pub fn snapshot() -> MetricsReport {
    let map = REGISTRY.read().unwrap_or_else(|e| e.into_inner());
    let mut report = MetricsReport {
        schema_version: SCHEMA_VERSION,
        ..MetricsReport::default()
    };
    for (name, m) in map.iter() {
        match m {
            Metric::Counter(c) => report.counters.push(CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            }),
            Metric::Gauge(g) => report.gauges.push(GaugeSnapshot {
                name: name.clone(),
                value: g.get(),
            }),
            Metric::Histogram(h) => {
                let count = h.count();
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then(|| BucketCount {
                            le: Histogram::bucket_upper_bound(i),
                            count: n,
                        })
                    })
                    .collect();
                report.histograms.push(HistogramSnapshot {
                    name: name.clone(),
                    count,
                    sum: h.sum(),
                    min: if count == 0 { 0.0 } else { h.min() },
                    max: if count == 0 { 0.0 } else { h.max() },
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p99: h.quantile(0.99),
                    buckets,
                });
            }
        }
    }
    report
}

/// Render the live registry as a fixed-width table: one row per
/// metric, with count/sum/mean/min/max for histograms.
pub fn render_table() -> String {
    let report = snapshot();
    let mut rows: Vec<[String; 3]> = Vec::with_capacity(report.len());
    for c in &report.counters {
        rows.push([c.name.clone(), "counter".into(), c.value.to_string()]);
    }
    for g in &report.gauges {
        rows.push([g.name.clone(), "gauge".into(), format!("{:.3}", g.value)]);
    }
    for h in &report.histograms {
        rows.push([
            h.name.clone(),
            "histogram".into(),
            format!(
                "n={} sum={:.3} mean={:.3} min={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
                h.count,
                h.sum,
                if h.count == 0 {
                    0.0
                } else {
                    h.sum / h.count as f64
                },
                h.min,
                h.p50,
                h.p90,
                h.p99,
                h.max
            ),
        ]);
    }
    let mut w0 = "metric".len();
    let mut w1 = "kind".len();
    for r in &rows {
        w0 = w0.max(r[0].len());
        w1 = w1.max(r[1].len());
    }
    let mut out = format!("{:<w0$}  {:<w1$}  value\n", "metric", "kind");
    out.push_str(&"-".repeat(w0 + w1 + 9));
    out.push('\n');
    for r in &rows {
        out.push_str(&format!("{:<w0$}  {:<w1$}  {}\n", r[0], r[1], r[2]));
    }
    out
}

/// Write the current [`snapshot`] as pretty JSON to the file named by
/// `SUPERNPU_METRICS_JSON`, if that env var is set — so any bin can
/// dump its metrics without code changes. Returns the path written,
/// `None` when the knob is unset, and reports write failures on
/// stderr rather than propagating them (this runs on exit and panic
/// paths).
pub fn write_metrics_json_env() -> Option<PathBuf> {
    let path = std::env::var("SUPERNPU_METRICS_JSON")
        .ok()
        .filter(|p| !p.trim().is_empty())
        .map(PathBuf::from)?;
    let json = serde_json::to_string_pretty(&snapshot())
        .unwrap_or_else(|e| unreachable!("metrics reports serialize infallibly: {e}"));
    match std::fs::write(&path, json) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("could not write metrics json to {}: {e}", path.display());
            None
        }
    }
}

/// Flush every sink that persists to disk: the trace ring buffers, the
/// profiler trees, the `SUPERNPU_METRICS_JSON` snapshot, and — last,
/// so it has seen every artifact the others produced — the run
/// ledger. Each is a no-op when its gate is off; failures go to
/// stderr. Shared by the clean-exit guard and the panic hook; bench
/// bins call it from their error exit (`process::exit` skips `Drop`,
/// so a guard alone would lose the buffered tails).
pub fn flush_all() {
    match trace::flush() {
        Ok(Some(path)) => {
            ledger::record_artifact(&path);
            eprintln!("trace written to {}", path.display());
        }
        Ok(None) => {}
        Err(e) => eprintln!("could not write trace file: {e}"),
    }
    match prof::flush() {
        Ok(Some(path)) => {
            ledger::record_artifact(&path);
            ledger::record_artifact(&path.with_extension("folded"));
            eprintln!("profile written to {}", path.display());
        }
        Ok(None) => {}
        Err(e) => eprintln!("could not write profile file: {e}"),
    }
    if let Some(path) = write_metrics_json_env() {
        ledger::record_artifact(&path);
        eprintln!("metrics json written to {}", path.display());
    }
    ledger::flush();
}

/// Install (once) a panic hook that flushes the trace, profile and
/// metrics-json sinks *before* unwinding begins, chained in front of
/// the default hook. [`DumpOnExit`] already flushes when its guard
/// drops during unwinding, but that never happens when the panic
/// escalates to an abort (`panic = "abort"`, double panic, panic in a
/// detached worker) — the hook covers those paths, and flushing twice
/// is safe because every sink rewrites its whole file.
pub fn install_panic_flush() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            // Re-entrancy guard: a panic inside a flush must not
            // recurse into another flush (that would abort).
            static FLUSHING: std::sync::atomic::AtomicBool =
                std::sync::atomic::AtomicBool::new(false);
            if !FLUSHING.swap(true, Ordering::SeqCst) {
                flush_all();
                FLUSHING.store(false, Ordering::SeqCst);
            }
        }));
    });
}

/// Guard that flushes the trace/profile/metrics-json sinks and prints
/// [`render_table`] to stderr when dropped, if metrics are enabled at
/// that moment. Bind it at the top of `main`:
///
/// ```no_run
/// let _metrics = sfq_obs::dump_on_exit();
/// ```
#[must_use = "bind the guard for the lifetime of main"]
#[derive(Debug)]
pub struct DumpOnExit(());

impl Drop for DumpOnExit {
    fn drop(&mut self) {
        // Flush persistent sinks first: the guard drops during
        // unwinding too, so a panicking bench still lands its buffered
        // tail on disk instead of losing it with the process.
        flush_all();
        if enabled() {
            eprintln!("\n== metrics (SUPERNPU_METRICS) ==\n{}", render_table());
        }
    }
}

/// Create a [`DumpOnExit`] guard. Also installs the
/// [`install_panic_flush`] hook so abort-bound panics flush the same
/// sinks the guard would.
pub fn dump_on_exit() -> DumpOnExit {
    install_panic_flush();
    DumpOnExit(())
}

/// Serializes the unit tests that reset or snapshot the process-global
/// registry: `reset` would zero the trace test's always-on drop
/// counter, and the trace test's events would land between the
/// registry test's disabled-path snapshots.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// One test body: the registry is process-global state, so the
    /// pieces must run in a fixed order rather than in the harness's
    /// parallel shuffle.
    #[test]
    fn registry_end_to_end() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();

        // Counters, gauges, histograms through the gated helpers.
        add("t.counter", 3);
        inc("t.counter");
        gauge_set("t.gauge", 2.5);
        observe("t.hist_ms", 0.5);
        observe("t.hist_ms", 4.0);
        observe("t.hist_ms", 0.0); // non-positive → bucket 0
        assert_eq!(counter("t.counter").get(), 4);
        assert_eq!(gauge("t.gauge").get(), 2.5);
        let h = histogram("t.hist_ms");
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 4.5);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 4.0);

        // Quantiles: estimates stay inside the sample's bucket (one
        // octave of error) and clamp to the observed extremes.
        assert_eq!(h.quantile(1.0), 4.0, "q=1 is the max");
        let p50 = h.quantile(0.5);
        assert!((0.5..=1.0).contains(&p50), "p50 {p50} within one octave");
        assert_eq!(histogram("t.empty_q").quantile(0.9), 0.0, "empty is 0");

        // Bucket mapping: 0.5 → [2^-1, 2^0); 4.0 → [2^2, 2^3).
        assert_eq!(Histogram::bucket_of(0.5), BUCKET_EXP_OFFSET as usize - 1);
        assert_eq!(Histogram::bucket_of(4.0), BUCKET_EXP_OFFSET as usize + 2);
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(f64::MAX), HISTOGRAM_BUCKETS - 1);
        assert!(Histogram::bucket_upper_bound(BUCKET_EXP_OFFSET as usize) == 2.0);

        // Snapshot reflects the same numbers, sorted by name.
        let snap = snapshot();
        assert_eq!(snap.counter("t.counter"), Some(4));
        let hs = snap.histogram("t.hist_ms").unwrap();
        assert_eq!(hs.count, 3);
        assert_eq!((hs.p50, hs.p99), (p50, 4.0), "snapshot carries quantiles");
        assert_eq!(hs.buckets.iter().map(|b| b.count).sum::<u64>(), 3);
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "counters sorted by name");

        // Table render mentions every metric.
        let table = render_table();
        for name in ["t.counter", "t.gauge", "t.hist_ms"] {
            assert!(table.contains(name), "table missing {name}:\n{table}");
        }

        // Reset clears values but keeps registration.
        reset();
        assert_eq!(counter("t.counter").get(), 0);
        assert_eq!(histogram("t.hist_ms").count(), 0);
        assert_eq!(snapshot().counter("t.counter"), Some(0));

        // Disabled: gated helpers record nothing and register nothing.
        set_enabled(false);
        let before = snapshot();
        add("t.disabled_counter", 7);
        observe("t.disabled_hist", 1.0);
        gauge_set("t.disabled_gauge", 1.0);
        let after = snapshot();
        assert_eq!(before, after, "disabled path must not touch the registry");

        // Ungated handles keep working with metrics off (the migrated
        // legacy counters rely on this).
        counter("t.always_on").inc();
        assert_eq!(counter("t.always_on").get(), 1);

        // Log gating: closure not evaluated when the level is off.
        set_log_level(Some(Level::Warn));
        assert!(log_enabled(Level::Error) && log_enabled(Level::Warn));
        assert!(!log_enabled(Level::Info));
        let mut evaluated = false;
        log(Level::Debug, || {
            evaluated = true;
            String::new()
        });
        assert!(!evaluated, "disabled log level must not build the message");
        set_log_level(None);
        set_enabled(false);
    }

    /// Quantile interpolation boundary cases, on private histograms so
    /// the parallel test harness can't race the shared registry.
    #[test]
    fn quantile_edge_cases() {
        // Empty: every quantile is 0.
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "empty histogram at q={q}");
        }

        // Single sample: every quantile clamps to the one value.
        let h = Histogram::new();
        h.observe(3.7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 3.7, "single sample at q={q}");
        }

        // All samples in one bucket: the octave interpolation may land
        // anywhere in [2, 4), but the [min, max] clamp collapses it to
        // the only value present.
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(3.0);
        }
        for q in [0.01, 0.5, 0.99] {
            assert_eq!(h.quantile(q), 3.0, "one-bucket histogram at q={q}");
        }

        // Sample exactly on an octave boundary: 2.0 belongs to the
        // [2, 4) bucket, not [1, 2).
        assert_eq!(Histogram::bucket_of(2.0), BUCKET_EXP_OFFSET as usize + 1);

        // p99 target exactly at a bucket's cumulative boundary: with
        // 99 samples of 1.5 and 1 of 3.0, target = ceil(0.99·100) = 99
        // = the full count of the first bucket, so frac = 1 and the
        // estimate is that bucket's upper bound (2.0) — inside one
        // octave of the true p99 (1.5) and within [min, max].
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(1.5);
        }
        h.observe(3.0);
        let p99 = h.quantile(0.99);
        assert_eq!(p99, 2.0, "boundary target interpolates to the bucket edge");
        assert!((1.5..=3.0).contains(&p99));
        // One sample past the boundary falls into the next bucket and
        // clamps to the max.
        assert_eq!(h.quantile(1.0), 3.0);
    }

    #[test]
    fn kind_conflict_panics() {
        let name = "t.kind_conflict";
        let _ = counter(name);
        let got = std::panic::catch_unwind(|| histogram(name));
        assert!(
            got.is_err(),
            "re-registering a counter as a histogram must panic"
        );
    }
}
