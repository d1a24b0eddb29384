//! Structured event tracing with Chrome trace-event / Perfetto export.
//!
//! The metrics half of this crate answers *how much*; this module
//! answers *when*. Instrumented code records three kinds of events —
//! [`complete`] spans (begin + duration), [`instant`] markers and
//! [`counter_sample`] series — into bounded per-thread ring buffers,
//! and [`flush`] (or [`ChromeTrace::write`]) renders everything as
//! Chrome trace-event JSON that loads directly in
//! [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
//!
//! ## Gating
//!
//! Tracing is off by default. Setting `SUPERNPU_TRACE=<path>` (or
//! calling [`set_trace`]) turns it on and names the output file; the
//! disabled fast path of every recording helper is a single relaxed
//! load of the crate's one flag word followed by an early return — no
//! locking, no clock read, no allocation — so the instrumentation can
//! live in the solver's inner loops. Scoped slices come from
//! [`crate::region`], which names each slice after its region and
//! files it under the category before the name's first dot.
//! High-frequency per-step markers (solver accept/reject/restamp) are
//! additionally gated behind `SUPERNPU_TRACE_DETAIL=1` /
//! [`set_detail`].
//!
//! ## Sinks
//!
//! Every recording thread owns its own bounded ring buffer
//! (capacity from `SUPERNPU_TRACE_BUF`, default
//! [`DEFAULT_RING_CAPACITY`]), registered in a global sink list the
//! first time the thread records. Steady-state recording therefore
//! never contends with other threads: the per-sink mutex is only
//! shared with the drainer. When a ring is full the event is dropped
//! and counted — in the sink, and in the always-on
//! `obs.trace.events_dropped` registry counter — never blocking the
//! traced code.
//!
//! ## Timebases and tracks
//!
//! Wall-clock events are stamped in microseconds since a process-wide
//! monotonic [`epoch`] captured at first use, so tests can normalize
//! by subtracting the first timestamp. Events land on *tracks*
//! identified by `(pid, tid)`: pid [`HOST_PID`] holds wall-clock
//! tracks (one per thread, plus the stable `pool worker N` tracks the
//! `sfq-par` pool claims via [`with_track`]), and pid [`CYCLE_PID`]
//! holds the deterministic cycle-timestamped tracks of the `npusim`
//! access-trace exporter, where one trace microsecond is one NPU
//! cycle. Keeping the two domains in separate pids lets one file show
//! both without pretending they share a clock.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::switch;

/// Process id of wall-clock tracks (threads, pool workers, solver and
/// sweep spans).
pub const HOST_PID: u32 = 1;

/// Process id of cycle-domain tracks (the `npusim` access-trace
/// exporter). Timestamps are NPU cycles, not wall time.
pub const CYCLE_PID: u32 = 2;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

// ------------------------------------------------------------- enable gate

/// Whether event recording is on: `SUPERNPU_TRACE` (any non-empty
/// value enables and names the output file) or [`set_trace`]. One
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    switch::on(switch::TRACE)
}

/// Programmatically enable tracing to `path`, or disable it with
/// `None` (overrides the env var either way).
pub fn set_trace(path: Option<&str>) {
    switch::paths().trace = path.map(PathBuf::from);
    switch::set(switch::TRACE, path.is_some());
}

/// The output file [`flush`] writes, if tracing is enabled.
pub fn path() -> Option<PathBuf> {
    switch::paths().trace.clone().filter(|_| enabled())
}

/// Whether high-frequency detail events (per-step solver
/// accept/reject/restamp instants) should be recorded. True only when
/// tracing itself is enabled *and* `SUPERNPU_TRACE_DETAIL` (or
/// [`set_detail`]) asks for it.
#[inline]
pub fn detail_enabled() -> bool {
    switch::on(switch::TRACE | switch::TRACE_DETAIL)
}

/// Programmatically force detail events on or off.
pub fn set_detail(on: bool) {
    switch::set(switch::TRACE_DETAIL, on);
}

// ------------------------------------------------------------------ epoch

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide monotonic epoch all wall-clock timestamps are
/// relative to, captured on first use.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since [`epoch`].
#[inline]
pub fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

// ------------------------------------------------------------ event model

/// Per-event argument payload. Both fields are always present so the
/// exported JSON round-trips through the workspace serde without
/// optional-field machinery; Perfetto ignores the ones it does not
/// use. `name` carries thread/process names on metadata events,
/// `value` carries counter samples.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EventArgs {
    /// Metadata payload (track name) — empty on ordinary events.
    pub name: String,
    /// Counter value — 0 on non-counter events.
    pub value: f64,
}

/// One Chrome trace-event. Field names match the trace-event JSON
/// schema so the struct serializes directly into a `traceEvents`
/// element: `ph` is the phase code (`X` complete, `i` instant, `C`
/// counter, `M` metadata), `ts`/`dur` are in trace microseconds (one
/// NPU cycle on [`CYCLE_PID`] tracks), and `(pid, tid)` select the
/// track.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Event (slice) name.
    pub name: String,
    /// Category, used by trace viewers for filtering.
    pub cat: String,
    /// Phase code: `X`, `i`, `C` or `M`.
    pub ph: String,
    /// Start timestamp, trace microseconds.
    pub ts: f64,
    /// Duration, trace microseconds (0 unless `ph == "X"`).
    pub dur: f64,
    /// Process id (track group).
    pub pid: u32,
    /// Thread id (track).
    pub tid: u64,
    /// Arguments.
    pub args: EventArgs,
}

impl Event {
    fn complete(pid: u32, tid: u64, cat: &str, name: &str, ts: f64, dur: f64) -> Self {
        Event {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ph: "X".to_owned(),
            ts,
            dur,
            pid,
            tid,
            args: EventArgs::default(),
        }
    }

    fn instant(pid: u32, tid: u64, cat: &str, name: &str, ts: f64) -> Self {
        Event {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ph: "i".to_owned(),
            ts,
            dur: 0.0,
            pid,
            tid,
            args: EventArgs::default(),
        }
    }

    fn counter(pid: u32, tid: u64, cat: &str, name: &str, ts: f64, value: f64) -> Self {
        Event {
            name: name.to_owned(),
            cat: cat.to_owned(),
            ph: "C".to_owned(),
            ts,
            dur: 0.0,
            pid,
            tid,
            args: EventArgs {
                name: String::new(),
                value,
            },
        }
    }

    fn metadata(pid: u32, tid: u64, kind: &str, name: &str) -> Self {
        Event {
            name: kind.to_owned(),
            cat: "__metadata".to_owned(),
            ph: "M".to_owned(),
            ts: 0.0,
            dur: 0.0,
            pid,
            tid,
            args: EventArgs {
                name: name.to_owned(),
                value: 0.0,
            },
        }
    }
}

// ---------------------------------------------------------------- sinks

/// Per-thread ring capacity (`SUPERNPU_TRACE_BUF`, resolved by the
/// switch); read on every push so tests can shrink it.
pub(crate) static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

/// Override the per-thread ring capacity (tests and long captures).
/// Applies to events recorded after the call; existing buffered
/// events are kept even if the new capacity is smaller.
pub fn set_ring_capacity(events: usize) {
    // Resolve the environment first, so its first read cannot
    // overwrite this override.
    switch::flags();
    RING_CAPACITY.store(events.max(1), Ordering::Relaxed);
}

/// The always-on drop counter: incremented whenever a full ring
/// rejects an event, metrics enabled or not, so a truncated trace is
/// self-describing.
fn dropped_counter() -> &'static crate::Counter {
    static C: OnceLock<&'static crate::Counter> = OnceLock::new();
    C.get_or_init(|| crate::counter("obs.trace.events_dropped"))
}

struct ThreadSink {
    tid: u64,
    ring: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

impl ThreadSink {
    fn push(&self, ev: Event) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() < RING_CAPACITY.load(Ordering::Relaxed) {
            ring.push(ev);
        } else {
            drop(ring);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            dropped_counter().inc();
        }
    }
}

static SINKS: Mutex<Vec<Arc<ThreadSink>>> = Mutex::new(Vec::new());

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SINK: OnceLock<Arc<ThreadSink>> = const { OnceLock::new() };
    /// Track override for default-track events: `(pid, tid)`, where
    /// tid 0 means "this thread's own track".
    static CURRENT_TRACK: std::cell::Cell<(u32, u64)> = const { std::cell::Cell::new((HOST_PID, 0)) };
}

fn with_sink(f: impl FnOnce(&ThreadSink)) {
    SINK.with(|cell| {
        let sink = cell.get_or_init(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let sink = Arc::new(ThreadSink {
                tid,
                ring: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            });
            SINKS
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&sink));
            name_track(HOST_PID, tid, &format!("thread {tid}"));
            sink
        });
        f(sink);
    });
}

/// Number of per-thread sinks registered so far. A thread only
/// registers on its first *enabled* record, so this stays 0 while
/// tracing is off — the disabled-path test hangs on that.
pub fn sinks_registered() -> usize {
    SINKS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

/// Total events dropped by full rings since the last [`clear`].
pub fn events_dropped() -> u64 {
    SINKS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|s| s.dropped.load(Ordering::Relaxed))
        .sum()
}

// ---------------------------------------------------------- track naming

/// Global `(pid, tid) → name` registry, rendered as `thread_name`
/// metadata on export. A `BTreeMap` keeps export order deterministic.
static TRACK_NAMES: Mutex<BTreeMap<(u32, u64), String>> = Mutex::new(BTreeMap::new());

/// Register a display name for track `(pid, tid)`. Idempotent; the
/// first name wins.
pub fn name_track(pid: u32, tid: u64, name: &str) {
    let mut map = TRACK_NAMES.lock().unwrap_or_else(|e| e.into_inner());
    map.entry((pid, tid)).or_insert_with(|| name.to_owned());
}

/// The `(pid, tid)` default-track events on this thread currently
/// resolve to.
fn current_track(sink_tid: u64) -> (u32, u64) {
    let (pid, tid) = CURRENT_TRACK.with(std::cell::Cell::get);
    (pid, if tid == 0 { sink_tid } else { tid })
}

/// Guard that retargets this thread's default-track events (returned
/// by [`with_track`]); restores the previous track on drop.
#[derive(Debug)]
pub struct TrackGuard {
    prev: (u32, u64),
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        CURRENT_TRACK.with(|c| c.set(self.prev));
    }
}

/// Route this thread's default-track events to `(pid, tid)` until the
/// guard drops. The `sfq-par` pool uses this so solver spans executed
/// by worker `N` land on the stable `pool worker N` track instead of
/// an anonymous per-region thread track.
#[must_use = "the track override ends when the guard drops"]
pub fn with_track(pid: u32, tid: u64) -> TrackGuard {
    let prev = CURRENT_TRACK.with(|c| c.replace((pid, tid)));
    TrackGuard { prev }
}

// ------------------------------------------------------------- recording

#[inline]
fn record(ev: Event) {
    with_sink(|sink| sink.push(ev));
}

/// Record a complete event (`ph: "X"`) on this thread's current
/// track, with an explicit start and duration in microseconds since
/// [`epoch`]. No-op (one relaxed load) when tracing is disabled.
#[inline]
pub fn complete(cat: &str, name: &str, start_us: f64, dur_us: f64) {
    if !enabled() {
        return;
    }
    with_sink(|sink| {
        let (pid, tid) = current_track(sink.tid);
        sink.push(Event::complete(pid, tid, cat, name, start_us, dur_us));
    });
}

/// Record a complete event on an explicit track.
#[inline]
pub fn complete_on(pid: u32, tid: u64, cat: &str, name: &str, start_us: f64, dur_us: f64) {
    if !enabled() {
        return;
    }
    record(Event::complete(pid, tid, cat, name, start_us, dur_us));
}

/// Record an instant event (`ph: "i"`) on this thread's current track
/// at the current time. No-op (one relaxed load) when disabled.
#[inline]
pub fn instant(cat: &str, name: &str) {
    if !enabled() {
        return;
    }
    let ts = now_us();
    with_sink(|sink| {
        let (pid, tid) = current_track(sink.tid);
        sink.push(Event::instant(pid, tid, cat, name, ts));
    });
}

/// Record a counter sample (`ph: "C"`) on an explicit track. Counter
/// tracks render as stepped area charts in Perfetto.
#[inline]
pub fn counter_sample(pid: u32, tid: u64, name: &str, ts: f64, value: f64) {
    if !enabled() {
        return;
    }
    record(Event::counter(pid, tid, "counter", name, ts, value));
}

// ----------------------------------------------------------- export

/// Top-level Chrome trace-event file: the shape
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}` that Perfetto
/// and `chrome://tracing` load directly.
#[allow(non_snake_case)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceFile {
    /// All events; metadata (track names) first.
    pub traceEvents: Vec<Event>,
    /// Display unit hint for viewers.
    pub displayTimeUnit: String,
}

/// Deterministic builder for a Chrome trace-event file. Exporters
/// (the `npusim` cycle-track exporter, [`flush`]) assemble one of
/// these and [`ChromeTrace::write`] it; insertion order is preserved,
/// and track/process names render as sorted metadata events, so the
/// same inputs always produce the identical file.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<Event>,
    tracks: BTreeMap<(u32, u64), String>,
    processes: BTreeMap<u32, String>,
}

impl ChromeTrace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name a process group.
    pub fn name_process(&mut self, pid: u32, name: &str) {
        self.processes.entry(pid).or_insert_with(|| name.to_owned());
    }

    /// Name a track; first name wins.
    pub fn name_track(&mut self, pid: u32, tid: u64, name: &str) {
        self.tracks
            .entry((pid, tid))
            .or_insert_with(|| name.to_owned());
    }

    /// Append one event.
    pub fn push(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// Append a complete event.
    pub fn add_complete(&mut self, pid: u32, tid: u64, cat: &str, name: &str, ts: f64, dur: f64) {
        self.push(Event::complete(pid, tid, cat, name, ts, dur));
    }

    /// Append an instant event.
    pub fn add_instant(&mut self, pid: u32, tid: u64, cat: &str, name: &str, ts: f64) {
        self.push(Event::instant(pid, tid, cat, name, ts));
    }

    /// Append a counter sample.
    pub fn add_counter(&mut self, pid: u32, tid: u64, name: &str, ts: f64, value: f64) {
        self.push(Event::counter(pid, tid, "counter", name, ts, value));
    }

    /// Append many events.
    pub fn extend(&mut self, events: impl IntoIterator<Item = Event>) {
        self.events.extend(events);
    }

    /// Number of events (excluding metadata).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Assemble the serializable file: process/track metadata (sorted
    /// by id) followed by the events in insertion order.
    pub fn to_file(&self) -> TraceFile {
        let mut out = Vec::with_capacity(self.events.len() + self.tracks.len() + 2);
        for (pid, name) in &self.processes {
            out.push(Event::metadata(*pid, 0, "process_name", name));
        }
        for ((pid, tid), name) in &self.tracks {
            out.push(Event::metadata(*pid, *tid, "thread_name", name));
        }
        out.extend(self.events.iter().cloned());
        TraceFile {
            traceEvents: out,
            displayTimeUnit: "ms".to_owned(),
        }
    }

    /// Render as Chrome trace-event JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_file())
            .unwrap_or_else(|e| unreachable!("trace events serialize infallibly: {e}"))
    }

    /// Write the JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error when the write fails.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Drain every sink's buffered events (clearing the rings) plus any
/// previously flushed backlog, merge the global track names, and
/// append it all to `ct`. Cross-thread order is normalized by a
/// stable sort on `(ts, pid, tid, name)` so the merged stream is a
/// function of the recorded events, not of drain timing.
pub fn drain_into(ct: &mut ChromeTrace) {
    let mut drained: Vec<Event> = {
        let mut backlog = FLUSHED.lock().unwrap_or_else(|e| e.into_inner());
        std::mem::take(&mut *backlog)
    };
    {
        let list = SINKS.lock().unwrap_or_else(|e| e.into_inner());
        for sink in list.iter() {
            let mut ring = sink.ring.lock().unwrap_or_else(|e| e.into_inner());
            drained.append(&mut ring);
        }
    }
    drained.sort_by(|a, b| {
        a.ts.total_cmp(&b.ts)
            .then(a.pid.cmp(&b.pid))
            .then(a.tid.cmp(&b.tid))
            .then(a.name.cmp(&b.name))
    });
    {
        let names = TRACK_NAMES.lock().unwrap_or_else(|e| e.into_inner());
        for ((pid, tid), name) in names.iter() {
            ct.name_track(*pid, *tid, name);
        }
    }
    ct.name_process(HOST_PID, "supernpu host (wall clock)");
    ct.extend(drained);
}

/// Events drained by a previous [`flush`], kept so every flush
/// rewrites the full trace (a later flush must not lose the earlier
/// tail).
static FLUSHED: Mutex<Vec<Event>> = Mutex::new(Vec::new());

/// Drain all sinks and write the accumulated trace to the configured
/// path ([`path`]). Safe to call repeatedly — each call rewrites the
/// file with everything recorded so far. Returns the path written, or
/// `None` when tracing is disabled.
///
/// # Errors
///
/// Propagates the filesystem error when the write fails.
pub fn flush() -> std::io::Result<Option<PathBuf>> {
    let Some(path) = path() else {
        return Ok(None);
    };
    let mut ct = ChromeTrace::new();
    drain_into(&mut ct);
    // Keep the drained events for the next flush.
    {
        let mut backlog = FLUSHED.lock().unwrap_or_else(|e| e.into_inner());
        backlog.extend(ct.events.iter().cloned());
    }
    let dropped = events_dropped();
    if dropped > 0 {
        ct.add_counter(HOST_PID, 0, "obs.trace.events_dropped", 0.0, dropped as f64);
    }
    ct.write(&path)?;
    Ok(Some(path))
}

/// Discard all buffered and flushed events, drop counts and track
/// names (tests). Sinks stay registered; their rings are emptied.
pub fn clear() {
    let list = SINKS.lock().unwrap_or_else(|e| e.into_inner());
    for sink in list.iter() {
        sink.ring.lock().unwrap_or_else(|e| e.into_inner()).clear();
        sink.dropped.store(0, Ordering::Relaxed);
    }
    drop(list);
    FLUSHED.lock().unwrap_or_else(|e| e.into_inner()).clear();
    TRACK_NAMES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test body: the sink registry and enable gate are
    /// process-global, so the pieces run in a fixed order.
    #[test]
    fn trace_end_to_end() {
        let _lock = crate::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Disabled: helpers are no-ops and register nothing.
        set_trace(None);
        complete("t", "never", 0.0, 1.0);
        instant("t", "never");
        counter_sample(HOST_PID, 7, "never", 0.0, 1.0);
        let mut ct = ChromeTrace::new();
        drain_into(&mut ct);
        assert!(ct.is_empty(), "disabled tracing must record nothing");

        // Enabled: events land and tracks get named.
        set_trace(Some("unused-trace.json"));
        assert!(enabled());
        let t0 = now_us();
        complete("cat_a", "work", t0, 5.0);
        instant("cat_a", "marker");
        counter_sample(CYCLE_PID, 3, "bytes", 10.0, 42.0);
        let mut ct = ChromeTrace::new();
        ct.name_process(CYCLE_PID, "cycles");
        drain_into(&mut ct);
        assert_eq!(ct.len(), 3, "every recorded event drains");
        let file = ct.to_file();
        let phases: Vec<&str> = file.traceEvents.iter().map(|e| e.ph.as_str()).collect();
        assert!(phases.contains(&"M") && phases.contains(&"X") && phases.contains(&"i"));
        let c = file
            .traceEvents
            .iter()
            .find(|e| e.ph == "C")
            .unwrap_or_else(|| unreachable!("counter event recorded"));
        assert_eq!((c.pid, c.tid, c.args.value), (CYCLE_PID, 3, 42.0));

        // JSON round-trips through serde with the required fields.
        let json = ct.to_json();
        let back: TraceFile = serde_json::from_str(&json)
            .unwrap_or_else(|e| unreachable!("trace JSON round-trips: {e}"));
        assert_eq!(back, file);
        for ev in &back.traceEvents {
            assert!(!ev.ph.is_empty() && ev.pid > 0, "ph/pid required");
        }

        // Ring overflow drops and counts exactly.
        clear();
        set_ring_capacity(8);
        for i in 0..20 {
            complete("t", "burst", i as f64, 1.0);
        }
        let mut ct = ChromeTrace::new();
        drain_into(&mut ct);
        assert_eq!(ct.len(), 8, "ring keeps exactly its capacity");
        assert_eq!(events_dropped(), 12, "every overflow is counted");
        assert!(dropped_counter().get() >= 12);
        set_ring_capacity(DEFAULT_RING_CAPACITY);

        // Track override guard restores on drop.
        clear();
        {
            let _g = with_track(HOST_PID, 777);
            instant("t", "routed");
        }
        instant("t", "default");
        let mut ct = ChromeTrace::new();
        drain_into(&mut ct);
        let routed = ct
            .events
            .iter()
            .find(|e| e.name == "routed")
            .unwrap_or_else(|| unreachable!("routed event recorded"));
        assert_eq!(routed.tid, 777);
        let default = ct
            .events
            .iter()
            .find(|e| e.name == "default")
            .unwrap_or_else(|| unreachable!("default event recorded"));
        assert_ne!(default.tid, 777, "guard must restore the thread track");

        clear();
        set_trace(None);
    }
}
