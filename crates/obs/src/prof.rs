//! Hierarchical self-profiler with flamegraph export.
//!
//! The metrics half of this crate answers *how much*, the trace half
//! answers *when*; this module answers *where the time went*. Each
//! thread keeps a call-path tree of the [`crate::region`]s it opens
//! (one frame per region); every unique path accumulates
//! **inclusive** time, **self** time (inclusive minus time spent in
//! child frames), call counts and attached unit counters ([`count`]:
//! newton iterations, LU factors, cache hits, bytes).
//! [`snapshot`] merges all threads into one deterministic
//! [`ProfileReport`] with three export views:
//!
//! * [`ProfileReport::to_folded`] — collapsed-stack text, one line per
//!   path, directly consumable by `inferno` / `flamegraph.pl`;
//! * the serde JSON of the report itself, including a ranked
//!   [`ProfileReport::top_self`] table;
//! * [`ProfileReport::counter_tracks`] — Perfetto counter tracks on
//!   pid [`PROFILE_PID`] via the existing [`ChromeTrace`] builder.
//!
//! ## Gating
//!
//! Profiling is off by default. Setting `SUPERNPU_PROFILE=<path>` (or
//! calling [`set_profile`]) turns it on and names the JSON output file
//! ([`flush`] also writes the collapsed stacks next to it with a
//! `.folded` extension). The disabled fast path of every helper is a
//! single relaxed atomic load of the crate's one flag word, so frames
//! can live in the solver's inner loops.
//! High-cardinality frames (per-design-point sweep labels) are
//! additionally gated behind `SUPERNPU_PROFILE_DETAIL=1` /
//! [`set_detail`].
//!
//! ## Hot loops
//!
//! An enabled frame costs a thread-local lookup, an uncontended
//! mutex lock and a clock read — fine per solver *run*, too heavy per
//! Newton iteration. Kernel-grade attribution instead accumulates
//! `(calls, ns)` in plain locals and merges once per run via
//! [`record_path`], which lets the caller supply exact inclusive/self
//! splits for a whole sub-tree (see `jjsim::solver`). Profiling never
//! changes a simulation result; it only observes it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use crate::switch;
use crate::trace::ChromeTrace;

/// Process id of the profile counter tracks emitted by
/// [`ProfileReport::counter_tracks`] (wall-clock tracks are pid 1,
/// cycle tracks pid 2).
pub const PROFILE_PID: u32 = 3;

/// Number of entries in the ranked [`ProfileReport::top_self`] table.
pub const TOP_SELF_N: usize = 10;

// ------------------------------------------------------------- enable gate

/// Whether frame recording is on: `SUPERNPU_PROFILE` (any non-empty
/// value enables and names the output file) or [`set_profile`]. One
/// relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    switch::on(switch::PROFILE)
}

/// Programmatically enable profiling with `path` as the [`flush`]
/// target, or disable it with `None` (overrides the env var).
pub fn set_profile(path: Option<&str>) {
    switch::paths().profile = path.map(PathBuf::from);
    switch::set(switch::PROFILE, path.is_some());
}

/// The JSON file [`flush`] writes, if profiling is enabled.
pub fn path() -> Option<PathBuf> {
    switch::paths().profile.clone().filter(|_| enabled())
}

/// Whether high-cardinality frames (per-design-point sweep labels)
/// should be recorded. True only when profiling itself is enabled
/// *and* `SUPERNPU_PROFILE_DETAIL` (or [`set_detail`]) asks for it.
#[inline]
pub fn detail_enabled() -> bool {
    switch::on(switch::PROFILE | switch::PROFILE_DETAIL)
}

/// Programmatically force detail frames on or off.
pub fn set_detail(on: bool) {
    switch::set(switch::PROFILE_DETAIL, on);
}

// ----------------------------------------------------------- thread trees

/// One node of a thread's call-path tree. Self time is signed because
/// child time is subtracted as children close, before the parent adds
/// its own elapsed on exit.
#[derive(Debug)]
struct Node {
    parent: usize,
    name: String,
    children: BTreeMap<String, usize>,
    calls: u64,
    incl_ns: u64,
    self_ns: i64,
    counters: BTreeMap<String, u64>,
}

impl Node {
    fn new(parent: usize, name: String) -> Self {
        Node {
            parent,
            name,
            children: BTreeMap::new(),
            calls: 0,
            incl_ns: 0,
            self_ns: 0,
            counters: BTreeMap::new(),
        }
    }
}

/// Index of the synthetic per-thread root node (never exported).
const ROOT: usize = 0;

#[derive(Debug)]
struct ProfTree {
    nodes: Vec<Node>,
    stack: Vec<usize>,
}

impl ProfTree {
    fn new() -> Self {
        ProfTree {
            nodes: vec![Node::new(usize::MAX, String::new())],
            stack: Vec::new(),
        }
    }

    fn top(&self) -> usize {
        self.stack.last().copied().unwrap_or(ROOT)
    }

    fn intern(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&idx) = self.nodes[parent].children.get(name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::new(parent, name.to_owned()));
        self.nodes[parent].children.insert(name.to_owned(), idx);
        idx
    }

    fn enter(&mut self, name: &str) {
        let parent = self.top();
        let idx = self.intern(parent, name);
        self.stack.push(idx);
    }

    fn exit(&mut self, elapsed_ns: u64) {
        // The stack can be empty if `clear` raced a live frame (tests);
        // drop the sample rather than corrupt an unrelated node.
        let Some(idx) = self.stack.pop() else { return };
        let node = &mut self.nodes[idx];
        node.calls += 1;
        node.incl_ns += elapsed_ns;
        node.self_ns += elapsed_ns as i64;
        let parent = node.parent;
        if parent != usize::MAX {
            self.nodes[parent].self_ns -= elapsed_ns as i64;
        }
    }

    fn record(&mut self, rel_path: &[&str], calls: u64, incl_ns: u64, self_ns: u64) {
        let mut idx = self.top();
        for name in rel_path {
            idx = self.intern(idx, name);
        }
        let leaf = &mut self.nodes[idx];
        leaf.calls += calls;
        leaf.incl_ns += incl_ns;
        leaf.self_ns += self_ns as i64;
        // Only a depth-1 record is a direct child of the open frame;
        // deeper paths are folded into inclusive/self figures the
        // caller already split, so the open frame was charged once via
        // the depth-1 ancestor.
        if rel_path.len() == 1 {
            let parent = self.nodes[idx].parent;
            if parent != usize::MAX {
                self.nodes[parent].self_ns -= incl_ns as i64;
            }
        }
    }

    fn count(&mut self, name: &str, n: u64) {
        let idx = self.top();
        *self.nodes[idx].counters.entry(name.to_owned()).or_insert(0) += n;
    }
}

struct ThreadProf {
    tree: Mutex<ProfTree>,
}

static PROFS: Mutex<Vec<Arc<ThreadProf>>> = Mutex::new(Vec::new());

thread_local! {
    static TREE: OnceLock<Arc<ThreadProf>> = const { OnceLock::new() };
}

fn with_tree<R>(f: impl FnOnce(&mut ProfTree) -> R) -> R {
    TREE.with(|cell| {
        let tp = cell.get_or_init(|| {
            let tp = Arc::new(ThreadProf {
                tree: Mutex::new(ProfTree::new()),
            });
            PROFS
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&tp));
            tp
        });
        let mut tree = tp.tree.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut tree)
    })
}

/// Number of per-thread trees registered so far. A thread only
/// registers on its first *enabled* frame, so this stays 0 while
/// profiling is off — the disabled-path test hangs on that.
pub fn threads_registered() -> usize {
    PROFS.lock().unwrap_or_else(|e| e.into_inner()).len()
}

// ------------------------------------------------------------- recording

/// Open a frame named `name` under the innermost open frame on this
/// thread (or at top level); [`crate::region`] calls this.
pub(crate) fn enter(name: &str) {
    with_tree(|t| t.enter(name));
}

/// Close this thread's innermost open frame after `elapsed_ns`.
pub(crate) fn exit(elapsed_ns: u64) {
    with_tree(|t| t.exit(elapsed_ns));
}

/// Merge a pre-aggregated sub-tree entry at `rel_path` (relative to
/// the innermost open frame), adding `calls`, `incl_ns` inclusive and
/// `self_ns` self nanoseconds. A depth-1 path charges the open frame's
/// self time with `incl_ns`, exactly as a child region would; deeper
/// paths only touch the named node, so a caller recording
/// `["newton"]` and then `["newton", "lu_solve"]` must have already
/// split `newton`'s self time. This is the hot-loop interface:
/// accumulate `(calls, ns)` in locals, merge once per run. No-op (one
/// relaxed load) when disabled.
#[inline]
pub fn record_path(rel_path: &[&str], calls: u64, incl_ns: u64, self_ns: u64) {
    if enabled() && !rel_path.is_empty() {
        with_tree(|t| t.record(rel_path, calls, incl_ns, self_ns));
    }
}

/// Merge a leaf entry: `calls` calls totalling `ns` nanoseconds, all
/// self time, as a direct child of the innermost open frame.
#[inline]
pub fn record_leaf(name: &str, calls: u64, ns: u64) {
    record_path(&[name], calls, ns, ns);
}

/// Add `n` to unit counter `name` on the innermost open frame (newton
/// iterations, cache hits, bytes…). No-op when disabled.
#[inline]
pub fn count(name: &str, n: u64) {
    if enabled() {
        with_tree(|t| t.count(name, n));
    }
}

// --------------------------------------------------------------- reports

/// One attached unit counter of a [`PathProfile`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfCounter {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Merged statistics of one unique call path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathProfile {
    /// `;`-joined frame names from the outermost frame to this one.
    pub path: String,
    /// Number of frames on the path (1 = top level).
    pub depth: u32,
    /// Times the leaf frame closed (or pre-aggregated call count).
    pub calls: u64,
    /// Inclusive milliseconds.
    pub incl_ms: f64,
    /// Self milliseconds (inclusive minus child frames, floored at 0).
    pub self_ms: f64,
    /// Attached unit counters, name-sorted.
    pub counters: Vec<ProfCounter>,
}

/// One row of the ranked top-N self-time table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopSelf {
    /// 1-based rank.
    pub rank: u32,
    /// Call path.
    pub path: String,
    /// Self milliseconds.
    pub self_ms: f64,
    /// Fraction of total self time across all paths.
    pub share: f64,
}

/// Deterministic cross-thread merge of every recorded call path — the
/// payload of `profile.json`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Snapshot schema version ([`crate::SCHEMA_VERSION`]; 0 =
    /// pre-versioned).
    pub schema_version: u32,
    /// Threads that recorded at least one frame.
    pub threads: u64,
    /// Σ self milliseconds over all paths.
    pub total_self_ms: f64,
    /// All paths, sorted lexicographically (so parents precede
    /// children).
    pub paths: Vec<PathProfile>,
    /// The [`TOP_SELF_N`] paths with the largest self time.
    pub top_self: Vec<TopSelf>,
}

impl ProfileReport {
    /// The row for an exact path, if recorded.
    pub fn path(&self, path: &str) -> Option<&PathProfile> {
        self.paths.iter().find(|p| p.path == path)
    }

    /// Σ self milliseconds over the strict descendants of `path` —
    /// with exact accounting this equals the path's inclusive minus
    /// self time, so `descendants_self_ms / incl_ms` is the profiled
    /// coverage the bench gate enforces.
    pub fn descendants_self_ms(&self, path: &str) -> f64 {
        let prefix = format!("{path};");
        self.paths
            .iter()
            .filter(|p| p.path.starts_with(&prefix))
            .map(|p| p.self_ms)
            .sum()
    }

    /// Render collapsed-stack text: one `path weight` line per path,
    /// weight in integer self-microseconds — the input format of
    /// `flamegraph.pl` and `inferno-flamegraph`.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let weight = (p.self_ms * 1e3).round().max(0.0) as u64;
            out.push_str(&p.path);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }

    /// Append one Perfetto counter track per [`TopSelf`] entry to `ct`
    /// (pid [`PROFILE_PID`], one sample at ts 0 holding the self
    /// milliseconds), reusing the deterministic [`ChromeTrace`]
    /// plumbing so a profile can ride along inside a trace file.
    pub fn counter_tracks(&self, ct: &mut ChromeTrace) {
        ct.name_process(PROFILE_PID, "supernpu profile (self ms)");
        for t in &self.top_self {
            let tid = u64::from(t.rank);
            ct.name_track(PROFILE_PID, tid, &t.path);
            ct.add_counter(PROFILE_PID, tid, &t.path, 0.0, t.self_ms);
        }
    }

    /// Render the top-N table as fixed-width text for terminal output.
    pub fn render_top_table(&self) -> String {
        let mut out = format!("{:>4}  {:>12}  {:>6}  path\n", "rank", "self ms", "share");
        for t in &self.top_self {
            out.push_str(&format!(
                "{:>4}  {:>12.3}  {:>5.1}%  {}\n",
                t.rank,
                t.self_ms,
                t.share * 100.0,
                t.path
            ));
        }
        out
    }
}

#[derive(Default)]
struct MergedPath {
    depth: u32,
    calls: u64,
    incl_ns: u64,
    self_ns: i64,
    counters: BTreeMap<String, u64>,
}

/// Merge every thread's call-path tree into one [`ProfileReport`].
/// Identical paths from different threads sum; ordering is
/// lexicographic on the `;`-joined path, so two snapshots of identical
/// state compare equal regardless of thread registration order.
pub fn snapshot() -> ProfileReport {
    let mut merged: BTreeMap<String, MergedPath> = BTreeMap::new();
    let mut threads = 0u64;
    {
        let list = PROFS.lock().unwrap_or_else(|e| e.into_inner());
        for tp in list.iter() {
            let tree = tp.tree.lock().unwrap_or_else(|e| e.into_inner());
            if tree.nodes.len() <= 1 {
                continue;
            }
            threads += 1;
            // DFS from the root, building each node's joined path.
            let mut pending: Vec<(usize, String, u32)> = tree.nodes[ROOT]
                .children
                .values()
                .map(|&idx| (idx, tree.nodes[idx].name.clone(), 1))
                .collect();
            while let Some((idx, path, depth)) = pending.pop() {
                let node = &tree.nodes[idx];
                let m = merged.entry(path.clone()).or_default();
                m.depth = depth;
                m.calls += node.calls;
                m.incl_ns += node.incl_ns;
                m.self_ns += node.self_ns;
                for (k, v) in &node.counters {
                    *m.counters.entry(k.clone()).or_insert(0) += v;
                }
                for &child in node.children.values() {
                    let name = &tree.nodes[child].name;
                    pending.push((child, format!("{path};{name}"), depth + 1));
                }
            }
        }
    }
    let mut report = ProfileReport {
        schema_version: crate::SCHEMA_VERSION,
        threads,
        ..ProfileReport::default()
    };
    for (path, m) in merged {
        #[allow(clippy::cast_precision_loss)]
        let self_ms = (m.self_ns.max(0) as f64) / 1e6;
        #[allow(clippy::cast_precision_loss)]
        let incl_ms = (m.incl_ns as f64) / 1e6;
        report.total_self_ms += self_ms;
        report.paths.push(PathProfile {
            path,
            depth: m.depth,
            calls: m.calls,
            incl_ms,
            self_ms,
            counters: m
                .counters
                .into_iter()
                .map(|(name, value)| ProfCounter { name, value })
                .collect(),
        });
    }
    let mut ranked: Vec<(f64, String)> = report
        .paths
        .iter()
        .map(|p| (p.self_ms, p.path.clone()))
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    report.top_self = ranked
        .into_iter()
        .take(TOP_SELF_N)
        .enumerate()
        .map(|(i, (self_ms, path))| TopSelf {
            #[allow(clippy::cast_possible_truncation)]
            rank: i as u32 + 1,
            path,
            self_ms,
            share: if report.total_self_ms > 0.0 {
                self_ms / report.total_self_ms
            } else {
                0.0
            },
        })
        .collect();
    report
}

/// Snapshot all threads and write the report JSON to the configured
/// [`path`], plus the collapsed stacks next to it with a `.folded`
/// extension. Safe to call repeatedly (frames keep accumulating; each
/// call rewrites both files). Returns the JSON path written, or `None`
/// when profiling is disabled.
///
/// # Errors
///
/// Propagates the filesystem error when a write fails.
pub fn flush() -> std::io::Result<Option<PathBuf>> {
    let Some(path) = path() else {
        return Ok(None);
    };
    let report = snapshot();
    let json = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| unreachable!("profile reports serialize infallibly: {e}"));
    std::fs::write(&path, json)?;
    std::fs::write(path.with_extension("folded"), report.to_folded())?;
    Ok(Some(path))
}

/// Discard every thread's recorded frames and open stacks (tests).
/// Trees stay registered; frames live across the clear record nothing
/// when they close.
pub fn clear() {
    let list = PROFS.lock().unwrap_or_else(|e| e.into_inner());
    for tp in list.iter() {
        let mut tree = tp.tree.lock().unwrap_or_else(|e| e.into_inner());
        *tree = ProfTree::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test body: the thread-tree registry and enable gate are
    /// process-global, so the pieces run in a fixed order. Frames open
    /// and close through `enter`/`exit` with synthetic durations, not
    /// through regions, so this test cannot race the other sinks'
    /// tests.
    #[test]
    fn prof_end_to_end() {
        // Disabled: helpers are no-ops and register nothing.
        set_profile(None);
        record_leaf("never", 1, 100);
        count("never", 1);
        assert_eq!(
            threads_registered(),
            0,
            "disabled profiling registers nothing"
        );
        assert!(snapshot().paths.is_empty());

        // Enabled: nested frames accumulate inclusive and self time.
        set_profile(Some("unused-profile.json"));
        assert!(enabled());
        enter("outer");
        enter("inner");
        exit(2_000_000);
        count("widgets", 5);
        count("widgets", 2);
        exit(4_000_000);
        let report = snapshot();
        let outer = report.path("outer").expect("outer recorded");
        let inner = report.path("outer;inner").expect("inner recorded");
        assert_eq!((outer.calls, outer.depth), (1, 1));
        assert_eq!((inner.calls, inner.depth), (1, 2));
        assert!(outer.incl_ms >= inner.incl_ms, "inclusive nests");
        assert!(
            outer.self_ms <= outer.incl_ms - inner.incl_ms + 1e-6,
            "self excludes the child: self {} incl {} child {}",
            outer.self_ms,
            outer.incl_ms,
            inner.incl_ms
        );
        assert_eq!(
            outer.counters,
            vec![ProfCounter {
                name: "widgets".into(),
                value: 7
            }]
        );
        assert!(
            (report.descendants_self_ms("outer") - inner.self_ms).abs() < 1e-9,
            "descendant self sums the subtree"
        );

        // Pre-aggregated merge: explicit incl/self splits, child
        // charged to the open frame exactly once.
        clear();
        enter("run");
        record_path(&["newton"], 10, 4_000_000, 1_000_000);
        record_path(&["newton", "lu_solve"], 10, 3_000_000, 3_000_000);
        exit(2_000_000);
        let report = snapshot();
        let newton = report.path("run;newton").expect("newton merged");
        assert_eq!(newton.calls, 10);
        assert!((newton.incl_ms - 4.0).abs() < 1e-9);
        assert!((newton.self_ms - 1.0).abs() < 1e-9);
        let solve = report.path("run;newton;lu_solve").expect("lu_solve merged");
        assert!((solve.self_ms - 3.0).abs() < 1e-9);
        // The synthetic 4 ms child exceeds the frame's 2 ms elapsed
        // time, so the open frame's self time floors at 0 — the
        // depth-1 record charged it exactly once.
        let run = report.path("run").expect("run recorded");
        assert_eq!(
            run.self_ms, 0.0,
            "depth-1 record charges the open frame once"
        );

        // Cross-thread merge sums identical paths deterministically.
        clear();
        let worker = std::thread::spawn(|| {
            enter("shared");
            record_leaf("k", 1, 500_000);
            exit(1_000_000);
        });
        worker.join().expect("worker");
        enter("shared");
        record_leaf("k", 2, 250_000);
        exit(1_000_000);
        let report = snapshot();
        assert!(report.threads >= 2, "both threads merged");
        let shared = report.path("shared").expect("shared recorded");
        assert_eq!(shared.calls, 2);
        let k = report.path("shared;k").expect("k merged");
        assert_eq!(k.calls, 3);
        assert!((k.self_ms - 0.75).abs() < 1e-9);

        // Folded export: one line per path, integer weights.
        let folded = report.to_folded();
        assert_eq!(folded.lines().count(), report.paths.len());
        for line in folded.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("path weight");
            assert!(!path.is_empty());
            weight.parse::<u64>().expect("integer weight");
        }
        assert!(folded.contains("shared;k 750"), "folded:\n{folded}");

        // Ranked table + Perfetto counter tracks.
        assert!(!report.top_self.is_empty());
        assert_eq!(report.top_self[0].rank, 1);
        let shares: f64 = report.top_self.iter().map(|t| t.share).sum();
        assert!(shares <= 1.0 + 1e-9);
        assert!(report.render_top_table().contains("shared"));
        let mut ct = ChromeTrace::new();
        report.counter_tracks(&mut ct);
        assert_eq!(ct.len(), report.top_self.len());
        assert!(ct.to_json().contains("supernpu profile"));

        // Snapshot JSON round-trips through the workspace serde.
        let json = serde_json::to_string_pretty(&report)
            .unwrap_or_else(|e| unreachable!("profile serializes: {e}"));
        let back: ProfileReport = serde_json::from_str(&json)
            .unwrap_or_else(|e| unreachable!("profile JSON round-trips: {e}"));
        assert_eq!(back, report);

        clear();
        set_profile(None);
    }
}
