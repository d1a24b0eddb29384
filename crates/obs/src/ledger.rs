//! Run-ledger provenance: every run self-describing.
//!
//! Each bench/figure bin records a [`RunManifest`] — schema version,
//! bin name and args, every `SUPERNPU_*` knob in effect, thread/lane/
//! chunk config, seeds, cargo profile and target, wall-clock duration,
//! terminal outcome, cache hit/miss totals, and the relative path of
//! every artifact the run wrote. The manifest lands atomically as
//! `results/ledger/<bin>-<seq>.json` plus one compact line appended to
//! `results/ledger/ledger.jsonl`, the index the `supernpu_report`
//! observatory aggregates across runs.
//!
//! Gating mirrors the metrics/trace/profile knobs: `SUPERNPU_LEDGER`
//! unset keeps the ledger **on** with the default directory (a run
//! must self-describe without any env setup); `0`/`false`/`off`
//! disables it (the disabled fast path is a single relaxed atomic
//! load, so outputs are bit-identical to a build without the ledger);
//! any other value overrides the ledger directory.
//!
//! Ledger I/O failures are *visible but never fatal*: they bump the
//! always-on `obs.ledger.write_errors` counter and print to stderr —
//! a full disk must not take down the sweep it was auditing.
//!
//! [`atomic_write`] is the workspace's one temp+fsync+rename writer:
//! `sfq_guard::checkpoint::atomic_write` calls it and maps the error.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::switch;

/// Default ledger directory, relative to the working directory of the
/// run (the same convention the trace/metrics sinks use).
pub const DEFAULT_DIR: &str = "results/ledger";

// ------------------------------------------------------------- enable gate

/// Whether ledger recording is on: `SUPERNPU_LEDGER` unset → on with
/// [`DEFAULT_DIR`]; empty/`0`/`false`/`off` → off; anything else → on
/// with that value as the directory; or [`set_dir`]. One relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    switch::on(switch::LEDGER)
}

/// Programmatically point the ledger at `dir` (`Some`) or disable it
/// (`None`), overriding the env var. Tests use this to isolate their
/// ledger directories.
pub fn set_dir(dir: Option<&Path>) {
    switch::paths().ledger = dir.map(Path::to_path_buf);
    switch::set(switch::LEDGER, dir.is_some());
}

/// The directory manifests land in, if the ledger is enabled.
#[must_use]
pub fn dir() -> Option<PathBuf> {
    switch::paths().ledger.clone().filter(|_| enabled())
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------- manifest

/// One `SUPERNPU_*` environment knob captured at flush time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnobSetting {
    /// Variable name, e.g. `SUPERNPU_THREADS`.
    pub name: String,
    /// Raw value as the process saw it.
    pub value: String,
}

/// Terminal outcome of a run, most severe wins when several apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// Clean exit.
    Ok,
    /// A bench/regression gate failed (any `fail()`/`die` exit).
    GateFail,
    /// The run panicked (resolved automatically at flush time).
    Panicked,
    /// A deadline/step budget cancelled part of the work.
    BudgetExceeded,
}

impl RunOutcome {
    /// Severity rank: a later outcome only replaces an earlier one if
    /// it is more severe, so `Panicked` survives a subsequent
    /// `GateFail` report.
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            RunOutcome::Ok => 0,
            RunOutcome::BudgetExceeded => 1,
            RunOutcome::GateFail => 2,
            RunOutcome::Panicked => 3,
        }
    }
}

/// Everything needed to reproduce and audit one bench/figure run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest schema version ([`crate::SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Binary name as passed to [`begin`].
    pub bin: String,
    /// Sequence number within this ledger directory (1-based).
    pub seq: u64,
    /// Command-line arguments after the binary name.
    pub args: Vec<String>,
    /// Every `SUPERNPU_*` env var in effect, name-sorted.
    pub env: Vec<KnobSetting>,
    /// Worker thread count in effect.
    pub threads: u64,
    /// Explicit chunk size (0 = auto granularity).
    pub chunk: u64,
    /// SIMD lane width in effect.
    pub lanes: u64,
    /// Seeds the run used (env-derived plus [`record_seed`]).
    pub seeds: Vec<u64>,
    /// Cargo profile the binary was built under.
    pub cargo_profile: String,
    /// `<arch>-<os>` of the host.
    pub target: String,
    /// Wall-clock duration from [`begin`] to the final flush.
    pub duration_ms: f64,
    /// Terminal outcome.
    pub outcome: RunOutcome,
    /// Sum of all `*.cache_hit` counters at flush.
    pub cache_hits: u64,
    /// Sum of all `*.cache_miss` counters at flush.
    pub cache_misses: u64,
    /// Relative paths of every artifact the run wrote.
    pub artifacts: Vec<String>,
}

// ------------------------------------------------------------- run state

struct RunState {
    bin: String,
    args: Vec<String>,
    started: Instant,
    threads: Option<u64>,
    chunk: Option<u64>,
    lanes: Option<u64>,
    seeds: Vec<u64>,
    artifacts: Vec<String>,
    outcome: RunOutcome,
    seq: Option<u64>,
    jsonl_done: bool,
}

static RUN: Mutex<Option<RunState>> = Mutex::new(None);

/// Open a run record for `bin`. Called once at the top of every
/// bench/figure bin (via `bench::session::begin`); a second call
/// replaces the record. No-op when the ledger is disabled.
pub fn begin(bin: &str) {
    if !enabled() {
        return;
    }
    let mut state = lock_ignore_poison(&RUN);
    *state = Some(RunState {
        bin: bin.to_owned(),
        args: std::env::args().skip(1).collect(),
        started: Instant::now(),
        threads: None,
        chunk: None,
        lanes: None,
        seeds: Vec::new(),
        artifacts: Vec::new(),
        outcome: RunOutcome::Ok,
        seq: None,
        jsonl_done: false,
    });
}

/// Record the resolved thread/chunk/lane configuration. The session
/// wrapper feeds this from `sfq_par` so the manifest reflects the
/// values actually in effect, not just the raw env strings.
pub fn set_config(threads: u64, chunk: u64, lanes: u64) {
    if !enabled() {
        return;
    }
    if let Some(st) = lock_ignore_poison(&RUN).as_mut() {
        st.threads = Some(threads);
        st.chunk = Some(chunk);
        st.lanes = Some(lanes);
    }
}

/// Record a seed the run used (deduplicated, order-preserving).
pub fn record_seed(seed: u64) {
    if !enabled() {
        return;
    }
    if let Some(st) = lock_ignore_poison(&RUN).as_mut() {
        if !st.seeds.contains(&seed) {
            st.seeds.push(seed);
        }
    }
}

/// Record an artifact path the run wrote (stored relative to the
/// current directory when possible, deduplicated).
pub fn record_artifact(path: &Path) {
    if !enabled() {
        return;
    }
    let rel = std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(&cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf());
    let rel = rel.display().to_string();
    if let Some(st) = lock_ignore_poison(&RUN).as_mut() {
        if !st.artifacts.contains(&rel) {
            st.artifacts.push(rel);
        }
    }
}

/// Report a terminal outcome. Only escalates: a less severe outcome
/// never overwrites a more severe one already recorded.
pub fn set_outcome(outcome: RunOutcome) {
    if !enabled() {
        return;
    }
    if let Some(st) = lock_ignore_poison(&RUN).as_mut() {
        if outcome.rank() > st.outcome.rank() {
            st.outcome = outcome;
        }
    }
}

/// Shorthand for [`set_outcome`]`(RunOutcome::BudgetExceeded)` — the
/// resilient sweep runner calls this when a deadline or step budget
/// cancelled points.
pub fn note_budget_exceeded() {
    set_outcome(RunOutcome::BudgetExceeded);
}

// ------------------------------------------------------------------ flush

/// Flush the open run record (if any) to `<dir>/<bin>-<seq>.json` and
/// append its compact form to `<dir>/ledger.jsonl`. Safe to call more
/// than once — the panic hook and the exit guard both flush; the
/// second call rewrites the same manifest (same `seq`) and skips the
/// already-appended jsonl line. Failures bump
/// `obs.ledger.write_errors` and print to stderr, never propagate.
pub fn flush() {
    if !enabled() {
        return;
    }
    let Some(dir) = dir() else { return };
    let mut state = lock_ignore_poison(&RUN);
    let Some(st) = state.as_mut() else { return };
    if std::thread::panicking() && RunOutcome::Panicked.rank() > st.outcome.rank() {
        st.outcome = RunOutcome::Panicked;
    }
    let seq = match st.seq {
        Some(s) => s,
        None => {
            let s = next_seq(&dir, &st.bin);
            st.seq = Some(s);
            s
        }
    };
    let manifest = build_manifest(st, seq);
    let path = dir.join(format!("{}-{seq:04}.json", st.bin));
    let (pretty, line) = match (
        serde_json::to_string_pretty(&manifest),
        serde_json::to_string(&manifest),
    ) {
        (Ok(p), Ok(l)) => (p, l),
        (Err(e), _) | (_, Err(e)) => {
            note_write_error("manifest serialize", &path, &e.to_string());
            return;
        }
    };
    if let Err(e) = atomic_write(&path, pretty.as_bytes()) {
        note_write_error("manifest write", &path, &e.to_string());
        return;
    }
    if !st.jsonl_done {
        match append_jsonl(&dir, &line) {
            Ok(()) => st.jsonl_done = true,
            Err(e) => {
                note_write_error("jsonl append", &dir.join("ledger.jsonl"), &e.to_string());
            }
        }
    }
}

fn note_write_error(what: &str, path: &Path, e: &str) {
    crate::counter("obs.ledger.write_errors").inc();
    eprintln!("ledger: {what} failed at {}: {e}", path.display());
}

fn build_manifest(st: &RunState, seq: u64) -> RunManifest {
    let mut env: Vec<KnobSetting> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SUPERNPU_"))
        .map(|(name, value)| KnobSetting { name, value })
        .collect();
    env.sort_by(|a, b| a.name.cmp(&b.name));
    let mut seeds = st.seeds.clone();
    for var in ["SUPERNPU_FAULT_SEED", "SUPERNPU_CHAOS"] {
        if let Some(s) = env_u64(var) {
            if !seeds.contains(&s) {
                seeds.push(s);
            }
        }
    }
    let snap = crate::snapshot();
    let sum_suffix = |suffix: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|c| c.name.ends_with(suffix))
            .map(|c| c.value)
            .sum()
    };
    RunManifest {
        schema_version: crate::SCHEMA_VERSION,
        bin: st.bin.clone(),
        seq,
        args: st.args.clone(),
        env,
        threads: st.threads.unwrap_or_else(default_threads),
        chunk: st.chunk.or_else(|| env_u64("SUPERNPU_CHUNK")).unwrap_or(0),
        lanes: st.lanes.or_else(|| env_u64("SUPERNPU_LANES")).unwrap_or(4),
        seeds,
        cargo_profile: if cfg!(debug_assertions) {
            "debug".to_owned()
        } else {
            "release".to_owned()
        },
        target: format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS),
        duration_ms: st.started.elapsed().as_secs_f64() * 1e3,
        outcome: st.outcome,
        cache_hits: sum_suffix(".cache_hit"),
        cache_misses: sum_suffix(".cache_miss"),
        artifacts: st.artifacts.clone(),
    }
}

fn env_u64(var: &str) -> Option<u64> {
    std::env::var(var).ok().and_then(|v| v.trim().parse().ok())
}

/// Env-mirrored fallback for the thread count when the session never
/// called [`set_config`] (matches `sfq_par`'s resolution order; that
/// crate depends on this one, so it cannot be asked directly).
fn default_threads() -> u64 {
    env_u64("SUPERNPU_THREADS")
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
}

/// Next free sequence number for `bin` in `dir`: one past the largest
/// existing `<bin>-<n>.json`, starting at 1 on a fresh directory.
#[must_use]
pub fn next_seq(dir: &Path, bin: &str) -> u64 {
    let prefix = format!("{bin}-");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 1;
    };
    let mut max = 0u64;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let Some(num) = rest.strip_suffix(".json") else {
            continue;
        };
        if let Ok(n) = num.parse::<u64>() {
            max = max.max(n);
        }
    }
    max + 1
}

// --------------------------------------------------------- atomic writer

/// The temporary sibling [`atomic_write`] stages into: `<path>.tmp`.
/// Exposed so torn-write tests can name it.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("manifest"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replace `path` with `bytes`: temp file in the same
/// directory (rename is only atomic within a filesystem) → write →
/// fsync → rename, creating missing parents. A crash mid-write leaves
/// at worst a torn `.tmp` sibling; the destination is always the last
/// complete file.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = tmp_path(path);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable; best-effort (some filesystems
    // reject directory fsync, and the data is safe either way).
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Append one line to `<dir>/ledger.jsonl` with a single `O_APPEND`
/// write, so concurrent bins sharing a ledger directory interleave at
/// line granularity and the file stays valid JSONL. Exposed for the
/// concurrency test.
pub fn append_jsonl(dir: &Path, json_line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("ledger.jsonl"))?;
    let mut line = String::with_capacity(json_line.len() + 1);
    line.push_str(json_line);
    line.push('\n');
    f.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_ranks_are_strictly_ordered() {
        assert!(RunOutcome::Panicked.rank() > RunOutcome::GateFail.rank());
        assert!(RunOutcome::GateFail.rank() > RunOutcome::BudgetExceeded.rank());
        assert!(RunOutcome::BudgetExceeded.rank() > RunOutcome::Ok.rank());
    }

    #[test]
    fn seq_scan_ignores_foreign_files() {
        let dir = std::env::temp_dir().join(format!("sfq_ledger_seq_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_seq(&dir, "fig20"), 1);
        std::fs::write(dir.join("fig20-0003.json"), b"{}").unwrap();
        std::fs::write(dir.join("fig21-0009.json"), b"{}").unwrap();
        std::fs::write(dir.join("ledger.jsonl"), b"").unwrap();
        assert_eq!(next_seq(&dir, "fig20"), 4);
        assert_eq!(next_seq(&dir, "fig21"), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
