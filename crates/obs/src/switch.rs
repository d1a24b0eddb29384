//! The one instrumentation switch: every sink's on/off state lives in
//! one flag word, and every output path in one mutex.
//!
//! The first query resolves all nine observability variables at once
//! ([`parse`], a pure function of a lookup closure); after that every
//! predicate is one relaxed load of [`FLAGS`] and a bit test. The
//! programmatic setters flip bits in the same word, and each reads
//! the environment first, so overriding one sink never hides another
//! sink's variable. `SUPERNPU_METRICS_JSON` is the one knob read
//! later, at flush time, so a process can point it elsewhere
//! mid-run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The variables the switch reads, plus the flush-time
/// `SUPERNPU_METRICS_JSON`. They change what a run records, never
/// what it computes; a name is also a prefix, so `SUPERNPU_TRACE`
/// covers every `SUPERNPU_TRACE*` knob.
pub const KNOBS: [&str; 10] = [
    "SUPERNPU_METRICS",
    "SUPERNPU_METRICS_JSON",
    "SUPERNPU_LOG",
    "SUPERNPU_PROFILE",
    "SUPERNPU_PROFILE_DETAIL",
    "SUPERNPU_TRACE",
    "SUPERNPU_TRACE_DETAIL",
    "SUPERNPU_TRACE_BUF",
    "SUPERNPU_PROGRESS",
    "SUPERNPU_LEDGER",
];

// One bit per sink; a detail bit only counts together with its sink's.
pub(crate) const METRICS: u32 = 1;
pub(crate) const PROFILE: u32 = 1 << 1;
pub(crate) const PROFILE_DETAIL: u32 = 1 << 2;
pub(crate) const TRACE: u32 = 1 << 3;
pub(crate) const TRACE_DETAIL: u32 = 1 << 4;
pub(crate) const PROGRESS: u32 = 1 << 5;
pub(crate) const LEDGER: u32 = 1 << 6;
/// The sinks a region feeds.
pub(crate) const REGION_SINKS: u32 = METRICS | PROFILE | TRACE;
/// Log threshold in three bits: 0 = off, else `Level as u32`.
const LOG_SHIFT: u32 = 8;
const LOG_MASK: u32 = 0b111 << LOG_SHIFT;
/// Set once the environment has been read.
const READ: u32 = 1 << 31;

/// Relaxed throughout: the word publishes only its own bits (the
/// paths are read under their mutex).
static FLAGS: AtomicU32 = AtomicU32::new(0);

/// Output files of the profile and trace sinks, and the ledger's
/// manifest directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Paths {
    pub profile: Option<PathBuf>,
    pub trace: Option<PathBuf>,
    pub ledger: Option<PathBuf>,
}

static PATHS: Mutex<Paths> = Mutex::new(Paths {
    profile: None,
    trace: None,
    ledger: None,
});

/// The locked output paths (reading the environment first).
pub(crate) fn paths() -> MutexGuard<'static, Paths> {
    flags();
    PATHS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The flag word, resolving the environment on first use.
#[inline]
pub(crate) fn flags() -> u32 {
    let f = FLAGS.load(Ordering::Relaxed);
    if f & READ != 0 {
        f
    } else {
        init()
    }
}

/// Whether every bit of `bits` is on.
#[inline]
pub(crate) fn on(bits: u32) -> bool {
    flags() & bits == bits
}

/// Turn `bit` on or off.
pub(crate) fn set(bit: u32, on: bool) {
    flags();
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// The log threshold (`Level as u32`, 0 = off).
#[inline]
pub(crate) fn log_level() -> u32 {
    (flags() & LOG_MASK) >> LOG_SHIFT
}

/// Set the log threshold (`Level as u32`, 0 = off).
pub(crate) fn set_log_level(level: u32) {
    flags();
    let _ = FLAGS.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |f| {
        Some((f & !LOG_MASK) | (level << LOG_SHIFT))
    });
}

#[cold]
fn init() -> u32 {
    // The path lock serializes racing first reads; the loser finds
    // the word already resolved.
    let mut paths = PATHS.lock().unwrap_or_else(PoisonError::into_inner);
    let f = FLAGS.load(Ordering::Relaxed);
    if f & READ != 0 {
        return f;
    }
    let (flags, resolved, ring) = parse(|name| std::env::var(name).ok());
    *paths = resolved;
    crate::trace::RING_CAPACITY.store(ring, Ordering::Relaxed);
    FLAGS.store(flags | READ, Ordering::Relaxed);
    flags | READ
}

/// Whether an on/off knob's value means on: anything but empty, `0`,
/// `false` or `off` (case-insensitive, surrounding space ignored).
fn truthy(v: &str) -> bool {
    let v = v.trim();
    !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false") || v.eq_ignore_ascii_case("off"))
}

/// Resolve the observability variables through `get` (the process
/// environment in [`init`], a table in the tests) into the flag bits
/// (without the read bit), the sink paths and the per-thread trace
/// ring capacity.
pub(crate) fn parse(get: impl Fn(&str) -> Option<String>) -> (u32, Paths, usize) {
    let on = |name: &str| get(name).is_some_and(|v| truthy(&v));
    // A non-empty value turns the sink on and names its file.
    let file = |name: &str| {
        get(name)
            .filter(|p| !p.trim().is_empty())
            .map(PathBuf::from)
    };
    // Unset keeps the ledger on in its default directory; a falsy
    // value turns it off; anything else names the directory.
    let ledger = match get("SUPERNPU_LEDGER") {
        None => Some(PathBuf::from(crate::ledger::DEFAULT_DIR)),
        Some(v) if !truthy(&v) => None,
        Some(v) => Some(PathBuf::from(v.trim())),
    };
    let paths = Paths {
        profile: file("SUPERNPU_PROFILE"),
        trace: file("SUPERNPU_TRACE"),
        ledger,
    };
    let log = match get("SUPERNPU_LOG")
        .map(|v| v.trim().to_ascii_lowercase())
        .as_deref()
    {
        Some("error") => 1,
        Some("warn" | "warning") => 2,
        Some("info" | "1" | "on" | "true") => 3,
        Some("debug") => 4,
        Some("trace") => 5,
        _ => 0,
    };
    let mut flags = log << LOG_SHIFT;
    for (set, bit) in [
        (on("SUPERNPU_METRICS"), METRICS),
        (paths.profile.is_some(), PROFILE),
        (on("SUPERNPU_PROFILE_DETAIL"), PROFILE_DETAIL),
        (paths.trace.is_some(), TRACE),
        (on("SUPERNPU_TRACE_DETAIL"), TRACE_DETAIL),
        (on("SUPERNPU_PROGRESS"), PROGRESS),
        (paths.ledger.is_some(), LEDGER),
    ] {
        if set {
            flags |= bit;
        }
    }
    let ring = get("SUPERNPU_TRACE_BUF")
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(crate::trace::DEFAULT_RING_CAPACITY);
    (flags, paths, ring)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// `parse` over a fixed environment; also checks that it asks for
    /// no variable outside [`KNOBS`].
    fn parse_env(env: &[(&str, &str)]) -> (u32, Paths, usize) {
        let asked = RefCell::new(Vec::new());
        let out = parse(|name| {
            asked.borrow_mut().push(name.to_owned());
            env.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_owned())
        });
        for name in asked.into_inner() {
            assert!(KNOBS.contains(&name.as_str()), "{name} is not in KNOBS");
        }
        out
    }

    #[test]
    fn parse_reads_every_knob_under_its_rules() {
        let unset = parse_env(&[]);
        let (flags, paths, ring) = unset.clone();
        assert_eq!(flags, LEDGER, "only the ledger is on by default");
        assert_eq!(paths.ledger, Some(PathBuf::from("results/ledger")));
        assert_eq!((paths.profile, paths.trace), (None, None));
        assert_eq!(ring, crate::trace::DEFAULT_RING_CAPACITY);

        // On/off knobs: only empty, 0, false and off (any case, any
        // surrounding space) mean off.
        for (value, on) in [
            ("", false),
            ("0", false),
            ("false", false),
            ("OFF", false),
            (" 1 ", true),
            ("yes", true),
        ] {
            for (name, bit) in [
                ("SUPERNPU_METRICS", METRICS),
                ("SUPERNPU_PROFILE_DETAIL", PROFILE_DETAIL),
                ("SUPERNPU_TRACE_DETAIL", TRACE_DETAIL),
                ("SUPERNPU_PROGRESS", PROGRESS),
            ] {
                let (flags, _, _) = parse_env(&[(name, value)]);
                assert_eq!(flags & bit != 0, on, "{name}={value:?}");
            }
        }

        // Log levels, case-insensitive; an unknown word is off.
        for (value, level) in [
            ("error", 1),
            ("warn", 2),
            ("warning", 2),
            ("info", 3),
            ("1", 3),
            ("on", 3),
            ("true", 3),
            (" DEBUG ", 4),
            ("trace", 5),
            ("loud", 0),
        ] {
            let (flags, _, _) = parse_env(&[("SUPERNPU_LOG", value)]);
            assert_eq!(
                (flags & LOG_MASK) >> LOG_SHIFT,
                level,
                "SUPERNPU_LOG={value:?}"
            );
        }

        // Profile and trace files: empty means off, a path turns the
        // sink on and is kept as given.
        for (name, bit) in [("SUPERNPU_PROFILE", PROFILE), ("SUPERNPU_TRACE", TRACE)] {
            assert_eq!(parse_env(&[(name, "")]), unset, "{name} empty");
            assert_eq!(parse_env(&[(name, "  ")]), unset, "{name} blank");
            let (flags, paths, _) = parse_env(&[(name, "out/p.json")]);
            assert_ne!(flags & bit, 0, "{name} set");
            let got = if bit == PROFILE {
                paths.profile
            } else {
                paths.trace
            };
            assert_eq!(got, Some(PathBuf::from("out/p.json")));
        }

        // The ledger: unset is on in the default directory (above), a
        // falsy value is off, anything else names the directory.
        let (flags, paths, _) = parse_env(&[("SUPERNPU_LEDGER", "0")]);
        assert_eq!((flags & LEDGER, paths.ledger), (0, None));
        let (flags, paths, _) = parse_env(&[("SUPERNPU_LEDGER", " /tmp/led ")]);
        assert_eq!(
            (flags & LEDGER, paths.ledger),
            (LEDGER, Some(PathBuf::from("/tmp/led")))
        );

        // Trace ring capacity: 0 or garbage falls back to the default.
        for (value, ring) in [("128", 128), ("0", 65_536), ("lots", 65_536), ("", 65_536)] {
            let (_, _, got) = parse_env(&[("SUPERNPU_TRACE_BUF", value)]);
            assert_eq!(got, ring, "SUPERNPU_TRACE_BUF={value:?}");
        }
    }
}
