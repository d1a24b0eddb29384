//! The one process-wide memo type the workspace's caches share.

use std::sync::{OnceLock, PoisonError, RwLock};

use crate::Counter;

/// A process-wide memo of `(key, value)` pairs: a short `Vec` behind a
/// read-write lock, scanned linearly, with always-on
/// `<name>.cache_hit` / `<name>.cache_miss` [`Counter`]s that record
/// whether or not `SUPERNPU_METRICS` is set.
///
/// The caller owns the computation: it asks [`get`](Self::get), runs
/// the computation itself on a miss (outside the lock, so a slow fill
/// never blocks readers) and [`insert`](Self::insert)s only a
/// complete, successful result, so an error or an incomplete sweep is
/// recomputed by the next call. Keys must be exact (bit patterns, not
/// rounded floats): equal keys mean identical computations, so a hit
/// can never change a result.
pub struct Memo<K, V> {
    /// Counter prefix, e.g. `jjsim.extract`.
    name: &'static str,
    /// Entry bound: an insert into a full memo empties it first.
    /// `None` for memos whose key space is small by construction.
    cap: Option<usize>,
    /// Locked with poison recovery: every update is one push or one
    /// clear, so the entries stay consistent even if a thread panicked
    /// while holding the lock (in a key comparison or a value clone).
    entries: RwLock<Vec<(K, V)>>,
    counters: OnceLock<(&'static Counter, &'static Counter)>,
}

impl<K: PartialEq, V: Clone> Memo<K, V> {
    /// An empty memo counting into `<name>.cache_hit` and
    /// `<name>.cache_miss`, holding at most `cap` entries.
    pub const fn new(name: &'static str, cap: Option<usize>) -> Self {
        Memo {
            name,
            cap,
            entries: RwLock::new(Vec::new()),
            counters: OnceLock::new(),
        }
    }

    fn counters(&self) -> (&'static Counter, &'static Counter) {
        *self.counters.get_or_init(|| {
            (
                crate::counter(&format!("{}.cache_hit", self.name)),
                crate::counter(&format!("{}.cache_miss", self.name)),
            )
        })
    }

    /// A clone of the value stored under `key`, counted as a hit, or
    /// `None`, counted as a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        let found = entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone());
        drop(entries);
        let (hits, misses) = self.counters();
        if found.is_some() {
            hits.inc();
        } else {
            misses.inc();
        }
        found
    }

    /// Store `value` under `key`. If two threads missed on the same key
    /// and both computed, the first value stored stays.
    pub fn insert(&self, key: K, value: V) {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        if self.cap.is_some_and(|cap| entries.len() >= cap) {
            entries.clear();
        }
        if !entries.iter().any(|(k, _)| *k == key) {
            entries.push((key, value));
        }
    }

    /// Drop every entry and reset both counters, so the next lookup of
    /// any key computes again.
    pub fn clear(&self) {
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        let (hits, misses) = self.counters();
        hits.reset();
        misses.reset();
    }
}
