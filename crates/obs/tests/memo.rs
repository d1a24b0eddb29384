//! `sfq_obs::Memo`: hit/miss counting, first insert wins, the entry
//! cap, `clear`, and poison recovery. Each test uses its own counter
//! names, and this binary resets no registry state, so the tests can
//! run in parallel.

use sfq_obs::Memo;

fn counts(name: &str) -> (u64, u64) {
    (
        sfq_obs::counter(&format!("{name}.cache_hit")).get(),
        sfq_obs::counter(&format!("{name}.cache_miss")).get(),
    )
}

#[test]
fn counts_hits_and_misses_and_clear_resets_them() {
    static M: Memo<u64, &str> = Memo::<u64, &str>::new("test.memo", None);
    assert_eq!(M.get(&1), None);
    M.insert(1, "one");
    M.insert(1, "uno");
    assert_eq!(M.get(&1), Some("one"), "the first value stored stays");
    assert_eq!(counts("test.memo"), (1, 1));
    M.clear();
    assert_eq!(counts("test.memo"), (0, 0), "clear resets the counters");
    assert_eq!(M.get(&1), None, "clear drops every entry");
    assert_eq!(counts("test.memo"), (0, 1));
}

#[test]
fn a_full_memo_empties_before_the_next_insert() {
    let m = Memo::<u64, u64>::new("test.capped_memo", Some(2));
    m.insert(1, 10);
    m.insert(2, 20);
    assert_eq!((m.get(&1), m.get(&2)), (Some(10), Some(20)));
    m.insert(3, 30);
    assert_eq!((m.get(&1), m.get(&2), m.get(&3)), (None, None, Some(30)));
}

/// A key whose comparison with `Key(POISON)` panics, so an insert of
/// that key panics while it holds the write lock.
#[derive(Debug)]
struct Key(u64);

const POISON: u64 = u64::MAX;

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        assert!(other.0 != POISON, "key comparison panicked");
        self.0 == other.0
    }
}

#[test]
fn a_panic_under_the_lock_leaves_the_memo_serving() {
    let m = Memo::<Key, u64>::new("test.poisoned_memo", None);
    m.insert(Key(1), 10);
    let poisoned = std::panic::catch_unwind(|| m.insert(Key(POISON), 0));
    assert!(poisoned.is_err(), "the insert must have panicked");
    assert_eq!(m.get(&Key(1)), Some(10));
    m.insert(Key(2), 20);
    assert_eq!(m.get(&Key(2)), Some(20));
    m.clear();
    assert_eq!(m.get(&Key(1)), None);
}
