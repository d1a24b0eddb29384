//! Output checking: stable digests of every simulated statistic, the
//! golden records kept beside the benchmark, and item accounting.

use std::fmt::Debug;
use std::path::Path;

use serde::{Deserialize, Serialize, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// FNV-1a digest of a value's `Debug` text.
pub fn digest_debug(x: &dyn Debug) -> String {
    hex(fnv(FNV_OFFSET, format!("{x:?}").as_bytes()))
}

/// FNV-1a digest of serialized values, hashing floats by their bits
/// (no float formatting in the way).
pub fn digest_values(values: &[Value]) -> String {
    fn walk(h: u64, v: &Value) -> u64 {
        match v {
            Value::Null => fnv(h, b"n"),
            Value::Bool(b) => fnv(h, &[b'b', u8::from(*b)]),
            Value::I64(i) => fnv(fnv(h, b"i"), &i.to_le_bytes()),
            Value::U64(u) => fnv(fnv(h, b"u"), &u.to_le_bytes()),
            Value::F64(f) => fnv(fnv(h, b"f"), &f.to_bits().to_le_bytes()),
            Value::Str(s) => fnv(
                fnv(fnv(h, b"s"), &(s.len() as u64).to_le_bytes()),
                s.as_bytes(),
            ),
            Value::Array(a) => a.iter().fold(fnv(h, b"["), walk),
            Value::Object(o) => o.iter().fold(fnv(h, b"{"), |h, (k, v)| {
                walk(fnv(fnv(h, b"k"), k.as_bytes()), v)
            }),
        }
    }
    hex(values.iter().fold(FNV_OFFSET, walk))
}

/// One checked unit of a pass's output.
///
/// `exact` is the full record when the pass exposes it (a digest, or a
/// per-sample outcome string); `summary` is what every run of the
/// workload exposes (the digest again, or an outcome tally). Two
/// records agree on `exact` when both have it, else on `summary`.
/// `errored` counts the unit's items that panicked or errored inside
/// the program without failing the whole unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub exact: Option<String>,
    pub summary: String,
    pub errored: u64,
}

impl Record {
    /// A record that is fully described by its digest.
    pub fn digest(d: String) -> Self {
        Record {
            summary: d.clone(),
            exact: Some(d),
            errored: 0,
        }
    }

    pub fn agrees(&self, other: &Record) -> bool {
        match (&self.exact, &other.exact) {
            (Some(a), Some(b)) => a == b,
            _ => self.summary == other.summary,
        }
    }
}

/// A pass's records; `None` marks a unit that panicked or errored.
pub type PassRecords = Vec<Option<Record>>;

/// Golden records of one workload: the exact record strings of its
/// first passes at `seed`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Golden {
    pub workload: String,
    pub seed: u64,
    pub passes: Vec<Vec<String>>,
}

impl Golden {
    /// Load from `path`.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Write to `path`, one pass per line.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut text = format!(
            "{{\n\"workload\": \"{}\",\n\"seed\": {},\n\"passes\": [\n",
            self.workload, self.seed
        );
        for (i, p) in self.passes.iter().enumerate() {
            let line = serde_json::to_string(p).map_err(|e| e.to_string())?;
            text.push_str(&line);
            text.push_str(if i + 1 < self.passes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        text.push_str("]\n}\n");
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Items attempted and failed so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Failure marks for one pass's record units, so an item is counted
/// failed at most once however many checks catch it.
pub struct Marks {
    items: Vec<u64>,
    errored: Vec<u64>,
    bad: Vec<bool>,
}

impl Marks {
    /// Marks for a pass with record units of `units` items each; a
    /// missing record (`None`) marks its unit bad.
    pub fn new(recs: Option<&PassRecords>, units: &[u64]) -> Self {
        let rec = |i: usize| recs.and_then(|r| r.get(i)).and_then(Option::as_ref);
        Marks {
            items: units.to_vec(),
            errored: (0..units.len())
                .map(|i| rec(i).map_or(0, |r| r.errored))
                .collect(),
            bad: (0..units.len()).map(|i| rec(i).is_none()).collect(),
        }
    }

    /// Mark every unit bad (there is nothing to check it against).
    pub fn fail_all(&mut self) {
        self.bad.iter_mut().for_each(|b| *b = true);
    }

    /// Mark every unit of `recs` that disagrees with `reference`.
    pub fn compare(&mut self, recs: &PassRecords, reference: &PassRecords) {
        for (i, r) in recs.iter().enumerate() {
            let same = match (r, reference.get(i)) {
                (Some(a), Some(Some(b))) => a.agrees(b),
                _ => false,
            };
            if !same {
                self.bad[i] = true;
            }
        }
    }

    /// Failed items per unit.
    fn failed(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let units = self.items.iter().zip(&self.errored).zip(&self.bad);
        units
            .map(|((&items, &errored), &bad)| (items, if bad { items } else { errored.min(items) }))
    }

    /// Count every item of a compared pass.
    pub fn add_to(&self, t: &mut Tally) {
        for (items, failed) in self.failed() {
            t.attempted += items;
            t.failed += failed;
        }
    }

    /// Count only the failed items of a pass no check compared: they
    /// panicked or errored, which needs no reference to see.
    pub fn add_failures_to(&self, t: &mut Tally) {
        for (_, failed) in self.failed() {
            t.attempted += failed;
            t.failed += failed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_compared_passes_count_every_item() {
        let ok = Record::digest("a".into());
        let errored = Record {
            errored: 2,
            ..ok.clone()
        };
        // Units of 5 items: one fine, one with 2 errored items, one lost.
        let recs: PassRecords = vec![Some(ok.clone()), Some(errored), None];
        let marks = Marks::new(Some(&recs), &[5, 5, 5]);

        let mut unchecked = Tally::default();
        marks.add_failures_to(&mut unchecked);
        assert_eq!((unchecked.attempted, unchecked.failed), (7, 7));

        let mut checked = Tally::default();
        marks.add_to(&mut checked);
        assert_eq!((checked.attempted, checked.failed), (15, 7));

        let mut m = Marks::new(Some(&recs), &[5, 5, 5]);
        m.compare(&recs, &vec![Some(Record::digest("b".into())); 3]);
        let mut mismatched = Tally::default();
        m.add_to(&mut mismatched);
        assert_eq!((mismatched.attempted, mismatched.failed), (15, 15));
    }
}
