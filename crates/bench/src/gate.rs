//! Bench-regression gate. Every `BENCH_*.json` has one shape: a
//! `schema_version` ([`SCHEMA_VERSION`]) and a flat list of records
//! `{name, value, kind, tolerance, reason}`, and [`compare`] holds a
//! fresh report to a committed baseline with one loop over the
//! baseline's records.
//!
//! The record's [`Kind`] says how a fresh value is held to it:
//!
//! * `invariant` — the fresh value equals the baseline's. For
//!   deterministic counts: steps, pulses, yield tallies, point states.
//! * `timing` — fresh ≤ baseline × (1 + tolerance). The tolerance comes
//!   from the run-to-run spread measured on the recording host, and
//!   the reason says over how many runs. A tolerance that admits twice
//!   the baseline or more could barely fail, so the gate rejects it.
//! * `floor` — fresh ≥ the tolerance, a stated minimum (speed-ups,
//!   profile coverage, step ratio). A producer that cannot measure a
//!   floor on its host writes it with a `null` value and says why in
//!   its reason; the gate reports it as skipped.
//!
//! The baseline's kind and tolerance govern, and a baseline record
//! missing from the fresh report fails. Checks of one run against
//! itself (parallel output equal to serial, adaptive pulses equal to
//! fixed-step ones, a resumed sweep equal to an uninterrupted one) are
//! not records: the producers fail on them, and cargo tests make them.

use std::path::Path;

use serde::Value;

use crate::report::{to_json_pretty, write_report, ReportError};

/// The `schema_version` of every bench report.
pub const SCHEMA_VERSION: u64 = 2;

/// How a fresh value is held to its baseline; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fresh equals baseline.
    Invariant,
    /// Fresh ≤ baseline × (1 + tolerance), tolerance in [0, 1).
    Timing,
    /// Fresh ≥ tolerance.
    Floor,
}

impl Kind {
    const ALL: [(Kind, &'static str); 3] = [
        (Kind::Invariant, "invariant"),
        (Kind::Timing, "timing"),
        (Kind::Floor, "floor"),
    ];

    /// The kind's name in a report.
    #[must_use]
    pub fn label(self) -> &'static str {
        Kind::ALL
            .iter()
            .find(|(k, _)| *k == self)
            .map_or("", |(_, l)| l)
    }
}

/// One gated value of a bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Unique within its report, e.g. `jtl_chain_8.adaptive_steps`.
    pub name: String,
    /// The measured value; `None` for a floor its host cannot measure.
    pub value: Option<f64>,
    /// How a fresh value is held to this one.
    pub kind: Kind,
    /// 0 for an invariant, the relative slack of a timing, the minimum
    /// of a floor.
    pub tolerance: f64,
    /// Why the check and its tolerance are what they are.
    pub reason: String,
}

impl Record {
    /// A count that must not change.
    #[must_use]
    pub fn invariant(name: impl Into<String>, count: u64, reason: &str) -> Record {
        #[allow(clippy::cast_precision_loss)] // counts stay far below 2^53
        let value = Some(count as f64);
        Record {
            name: name.into(),
            value,
            kind: Kind::Invariant,
            tolerance: 0.0,
            reason: reason.to_owned(),
        }
    }

    /// A wall-clock time in milliseconds that may grow by `tolerance`.
    #[must_use]
    pub fn timing(name: impl Into<String>, ms: f64, tolerance: f64, reason: &str) -> Record {
        Record {
            name: name.into(),
            value: Some(ms),
            kind: Kind::Timing,
            tolerance,
            reason: reason.to_owned(),
        }
    }

    /// A value that must reach `minimum`; `None` when the host cannot
    /// measure it, with the reason saying why.
    #[must_use]
    pub fn floor(
        name: impl Into<String>,
        value: Option<f64>,
        minimum: f64,
        reason: impl Into<String>,
    ) -> Record {
        Record {
            name: name.into(),
            value,
            kind: Kind::Floor,
            tolerance: minimum,
            reason: reason.into(),
        }
    }

    /// How far a fresh value may move from this one, as a percentage
    /// of it: `0%` for an invariant, `+50%` for a timing, `-24.8%` for
    /// a floor 24.8 % under its value.
    #[must_use]
    pub fn allowed_change(&self) -> String {
        match (self.kind, self.value) {
            (Kind::Invariant, _) => "0%".to_owned(),
            (Kind::Timing, _) => format!("+{:.0}%", 100.0 * self.tolerance),
            (Kind::Floor, Some(v)) if v != 0.0 => {
                format!("{:+.1}%", 100.0 * (self.tolerance - v) / v)
            }
            (Kind::Floor, _) => "—".to_owned(),
        }
    }

    fn to_value(&self) -> Value {
        let value = match self.value {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(v) if self.kind == Kind::Invariant => Value::U64(v as u64),
            Some(v) => Value::F64(v),
            None => Value::Null,
        };
        Value::Object(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("value".into(), value),
            ("kind".into(), Value::Str(self.kind.label().into())),
            ("tolerance".into(), Value::F64(self.tolerance)),
            ("reason".into(), Value::Str(self.reason.clone())),
        ])
    }

    fn from_value(v: &Value) -> Result<Record, String> {
        let field = |key: &str| {
            v.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v)
                .ok_or_else(|| format!("record {v:?} lacks '{key}'"))
        };
        let text = |key: &str| {
            field(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("record field '{key}' is not a string"))
        };
        let name = text("name")?;
        let kind_label = text("kind")?;
        let kind = Kind::ALL
            .iter()
            .find(|(_, l)| *l == kind_label)
            .map(|(k, _)| *k)
            .ok_or_else(|| format!("'{name}': unknown kind '{kind_label}'"))?;
        let value = match field("value")? {
            Value::Null => None,
            v => Some(
                v.as_f64()
                    .ok_or_else(|| format!("'{name}': value is not a number"))?,
            ),
        };
        let tolerance = field("tolerance")?
            .as_f64()
            .ok_or_else(|| format!("'{name}': tolerance is not a number"))?;
        Ok(Record {
            name,
            value,
            kind,
            tolerance,
            reason: text("reason")?,
        })
    }
}

/// A bench report: `{"schema_version": 2, "records": [...]}`.
#[must_use]
pub fn to_json(records: &[Record]) -> Value {
    Value::Object(vec![
        ("schema_version".into(), Value::U64(SCHEMA_VERSION)),
        (
            "records".into(),
            Value::Array(records.iter().map(Record::to_value).collect()),
        ),
    ])
}

/// Write `records` as a bench report to `path`, atomically.
///
/// # Errors
///
/// Either [`ReportError`] variant.
pub fn write(path: impl AsRef<Path>, records: &[Record]) -> Result<(), ReportError> {
    let path = path.as_ref();
    let json = to_json_pretty(&path.display().to_string(), &to_json(records))?;
    write_report(path, &json)?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// The records of a parsed bench report.
///
/// # Errors
///
/// The report declares another `schema_version`, or a record is
/// malformed.
pub fn parse(report: &Value) -> Result<Vec<Record>, String> {
    let field = |key: &str| {
        report
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
    };
    let version = field("schema_version").and_then(Value::as_u64);
    if version != Some(SCHEMA_VERSION) {
        return Err(format!(
            "schema_version {version:?}, expected {SCHEMA_VERSION}: regenerate the report \
             with the current binaries"
        ));
    }
    field("records")
        .and_then(Value::as_array)
        .ok_or("report has no records list")?
        .iter()
        .map(Record::from_value)
        .collect()
}

/// Outcome of one gate run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateReport {
    /// Number of baseline records checked.
    pub checks: usize,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// One line per floor the fresh run could not measure, with its
    /// reason, so a pass on such a host reads as the weaker pass it is.
    pub skipped: Vec<String>,
}

impl GateReport {
    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Hold every baseline record to the fresh record of the same name.
#[must_use]
pub fn compare(base: &[Record], fresh: &[Record]) -> GateReport {
    let mut report = GateReport::default();
    if base.is_empty() {
        report.failures.push("the baseline holds no records".into());
    }
    for b in base {
        report.checks += 1;
        let name = &b.name;
        let Some(f) = fresh.iter().find(|f| f.name == b.name) else {
            report.failures.push(format!(
                "'{name}': in the baseline, missing from the fresh report"
            ));
            continue;
        };
        let failure = match (b.kind, b.value, f.value) {
            (Kind::Floor, _, None) => {
                report.skipped.push(format!("'{name}': {}", f.reason));
                None
            }
            (Kind::Floor, _, Some(fv)) => (fv < b.tolerance).then(|| {
                format!(
                    "'{name}': {fv:.4} below its floor {} ({})",
                    b.tolerance, f.reason
                )
            }),
            (_, None, _) | (_, _, None) => Some(format!("'{name}': no value to compare")),
            (Kind::Invariant, Some(bv), Some(fv)) => {
                (fv != bv).then(|| format!("'{name}': {fv} != baseline {bv} ({})", b.reason))
            }
            (Kind::Timing, Some(_), Some(_)) if !(0.0..1.0).contains(&b.tolerance) => {
                Some(format!(
                    "'{name}': tolerance {} admits twice the baseline or more, so the check \
                 could barely fail",
                    b.tolerance
                ))
            }
            (Kind::Timing, Some(bv), Some(fv)) => {
                let limit = bv * (1.0 + b.tolerance);
                (fv > limit).then(|| {
                    format!(
                        "'{name}': {fv:.3} ms > limit {limit:.3} ms (baseline {bv:.3} ms + {:.0}%)",
                        100.0 * b.tolerance
                    )
                })
            }
        };
        report.failures.extend(failure);
    }
    report
}

/// Parse both reports and run the gate.
///
/// # Errors
///
/// Either report is not JSON or not a schema-2 bench report.
pub fn compare_json(baseline: &str, fresh: &str) -> Result<GateReport, String> {
    let read = |which: &str, text: &str| {
        serde_json::from_str::<Value>(text)
            .map_err(|e| e.to_string())
            .and_then(|v| parse(&v))
            .map_err(|e| format!("{which}: {e}"))
    };
    Ok(compare(
        &read("baseline", baseline)?,
        &read("fresh", fresh)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(base: Record, fresh_value: Option<f64>) -> GateReport {
        let fresh = Record {
            value: fresh_value,
            ..base.clone()
        };
        compare(&[base], &[fresh])
    }

    #[test]
    fn an_invariant_off_by_one_fails() {
        let base = Record::invariant("steps", 731, "deterministic");
        assert!(gate(base.clone(), Some(731.0)).passed());
        let r = gate(base, Some(732.0));
        assert!(!r.passed());
        assert!(r.failures[0].contains("732 != baseline 731"), "{r:?}");
    }

    #[test]
    fn a_timing_just_over_its_limit_fails() {
        let base = Record::timing("fig20.parallel_ms", 4.0, 0.5, "spread");
        assert!(gate(base.clone(), Some(6.0)).passed());
        let r = gate(base, Some(6.001));
        assert!(!r.passed());
        assert!(r.failures[0].contains("limit 6.000 ms"), "{r:?}");
    }

    #[test]
    fn a_floor_just_under_its_minimum_fails() {
        let base = Record::floor("step_ratio_total", Some(3.99), 3.0, "promised 3x");
        assert!(gate(base.clone(), Some(3.0)).passed());
        let r = gate(base, Some(2.999));
        assert!(!r.passed());
        assert!(r.failures[0].contains("below its floor 3"), "{r:?}");
    }

    #[test]
    fn a_timing_that_admits_twice_its_baseline_is_rejected() {
        // Even an identical fresh value fails: the check itself is void.
        let r = gate(Record::timing("t", 1.0, 1.0, "too noisy"), Some(1.0));
        assert!(!r.passed());
        assert!(r.failures[0].contains("admits twice"), "{r:?}");
        assert!(gate(Record::timing("t", 1.0, 0.95, "spread"), Some(1.0)).passed());
    }

    #[test]
    fn an_unmeasured_floor_is_skipped_with_its_reason() {
        let base = Record::floor("fig20.speedup", Some(1.2), 1.0, "parallel >= serial");
        let fresh = Record::floor("fig20.speedup", None, 1.0, "probe ran 1.02x");
        let r = compare(&[base], &[fresh]);
        assert!(r.passed(), "{r:?}");
        assert_eq!(
            r.skipped,
            vec!["'fig20.speedup': probe ran 1.02x".to_owned()]
        );
        // Only a floor may go unmeasured.
        assert!(!gate(Record::invariant("n", 1, "count"), None).passed());
    }

    #[test]
    fn a_record_missing_from_the_fresh_report_fails() {
        let base = [
            Record::invariant("a", 1, "count"),
            Record::invariant("b", 2, "count"),
        ];
        let r = compare(&base, &base[..1]);
        assert_eq!(r.checks, 2);
        assert!(r.failures[0].contains("'b'") && r.failures[0].contains("missing"));
        assert!(
            !compare(&[], &base).passed(),
            "an empty baseline gates nothing"
        );
    }

    #[test]
    fn reports_round_trip_and_other_versions_are_refused() {
        let records = vec![
            Record::invariant("pulses", 8, "count"),
            Record::timing("ms", 4.25, 0.5, "spread"),
            Record::floor("speedup", None, 1.0, "unmeasured"),
        ];
        let text = serde_json::to_string(&to_json(&records)).expect("serializes");
        let back = parse(&serde_json::from_str(&text).expect("parses")).expect("schema 2");
        assert_eq!(back, records);
        assert!(compare_json(&text, &text).expect("parses").passed());

        let v1 = text.replace("\"schema_version\":2", "\"schema_version\":1");
        let err = compare_json(&v1, &text).unwrap_err();
        assert!(err.starts_with("baseline: schema_version Some(1)"), "{err}");
        assert!(compare_json("not json", &text).is_err());
    }

    #[test]
    fn allowed_change_is_a_percentage_of_the_baseline() {
        assert_eq!(Record::invariant("n", 3, "").allowed_change(), "0%");
        assert_eq!(Record::timing("t", 2.0, 0.45, "").allowed_change(), "+45%");
        assert_eq!(
            Record::floor("f", Some(4.0), 3.0, "").allowed_change(),
            "-25.0%"
        );
        assert_eq!(Record::floor("f", None, 3.0, "").allowed_change(), "—");
    }
}
