//! Bench-regression gate — diff a fresh `BENCH_solver.json` /
//! `BENCH_sweeps.json` report against a committed baseline and fail
//! on regression.
//!
//! Two kinds of check:
//!
//! * **correctness** — hard invariants of the fresh run alone:
//!   every sweep's `identical_output`, every cell's
//!   `pulse_counts_match`, and `worst_pulse_delta_ps` within the
//!   report's own `pulse_tol_ps`. These use no tolerance: a fresh
//!   report that violates them fails regardless of the baseline.
//! * **regression** — fresh vs baseline: wall-clock per entry must
//!   stay within `baseline × factor + abs_ms` (the additive slack
//!   keeps sub-millisecond entries from tripping on scheduler
//!   noise), the solver's `step_ratio_total` must hold ≥ 95% of the
//!   baseline ratio and ≥ its own `min_step_ratio`, and every
//!   baseline entry must still exist in the fresh report.
//!
//! The schema is auto-detected from the top-level key: `"sweeps"`
//! (the sweep report) or `"cells"` (the solver report).

use serde::Value;

/// Wall-clock tolerance: fresh time may grow to
/// `baseline * factor + abs_ms` before the gate fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Multiplicative slack on each baseline timing.
    pub factor: f64,
    /// Additive slack in milliseconds (absorbs noise on tiny entries).
    pub abs_ms: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            factor: 1.5,
            abs_ms: 100.0,
        }
    }
}

/// Outcome of one gate run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateReport {
    /// Number of individual checks evaluated.
    pub checks: usize,
    /// Human-readable description of every failed check.
    pub failures: Vec<String>,
    /// Checks that were deliberately not evaluated (e.g. speedup rungs
    /// on a one-core machine), with the reason — surfaced so a "PASS"
    /// on a laptop is readable as weaker than a "PASS" on CI.
    pub skipped: Vec<String>,
    /// Timing checks whose additive slack is at least their baseline,
    /// so the limit is at least `factor + 1` times the baseline and
    /// the check can barely fail — surfaced so a vacuous gate is
    /// visible.
    pub vacuous: Vec<String>,
}

impl GateReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(msg());
        }
    }

    fn skip(&mut self, msg: String) {
        self.skipped.push(msg);
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn num(v: &Value, key: &str) -> Option<f64> {
    get(v, key)?.as_f64()
}

fn entries<'a>(report: &'a Value, list_key: &str) -> Vec<(&'a str, &'a Value)> {
    get(report, list_key)
        .and_then(Value::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|e| Some((get(e, "name")?.as_str()?, e)))
                .collect()
        })
        .unwrap_or_default()
}

/// Check one timing field of a named entry against the baseline.
fn check_timing(
    report: &mut GateReport,
    kind: &str,
    name: &str,
    field: &str,
    base: &Value,
    fresh: &Value,
    tol: &Tolerances,
) {
    let (Some(b), Some(f)) = (num(base, field), num(fresh, field)) else {
        report.check(false, || {
            format!("{kind} '{name}': missing timing field '{field}'")
        });
        return;
    };
    let limit = b * tol.factor + tol.abs_ms;
    if tol.abs_ms >= b {
        report.vacuous.push(format!(
            "{kind} '{name}': {field} limit {limit:.3} ms for a {b:.3} ms baseline \
             (abs slack {} ms)",
            tol.abs_ms
        ));
    }
    report.check(f <= limit, || {
        format!(
            "{kind} '{name}': {field} regressed {f:.3} ms > limit {limit:.3} ms \
             (baseline {b:.3} ms × {} + {} ms)",
            tol.factor, tol.abs_ms
        )
    });
}

fn compare_sweeps(base: &Value, fresh: &Value, tol: &Tolerances, report: &mut GateReport) {
    let base_entries = entries(base, "sweeps");
    let fresh_entries = entries(fresh, "sweeps");
    report.check(!fresh_entries.is_empty(), || {
        "sweep report: no sweeps in fresh report".into()
    });
    for (name, f) in &fresh_entries {
        report.check(
            get(f, "identical_output").and_then(Value::as_bool) == Some(true),
            || format!("sweep '{name}': parallel output differs from serial"),
        );
    }
    for (name, b) in &base_entries {
        let Some((_, f)) = fresh_entries.iter().find(|(n, _)| n == name) else {
            report.check(false, || {
                format!("sweep '{name}': present in baseline, missing in fresh report")
            });
            continue;
        };
        check_timing(report, "sweep", name, "parallel_ms", b, f, tol);
    }

    // Parallelism-sensitive checks only bind when the pool actually
    // has more than one logical core behind it; a serial (or
    // oversubscribed one-core) run's "speedup" is pure timing noise.
    // Reports older than the `speedup_meaningful` field are treated as
    // not-meaningful rather than rejected.
    let meaningful = get(fresh, "speedup_meaningful").and_then(Value::as_bool) == Some(true);
    if meaningful {
        for (name, f) in &fresh_entries {
            if let Some(speedup) = num(f, "speedup") {
                report.check(speedup >= 1.0, || {
                    format!("sweep '{name}': parallel run slower than serial ({speedup:.2}x)")
                });
            }
        }
    } else {
        let vacuous = fresh_entries
            .iter()
            .filter(|(_, f)| num(f, "speedup").is_some())
            .count();
        if vacuous > 0 {
            report.skip(format!("{vacuous} speedup checks skipped (1 logical core)"));
        }
    }

    // Stress rungs (present when the report was produced with
    // `--points N`): bit-identity is unconditional; the scaling floor
    // was computed by the producer from min(threads, logical_cores),
    // so `meets_scaling` is already vacuous on serial machines.
    let stress = get(fresh, "stress").and_then(Value::as_array);
    if get(base, "stress").is_some() {
        report.check(stress.is_some(), || {
            "sweep report: baseline has a stress section, fresh report lacks one".into()
        });
    }
    for rung in stress.into_iter().flatten() {
        let threads = num(rung, "threads").unwrap_or(0.0);
        report.check(
            get(rung, "identical_output").and_then(Value::as_bool) == Some(true),
            || format!("stress rung ({threads} threads): output differs from serial"),
        );
        report.check(
            get(rung, "meets_scaling").and_then(Value::as_bool) == Some(true),
            || {
                format!(
                    "stress rung ({threads} threads): speedup {:.2}x below the scaling floor",
                    num(rung, "speedup").unwrap_or(f64::NAN)
                )
            },
        );
    }
}

fn compare_solver(base: &Value, fresh: &Value, tol: &Tolerances, report: &mut GateReport) {
    let base_entries = entries(base, "cells");
    let fresh_entries = entries(fresh, "cells");
    report.check(!fresh_entries.is_empty(), || {
        "solver report: no cells in fresh report".into()
    });
    for (name, f) in &fresh_entries {
        report.check(
            get(f, "pulse_counts_match").and_then(Value::as_bool) == Some(true),
            || format!("cell '{name}': adaptive pulse counts diverge from fixed-step reference"),
        );
    }
    let tol_ps = num(fresh, "pulse_tol_ps").unwrap_or(f64::INFINITY);
    if let Some(worst) = num(fresh, "worst_pulse_delta_ps") {
        report.check(worst <= tol_ps, || {
            format!("solver: worst_pulse_delta_ps {worst:.4} exceeds pulse_tol_ps {tol_ps:.4}")
        });
    }
    if let Some(ratio) = num(fresh, "step_ratio_total") {
        let min_ratio = num(fresh, "min_step_ratio").unwrap_or(0.0);
        report.check(ratio >= min_ratio, || {
            format!("solver: step_ratio_total {ratio:.3} below required minimum {min_ratio:.3}")
        });
        if let Some(base_ratio) = num(base, "step_ratio_total") {
            report.check(ratio >= base_ratio * 0.95, || {
                format!("solver: step_ratio_total {ratio:.3} lost >5% vs baseline {base_ratio:.3}")
            });
        }
    } else {
        report.check(false, || {
            "solver: fresh report lacks step_ratio_total".into()
        });
    }
    for (name, b) in &base_entries {
        let Some((_, f)) = fresh_entries.iter().find(|(n, _)| n == name) else {
            report.check(false, || {
                format!("cell '{name}': present in baseline, missing in fresh report")
            });
            continue;
        };
        check_timing(report, "cell", name, "adaptive_ms", b, f, tol);
    }

    // The banded cell (reported separately so its in-flight pulse
    // train doesn't dilute the quiescent cells' step-ratio aggregate)
    // gets the same correctness treatment plus proof that the packed
    // band factorization actually ran. Baselines predating the field
    // are tolerated; once the baseline has it, it may not vanish.
    let banded = get(fresh, "banded_cell");
    if let Some(f) = banded {
        report.check(
            get(f, "pulse_counts_match").and_then(Value::as_bool) == Some(true),
            || "banded cell: adaptive pulse counts diverge from fixed-step reference".into(),
        );
        if let Some(delta) = num(f, "max_pulse_delta_ps") {
            report.check(delta <= tol_ps, || {
                format!(
                    "banded cell: max_pulse_delta_ps {delta:.4} exceeds pulse_tol_ps {tol_ps:.4}"
                )
            });
        }
        report.check(num(f, "lu_factor").unwrap_or(0.0) > 0.0, || {
            "banded cell: lu_factor is zero — the banded path never engaged".into()
        });
        if let Some(b) = get(base, "banded_cell") {
            check_timing(
                report,
                "banded cell",
                "jtl_chain_40",
                "adaptive_ms",
                b,
                f,
                tol,
            );
        }
    } else if get(base, "banded_cell").is_some() {
        report.check(false, || {
            "solver report: baseline has a banded_cell entry, fresh report lacks one".into()
        });
    }
}

fn compare_profile(base: &Value, fresh: &Value, tol: &Tolerances, report: &mut GateReport) {
    let base_entries = entries(base, "kernels");
    let fresh_entries = entries(fresh, "kernels");
    report.check(!fresh_entries.is_empty(), || {
        "profile report: no kernels in fresh report".into()
    });

    // Coverage floor: the profiled kernel self-times must explain at
    // least `min_self_coverage` of the solver's inclusive run time,
    // else laps have drifted away from the hot loops and the profile
    // is lying by omission. The floor is the fresh report's own (like
    // `min_step_ratio` in the solver gate), so the producer and the
    // gate cannot disagree about it.
    match (num(fresh, "self_coverage"), num(fresh, "min_self_coverage")) {
        (Some(cov), Some(floor)) => {
            report.check(cov >= floor, || {
                format!(
                    "profile: solver self-time coverage {cov:.3} below required floor {floor:.3}"
                )
            });
            if let Some(base_cov) = num(base, "self_coverage") {
                report.check(cov >= base_cov - 0.05, || {
                    format!("profile: self_coverage {cov:.3} lost >0.05 vs baseline {base_cov:.3}")
                });
            }
        }
        _ => report.check(false, || {
            "profile: fresh report lacks self_coverage / min_self_coverage".into()
        }),
    }

    for (name, b) in &base_entries {
        let Some((_, f)) = fresh_entries.iter().find(|(n, _)| n == name) else {
            report.check(false, || {
                format!("kernel '{name}': present in baseline, missing in fresh report")
            });
            continue;
        };
        check_timing(report, "kernel", name, "self_ms", b, f, tol);
    }
}

fn compare_batch(base: &Value, fresh: &Value, tol: &Tolerances, report: &mut GateReport) {
    let base_entries = entries(base, "batch");
    let fresh_entries = entries(fresh, "batch");
    report.check(!fresh_entries.is_empty(), || {
        "batch report: no workloads in fresh report".into()
    });

    // Hard correctness: the batched run must reproduce the scalar
    // outcomes exactly, and any workload that carries its own speedup
    // floor (yield-200 at LANES=4 requires >= 2x) must clear it. The
    // floor is the fresh report's own, like `min_step_ratio` in the
    // solver gate, so producer and gate cannot disagree — and unlike
    // thread-pool speedups it binds on every machine, because lanes
    // are SIMD within one core, not parallelism across cores.
    for (name, f) in &fresh_entries {
        report.check(
            get(f, "outcomes_identical").and_then(Value::as_bool) == Some(true),
            || format!("batch '{name}': batched outcomes differ from the scalar path"),
        );
        if let Some(floor) = num(f, "min_speedup") {
            let speedup = num(f, "speedup").unwrap_or(f64::NAN);
            report.check(speedup >= floor, || {
                format!("batch '{name}': speedup {speedup:.2}x below required {floor:.2}x")
            });
        }
    }

    // Equivalence section: K perturbed instances batched vs scalar —
    // identical pulse counts, pulse times within the report's own
    // tolerance.
    let tol_ps = num(fresh, "pulse_tol_ps").unwrap_or(f64::INFINITY);
    match get(fresh, "equivalence") {
        Some(eq) => {
            report.check(
                get(eq, "pulse_counts_match").and_then(Value::as_bool) == Some(true),
                || "batch equivalence: pulse counts diverge from scalar".into(),
            );
            let delta = num(eq, "max_pulse_delta_ps").unwrap_or(f64::INFINITY);
            report.check(delta <= tol_ps, || {
                format!(
                    "batch equivalence: max_pulse_delta_ps {delta:.4} exceeds \
                     pulse_tol_ps {tol_ps:.4}"
                )
            });
        }
        None => report.check(false, || {
            "batch report: fresh report lacks an equivalence section".into()
        }),
    }

    for (name, b) in &base_entries {
        let Some((_, f)) = fresh_entries.iter().find(|(n, _)| n == name) else {
            report.check(false, || {
                format!("batch '{name}': present in baseline, missing in fresh report")
            });
            continue;
        };
        check_timing(report, "batch", name, "batched_ms", b, f, tol);
    }
}

fn compare_robust(base: &Value, fresh: &Value, tol: &Tolerances, report: &mut GateReport) {
    let base_entries = entries(base, "robust");
    let fresh_entries = entries(fresh, "robust");
    report.check(!fresh_entries.is_empty(), || {
        "robust report: no sweep entries in fresh report".into()
    });

    // Hard correctness of the fresh run alone: no point is ever
    // silently lost, and the five terminal-state counters must
    // account for every point — a gap would mean the runner dropped a
    // point without labeling it, the exact failure mode the guard
    // layer exists to remove.
    for (name, f) in &fresh_entries {
        let lost = num(f, "lost").unwrap_or(f64::NAN);
        report.check(lost == 0.0, || {
            format!("robust '{name}': {lost} point(s) silently lost")
        });
        let points = num(f, "points").unwrap_or(f64::NAN);
        let sum: f64 = ["completed", "degraded", "timed_out", "cancelled", "failed"]
            .iter()
            .map(|k| num(f, k).unwrap_or(f64::NAN))
            .sum();
        report.check(sum == points, || {
            format!("robust '{name}': state counts ({sum}) do not cover all {points} points")
        });
    }

    // Resume section: a killed-then-resumed sweep must reproduce the
    // uninterrupted run byte-for-byte.
    match get(fresh, "resume") {
        Some(rs) => report.check(
            get(rs, "resume_identical").and_then(Value::as_bool) == Some(true),
            || "robust resume: resumed sweep diverged from the uninterrupted reference".into(),
        ),
        None => report.check(false, || {
            "robust report: fresh report lacks a resume section".into()
        }),
    }

    for (name, b) in &base_entries {
        let Some((_, f)) = fresh_entries.iter().find(|(n, _)| n == name) else {
            report.check(false, || {
                format!("robust '{name}': present in baseline, missing in fresh report")
            });
            continue;
        };
        check_timing(report, "robust", name, "ms", b, f, tol);
    }
}

/// The top-level key identifying each known report schema.
pub const KNOWN_SCHEMAS: [&str; 5] = ["sweeps", "cells", "kernels", "batch", "robust"];

/// Detect which [`KNOWN_SCHEMAS`] entry a report matches, or
/// `"unknown"`. Shared by [`compare`] and the observatory's baseline
/// inventory.
#[must_use]
pub fn schema_of(v: &Value) -> &'static str {
    KNOWN_SCHEMAS
        .iter()
        .copied()
        .find(|&k| get(v, k).is_some())
        .unwrap_or("unknown")
}

/// The `schema_version` a report declares (0 = pre-versioned).
#[must_use]
pub fn schema_version_of(v: &Value) -> u64 {
    num(v, "schema_version").map_or(0u64, |x| x as u64)
}

/// Compare a fresh bench report against its baseline. The schema
/// (sweep vs solver vs profile vs batch) is detected from each
/// report's top-level keys; an unrecognized baseline fails loudly —
/// naming the keys it does have — rather than being silently skipped,
/// so pointing the gate at a report it was never taught about is an
/// error, not a vacuous PASS.
pub fn compare(base: &Value, fresh: &Value, tol: &Tolerances) -> GateReport {
    let mut report = GateReport::default();
    fn keys(v: &Value) -> Vec<&str> {
        v.as_object()
            .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
            .unwrap_or_default()
    }
    let (bs, fs) = (schema_of(base), schema_of(fresh));
    for (which, s, v) in [("baseline", bs, base), ("fresh", fs, fresh)] {
        report.check(s != "unknown", || {
            format!(
                "{which} report matches no known schema: top-level keys {:?} \
                 contain none of {KNOWN_SCHEMAS:?} — register the report in \
                 gate::compare before gating it",
                keys(v)
            )
        });
    }
    report.check(bs == fs, || {
        format!("schema mismatch: baseline is '{bs}', fresh is '{fs}'")
    });
    if !report.passed() {
        return report;
    }
    // Schema *version* gate: a report written under a different field
    // layout must fail with one clear line, not a field-by-field
    // mismatch spray from the per-schema comparators below. Missing
    // field = v0 (pre-versioned report).
    let (bv, fv) = (schema_version_of(base), schema_version_of(fresh));
    report.check(bv == fv, || {
        format!(
            "baseline schema v{bv} vs fresh v{fv}: regenerate the baseline \
             with the current binaries before comparing fields"
        )
    });
    if !report.passed() {
        return report;
    }
    match bs {
        "sweeps" => compare_sweeps(base, fresh, tol, &mut report),
        "kernels" => compare_profile(base, fresh, tol, &mut report),
        "batch" => compare_batch(base, fresh, tol, &mut report),
        "robust" => compare_robust(base, fresh, tol, &mut report),
        _ => compare_solver(base, fresh, tol, &mut report),
    }
    report
}

/// Parse both JSON strings and run the gate.
///
/// # Errors
///
/// Returns the parse error message when either report is not valid
/// JSON.
pub fn compare_json(baseline: &str, fresh: &str, tol: &Tolerances) -> Result<GateReport, String> {
    let base: Value = serde_json::from_str(baseline).map_err(|e| format!("baseline: {e}"))?;
    let fresh: Value = serde_json::from_str(fresh).map_err(|e| format!("fresh: {e}"))?;
    Ok(compare(&base, &fresh, tol))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweeps(ms: f64, identical: bool) -> String {
        format!(
            r#"{{"threads":4,"sweeps":[{{"name":"fig20","serial_ms":{ms},"parallel_ms":{ms},"speedup":1.0,"identical_output":{identical}}}]}}"#
        )
    }

    fn solver(ms: f64, ratio: f64, delta: f64, counts_match: bool) -> String {
        format!(
            r#"{{"pulse_tol_ps":0.5,"min_step_ratio":3.0,"step_ratio_total":{ratio},"worst_pulse_delta_ps":{delta},"cells":[{{"name":"jtl","adaptive_ms":{ms},"pulse_counts_match":{counts_match}}}]}}"#
        )
    }

    #[test]
    fn identical_reports_pass() {
        let tol = Tolerances::default();
        let r = compare_json(&sweeps(5.0, true), &sweeps(5.0, true), &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
        let r = compare_json(
            &solver(2.0, 4.0, 0.1, true),
            &solver(2.0, 4.0, 0.1, true),
            &tol,
        )
        .unwrap();
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn schema_version_mismatch_is_one_clear_failure() {
        let tol = Tolerances::default();
        // Same detected schema, different declared versions: the gate
        // must stop with the single version line, not descend into a
        // field-by-field mismatch spray.
        let v0 = sweeps(5.0, true);
        let v1 = format!(r#"{{"schema_version":1,{}"#, &sweeps(999.0, false)[1..]);
        let r = compare_json(&v0, &v1, &tol).unwrap();
        assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
        assert!(
            r.failures[0].contains("baseline schema v0 vs fresh v1"),
            "{:?}",
            r.failures
        );
        // Equal versions sail through to the per-schema comparison.
        let a = format!(r#"{{"schema_version":1,{}"#, &sweeps(5.0, true)[1..]);
        let b = format!(r#"{{"schema_version":1,{}"#, &sweeps(5.0, true)[1..]);
        let r = compare_json(&a, &b, &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn abs_slack_tolerates_small_growth() {
        let tol = Tolerances {
            factor: 1.5,
            abs_ms: 100.0,
        };
        // 5 ms → 80 ms is a 16× slowdown but within the 107.5 ms limit.
        let r = compare_json(&sweeps(5.0, true), &sweeps(80.0, true), &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
        // So that check is vacuous, and reported as such; a baseline
        // above the slack is not.
        assert_eq!(r.vacuous.len(), 1, "{:?}", r.vacuous);
        assert!(r.vacuous[0].contains("parallel_ms"), "{:?}", r.vacuous);
        let r = compare_json(&sweeps(150.0, true), &sweeps(150.0, true), &tol).unwrap();
        assert!(r.vacuous.is_empty(), "{:?}", r.vacuous);
    }

    #[test]
    fn slowed_fresh_report_fails() {
        let tol = Tolerances {
            factor: 1.5,
            abs_ms: 10.0,
        };
        let r = compare_json(&sweeps(50.0, true), &sweeps(200.0, true), &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("parallel_ms regressed"),
            "{:?}",
            r.failures
        );
        let r = compare_json(
            &solver(50.0, 4.0, 0.1, true),
            &solver(200.0, 4.0, 0.1, true),
            &tol,
        )
        .unwrap();
        assert!(!r.passed());
        assert!(
            r.failures[0].contains("adaptive_ms regressed"),
            "{:?}",
            r.failures
        );
    }

    #[test]
    fn correctness_flags_fail_hard() {
        let tol = Tolerances::default();
        let r = compare_json(&sweeps(5.0, true), &sweeps(5.0, false), &tol).unwrap();
        assert!(!r.passed());
        let r = compare_json(
            &solver(2.0, 4.0, 0.1, true),
            &solver(2.0, 4.0, 0.1, false),
            &tol,
        )
        .unwrap();
        assert!(!r.passed());
        // Pulse delta beyond the report's own tolerance.
        let r = compare_json(
            &solver(2.0, 4.0, 0.1, true),
            &solver(2.0, 4.0, 0.9, true),
            &tol,
        )
        .unwrap();
        assert!(!r.passed());
        // Step ratio collapsed below min and below 95% of baseline.
        let r = compare_json(
            &solver(2.0, 4.0, 0.1, true),
            &solver(2.0, 1.5, 0.1, true),
            &tol,
        )
        .unwrap();
        assert!(!r.passed());
    }

    fn sweeps_stress(speedup: f64, identical: bool, meets: bool) -> String {
        format!(
            r#"{{"threads":4,"logical_cores":8,"speedup_meaningful":true,
               "sweeps":[{{"name":"fig20","serial_ms":5.0,"parallel_ms":5.0,"speedup":{speedup},"identical_output":true}}],
               "stress":[{{"points":100000,"threads":4,"ms":10.0,"speedup":{speedup},"expected_parallelism":4.0,"identical_output":{identical},"meets_scaling":{meets}}}]}}"#
        )
    }

    #[test]
    fn stress_rungs_are_gated() {
        let tol = Tolerances::default();
        let good = sweeps_stress(3.5, true, true);
        let r = compare_json(&good, &good, &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);

        // Divergent output or missed scaling floor fails hard.
        let r = compare_json(&good, &sweeps_stress(3.5, false, true), &tol).unwrap();
        assert!(!r.passed());
        let r = compare_json(&good, &sweeps_stress(2.0, true, false), &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("scaling floor")),
            "{:?}",
            r.failures
        );

        // A baseline with stress rungs pins the fresh report to having
        // them too.
        let r = compare_json(&good, &sweeps(5.0, true), &tol).unwrap();
        assert!(!r.passed());

        // Parallel-slower-than-serial fails only when the speedup is
        // meaningful; the plain `sweeps` fixture has no
        // speedup_meaningful field, so its 1.0x passes.
        let r = compare_json(&good, &sweeps_stress(0.7, true, true), &tol).unwrap();
        assert!(
            r.failures.iter().any(|f| f.contains("slower than serial")),
            "{:?}",
            r.failures
        );
    }

    fn solver_banded(lu_factor: u64, counts_match: bool, delta: f64) -> String {
        format!(
            r#"{{"pulse_tol_ps":0.5,"min_step_ratio":3.0,"step_ratio_total":4.0,"worst_pulse_delta_ps":0.1,
               "cells":[{{"name":"jtl","adaptive_ms":2.0,"pulse_counts_match":true}}],
               "banded_cell":{{"name":"jtl_chain_40","adaptive_ms":10.0,"pulse_counts_match":{counts_match},"max_pulse_delta_ps":{delta},"lu_factor":{lu_factor},"lu_reuse":5000}}}}"#
        )
    }

    #[test]
    fn banded_cell_is_gated() {
        let tol = Tolerances::default();
        let good = solver_banded(29000, true, 0.1);
        let r = compare_json(&good, &good, &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);

        let r = compare_json(&good, &solver_banded(0, true, 0.1), &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("never engaged")),
            "{:?}",
            r.failures
        );
        let r = compare_json(&good, &solver_banded(29000, false, 0.1), &tol).unwrap();
        assert!(!r.passed());
        let r = compare_json(&good, &solver_banded(29000, true, 0.9), &tol).unwrap();
        assert!(!r.passed());

        // Once the baseline has the entry, the fresh report must too;
        // an old baseline without it doesn't require one.
        let r = compare_json(&good, &solver(2.0, 4.0, 0.1, true), &tol).unwrap();
        assert!(!r.passed());
        let r = compare_json(&solver(2.0, 4.0, 0.1, true), &good, &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
    }

    fn profile(cov: f64, newton_ms: f64) -> String {
        format!(
            r#"{{"workload":"jtl_chain_40","self_coverage":{cov},"min_self_coverage":0.9,
               "kernels":[{{"name":"newton","self_ms":{newton_ms},"calls":1000}},
                          {{"name":"lu_solve","self_ms":3.0,"calls":900}}]}}"#
        )
    }

    #[test]
    fn profile_reports_are_gated() {
        let tol = Tolerances {
            factor: 1.5,
            abs_ms: 1.0,
        };
        let good = profile(0.97, 10.0);
        let r = compare_json(&good, &good, &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);

        // Coverage below the report's own floor fails hard.
        let r = compare_json(&good, &profile(0.8, 10.0), &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("coverage")),
            "{:?}",
            r.failures
        );

        // Kernel self-time regression beyond tolerance fails.
        let r = compare_json(&good, &profile(0.97, 40.0), &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("self_ms regressed")),
            "{:?}",
            r.failures
        );

        // A kernel vanishing from the fresh report fails.
        let fresh = r#"{"self_coverage":0.97,"min_self_coverage":0.9,
                        "kernels":[{"name":"newton","self_ms":10.0}]}"#;
        let r = compare_json(&good, fresh, &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("lu_solve")),
            "{:?}",
            r.failures
        );

        // Missing coverage fields fail rather than silently pass.
        let fresh =
            r#"{"kernels":[{"name":"newton","self_ms":10.0},{"name":"lu_solve","self_ms":3.0}]}"#;
        let r = compare_json(&good, fresh, &tol).unwrap();
        assert!(!r.passed());
    }

    #[test]
    fn vacuous_speedup_checks_are_surfaced() {
        let tol = Tolerances::default();
        // No speedup_meaningful field: the 0.7x "slowdown" is noise on
        // a one-core machine, so it is skipped — but visibly.
        let fresh = r#"{"threads":1,"speedup_meaningful":false,
            "sweeps":[{"name":"fig20","serial_ms":5.0,"parallel_ms":7.0,"speedup":0.7,"identical_output":true}]}"#;
        let r = compare_json(&sweeps(5.0, true), fresh, &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
        assert_eq!(
            r.skipped,
            vec!["1 speedup checks skipped (1 logical core)".to_owned()]
        );

        // Meaningful runs skip nothing.
        let good = sweeps_stress(3.5, true, true);
        let r = compare_json(&good, &good, &tol).unwrap();
        assert!(r.skipped.is_empty(), "{:?}", r.skipped);
    }

    #[test]
    fn missing_entry_and_schema_mismatch_fail() {
        let tol = Tolerances::default();
        let fresh = r#"{"threads":4,"sweeps":[]}"#;
        let r = compare_json(&sweeps(5.0, true), fresh, &tol).unwrap();
        assert!(!r.passed());
        let r = compare_json(&sweeps(5.0, true), &solver(2.0, 4.0, 0.1, true), &tol).unwrap();
        assert!(!r.passed());
        assert!(r.failures[0].contains("schema mismatch"));
        assert!(compare_json("not json", "{}", &tol).is_err());
    }

    #[test]
    fn unknown_schema_fails_loudly_naming_its_keys() {
        let tol = Tolerances::default();
        // A report the gate was never taught about (e.g. the faults
        // yield curves) must fail with a registration hint, not pass
        // vacuously with zero entry checks.
        let curves = r#"{"seed":42,"curves":[[{"cell":"jtl","yield":0.99}]]}"#;
        let r = compare_json(curves, curves, &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("no known schema") && f.contains("curves")),
            "{:?}",
            r.failures
        );
        // Both sides are diagnosed independently.
        assert!(
            r.failures.iter().any(|f| f.starts_with("fresh report")),
            "{:?}",
            r.failures
        );
    }

    fn robust(lost: u64, completed: u64, resume: bool) -> String {
        format!(
            r#"{{"robust":[{{"name":"fig20_unguarded","points":8,"completed":{completed},"degraded":0,"timed_out":0,"cancelled":0,"failed":{lost},"lost":{lost},"restored":0,"ms":12.0}}],
               "chaos_seed":2024,
               "resume":{{"resume_identical":{resume},"restored":2}}}}"#
        )
    }

    #[test]
    fn robust_reports_are_gated() {
        let tol = Tolerances::default();
        let good = robust(0, 8, true);
        let r = compare_json(&good, &good, &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);

        // A silently lost point fails hard.
        let r = compare_json(&good, &robust(1, 7, true), &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("silently lost")),
            "{:?}",
            r.failures
        );

        // State counts that fail to cover every point fail hard.
        let r = compare_json(&good, &robust(0, 5, true), &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("do not cover")),
            "{:?}",
            r.failures
        );

        // A non-identical resume fails hard.
        let r = compare_json(&good, &robust(0, 8, false), &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("resume")),
            "{:?}",
            r.failures
        );

        // A missing resume section fails rather than passes
        // vacuously; a baseline entry vanishing from the fresh report
        // fails.
        let bare = r#"{"robust":[{"name":"fig20_unguarded","points":8,"completed":8,"degraded":0,"timed_out":0,"cancelled":0,"failed":0,"lost":0,"restored":0,"ms":12.0}]}"#;
        let r = compare_json(&good, bare, &tol).unwrap();
        assert!(!r.passed());
        assert!(r.failures.iter().any(|f| f.contains("resume section")));
        let renamed = good.replace("fig20_unguarded", "fig20_other");
        let r = compare_json(&good, &renamed, &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("missing in fresh report")),
            "{:?}",
            r.failures
        );

        // Wall-clock regression beyond tolerance fails.
        let tight = Tolerances {
            factor: 1.5,
            abs_ms: 1.0,
        };
        let slow = good.replace("\"ms\":12.0", "\"ms\":120.0");
        let r = compare_json(&good, &slow, &tight).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("ms regressed")),
            "{:?}",
            r.failures
        );
    }

    fn batch(
        batched_ms: f64,
        speedup: f64,
        identical: bool,
        counts_match: bool,
        delta: f64,
    ) -> String {
        format!(
            r#"{{"lanes":4,"pulse_tol_ps":0.5,
               "batch":[{{"name":"yield_200","scalar_ms":100.0,"batched_ms":{batched_ms},"speedup":{speedup},"min_speedup":2.0,"outcomes_identical":{identical}}},
                        {{"name":"margins","scalar_ms":20.0,"batched_ms":9.0,"speedup":2.2,"outcomes_identical":{identical}}}],
               "equivalence":{{"k":4,"pulse_counts_match":{counts_match},"max_pulse_delta_ps":{delta}}}}}"#
        )
    }

    #[test]
    fn batch_reports_are_gated() {
        let tol = Tolerances::default();
        let good = batch(40.0, 2.5, true, true, 0.1);
        let r = compare_json(&good, &good, &tol).unwrap();
        assert!(r.passed(), "{:?}", r.failures);

        // Outcome divergence, a missed speedup floor, a pulse-count
        // mismatch, and an out-of-tolerance pulse delta all fail hard.
        let r = compare_json(&good, &batch(40.0, 2.5, false, true, 0.1), &tol).unwrap();
        assert!(!r.passed());
        let r = compare_json(&good, &batch(40.0, 1.4, true, true, 0.1), &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("below required")),
            "{:?}",
            r.failures
        );
        let r = compare_json(&good, &batch(40.0, 2.5, true, false, 0.1), &tol).unwrap();
        assert!(!r.passed());
        let r = compare_json(&good, &batch(40.0, 2.5, true, true, 0.9), &tol).unwrap();
        assert!(!r.passed());

        // Wall-clock regression beyond tolerance fails; a missing
        // equivalence section fails.
        let tight = Tolerances {
            factor: 1.5,
            abs_ms: 1.0,
        };
        let r = compare_json(&good, &batch(90.0, 2.5, true, true, 0.1), &tight).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("batched_ms regressed")),
            "{:?}",
            r.failures
        );
        let no_eq = r#"{"lanes":4,"pulse_tol_ps":0.5,
            "batch":[{"name":"yield_200","scalar_ms":100.0,"batched_ms":40.0,"speedup":2.5,"min_speedup":2.0,"outcomes_identical":true},
                     {"name":"margins","scalar_ms":20.0,"batched_ms":9.0,"speedup":2.2,"outcomes_identical":true}]}"#;
        let r = compare_json(&good, no_eq, &tol).unwrap();
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("equivalence")),
            "{:?}",
            r.failures
        );
    }
}
