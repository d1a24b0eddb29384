//! The observatory: cross-run aggregation of the run ledger.
//!
//! [`build`] joins every [`RunManifest`] in a ledger by
//! **(bin, config fingerprint)** — two runs land in the same trend
//! group only when the same binary ran under the same
//! workload-affecting configuration — and renders `report.md` plus a
//! hand-rolled `report.html` (no new deps, same policy as the
//! Perfetto export) with:
//!
//! * per-benchmark trend tables (duration, Δ vs previous run, cache
//!   hit rate, outcome) and a sparkline of the duration history;
//! * regression flags (`fresh > prev × 1.5 + 100 ms`, the
//!   [`TREND_FACTOR`] / [`TREND_ABS_MS`] rule ⇒ the literal `REGRESSION`
//!   marker `scripts/check.sh --report` greps for);
//! * a cross-run knob-diff: for consecutive runs of the same bin,
//!   which `SUPERNPU_*` knobs appeared, vanished or changed — the
//!   "what changed between these two runs" answer;
//! * an inventory of the committed `BENCH_*.json` baselines: every
//!   record with its kind, value and how far the gate lets a fresh
//!   value move, as a percentage of the baseline.
//!
//! **Fingerprint rule**: FNV-1a over the name-sorted `SUPERNPU_*`
//! knobs minus the observability-only ones ([`sfq_obs::KNOBS`] as
//! prefixes: `SUPERNPU_LEDGER`, `SUPERNPU_PROGRESS`, `SUPERNPU_LOG`,
//! `SUPERNPU_METRICS*`, `SUPERNPU_TRACE*`, `SUPERNPU_PROFILE*`) —
//! turning a trace on must not split a trend — plus the resolved
//! threads/chunk/lanes, the cargo profile and the target triple.
//!
//! Everything here is a pure function of its inputs (no clocks, no
//! thread-count dependence), so the rendered reports are byte-stable
//! — a property the ledger tests pin.

use std::path::Path;

use serde::Value;
use sfq_obs::ledger::{RunManifest, RunOutcome};

use crate::gate::Record;

/// A run is flagged `REGRESSION` when its duration exceeds the
/// previous run's × this factor + [`TREND_ABS_MS`].
pub const TREND_FACTOR: f64 = 1.5;

/// Additive slack of the trend rule, in milliseconds: run durations
/// include process start-up, so tiny runs need an absolute margin.
pub const TREND_ABS_MS: f64 = 100.0;

/// One committed `BENCH_*.json` baseline, inventoried in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// File name (e.g. `BENCH_solver.json`).
    pub name: String,
    /// The baseline's gated records.
    pub records: Vec<Record>,
}

impl BenchFile {
    /// Inventory a parsed baseline under its file name.
    ///
    /// # Errors
    ///
    /// The value is not a bench report ([`crate::gate::parse`]).
    pub fn from_value(name: &str, v: &Value) -> Result<BenchFile, String> {
        Ok(BenchFile {
            name: name.to_owned(),
            records: crate::gate::parse(v)?,
        })
    }
}

/// The rendered observatory output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Markdown rendering (`results/report.md`).
    pub markdown: String,
    /// Hand-rolled HTML rendering (`results/report.html`).
    pub html: String,
    /// Number of rows flagged `REGRESSION`.
    pub regressions: usize,
    /// Number of (bin, fingerprint) trend groups.
    pub groups: usize,
}

/// Parse a `ledger.jsonl` file into manifests. A missing file is an
/// empty ledger (cold observatory, not an error).
///
/// # Errors
///
/// The first malformed line, identified by line number — a ledger
/// that does not parse is a bug worth failing on, not skipping.
pub fn load_ledger(dir: &Path) -> Result<Vec<RunManifest>, String> {
    let path = dir.join("ledger.jsonl");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("could not read {}: {e}", path.display())),
    };
    let mut runs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let m: RunManifest = serde_json::from_str(line)
            .map_err(|e| format!("{}:{}: malformed manifest: {e}", path.display(), lineno + 1))?;
        runs.push(m);
    }
    Ok(runs)
}

/// Config fingerprint of a manifest — see the module docs for the
/// join rule. Stable across processes (pure FNV-1a of the canonical
/// config string).
#[must_use]
pub fn fingerprint(m: &RunManifest) -> u64 {
    let mut canon = String::new();
    for k in &m.env {
        // Observability-only knobs change what a run records, never
        // what it computes.
        let excluded = sfq_obs::KNOBS.iter().any(|p| k.name.starts_with(p));
        if !excluded {
            canon.push_str(&k.name);
            canon.push('=');
            canon.push_str(&k.value);
            canon.push('\n');
        }
    }
    canon.push_str(&format!(
        "threads={} chunk={} lanes={} profile={} target={}",
        m.threads, m.chunk, m.lanes, m.cargo_profile, m.target
    ));
    fnv1a64(canon.as_bytes())
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn outcome_label(o: RunOutcome) -> &'static str {
    match o {
        RunOutcome::Ok => "Ok",
        RunOutcome::GateFail => "GateFail",
        RunOutcome::Panicked => "Panicked",
        RunOutcome::BudgetExceeded => "BudgetExceeded",
    }
}

/// Eight-level unicode sparkline of a series, scaled min..max.
#[must_use]
pub fn sparkline(values: &[f64]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    values
        .iter()
        .map(|&v| {
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let idx = ((t * 7.0).round() as usize).min(7);
            BLOCKS[idx]
        })
        .collect()
}

struct Row<'a> {
    run: &'a RunManifest,
    delta_pct: Option<f64>,
    regressed: bool,
}

struct Group<'a> {
    bin: &'a str,
    fp: u64,
    rows: Vec<Row<'a>>,
}

fn group_runs(runs: &[RunManifest]) -> Vec<Group<'_>> {
    let mut keyed: Vec<(&str, u64, Vec<&RunManifest>)> = Vec::new();
    for m in runs {
        let fp = fingerprint(m);
        match keyed
            .iter_mut()
            .find(|(bin, f, _)| *bin == m.bin && *f == fp)
        {
            Some((_, _, v)) => v.push(m),
            None => keyed.push((&m.bin, fp, vec![m])),
        }
    }
    keyed.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    keyed
        .into_iter()
        .map(|(bin, fp, mut group)| {
            group.sort_by_key(|m| m.seq);
            let rows = group
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    let prev = if i > 0 { Some(group[i - 1]) } else { None };
                    let delta_pct = prev.map(|p| {
                        if p.duration_ms > 0.0 {
                            100.0 * (m.duration_ms - p.duration_ms) / p.duration_ms
                        } else {
                            0.0
                        }
                    });
                    let regressed = prev.is_some_and(|p| {
                        m.duration_ms > p.duration_ms * TREND_FACTOR + TREND_ABS_MS
                    });
                    Row {
                        run: m,
                        delta_pct,
                        regressed,
                    }
                })
                .collect();
            Group { bin, fp, rows }
        })
        .collect()
}

/// `SUPERNPU_*` knob diff between two runs, one clause per change,
/// name-sorted; empty when the knob sets are identical.
#[must_use]
pub fn knob_diff(prev: &RunManifest, next: &RunManifest) -> Vec<String> {
    let mut out = Vec::new();
    for k in &next.env {
        match prev.env.iter().find(|p| p.name == k.name) {
            None => out.push(format!("+{}={}", k.name, k.value)),
            Some(p) if p.value != k.value => {
                out.push(format!("{} {}→{}", k.name, p.value, k.value));
            }
            Some(_) => {}
        }
    }
    for p in &prev.env {
        if !next.env.iter().any(|k| k.name == p.name) {
            out.push(format!("-{}={}", p.name, p.value));
        }
    }
    for (label, a, b) in [
        ("threads", prev.threads, next.threads),
        ("chunk", prev.chunk, next.chunk),
        ("lanes", prev.lanes, next.lanes),
    ] {
        if a != b {
            out.push(format!("{label} {a}→{b}"));
        }
    }
    out.sort();
    out
}

fn cache_rate(m: &RunManifest) -> String {
    let total = m.cache_hits + m.cache_misses;
    if total == 0 {
        "—".to_owned()
    } else {
        #[allow(clippy::cast_precision_loss)]
        let pct = 100.0 * m.cache_hits as f64 / total as f64;
        format!("{pct:.0}%")
    }
}

/// Escape `&<>"` for the hand-rolled HTML.
#[must_use]
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Build the observatory report from parsed manifests and baseline
/// inventories. Pure: output depends only on the arguments.
#[must_use]
pub fn build(runs: &[RunManifest], bench: &[BenchFile]) -> Report {
    let groups = group_runs(runs);
    let regressions = groups
        .iter()
        .flat_map(|g| g.rows.iter())
        .filter(|r| r.regressed)
        .count();

    let mut md = String::new();
    md.push_str("# SuperNPU run observatory\n\n");
    md.push_str(&format!(
        "{} run(s) · {} trend group(s) · {} regression flag(s)\n\n",
        runs.len(),
        groups.len(),
        regressions
    ));

    let mut html_body = String::new();
    html_body.push_str("<h1>SuperNPU run observatory</h1>\n");
    html_body.push_str(&format!(
        "<p>{} run(s) · {} trend group(s) · <strong>{} regression flag(s)</strong></p>\n",
        runs.len(),
        groups.len(),
        regressions
    ));

    md.push_str("## Trends\n\n");
    html_body.push_str("<h2>Trends</h2>\n");
    if groups.is_empty() {
        md.push_str("_empty ledger — no runs recorded yet_\n\n");
        html_body.push_str("<p><em>empty ledger — no runs recorded yet</em></p>\n");
    }
    for g in &groups {
        let first = g.rows[0].run;
        let durations: Vec<f64> = g.rows.iter().map(|r| r.run.duration_ms).collect();
        let spark = sparkline(&durations);
        let config = format!(
            "threads={} chunk={} lanes={} profile={} target={}",
            first.threads, first.chunk, first.lanes, first.cargo_profile, first.target
        );

        md.push_str(&format!("### {} — config `{:016x}`\n\n", g.bin, g.fp));
        md.push_str(&format!("{config}  \nduration trend: `{spark}`\n\n"));
        md.push_str(
            "| seq | outcome | duration ms | Δ vs prev | cache hits | artifacts | flag |\n",
        );
        md.push_str("|---:|---|---:|---:|---:|---:|---|\n");

        html_body.push_str(&format!(
            "<h3>{} — config <code>{:016x}</code></h3>\n<p>{}<br>duration trend: \
             <code>{}</code></p>\n<table>\n<tr><th>seq</th><th>outcome</th>\
             <th>duration ms</th><th>Δ vs prev</th><th>cache hits</th>\
             <th>artifacts</th><th>flag</th></tr>\n",
            html_escape(g.bin),
            g.fp,
            html_escape(&config),
            html_escape(&spark),
        ));

        for r in &g.rows {
            let delta = r.delta_pct.map_or("—".to_owned(), |d| format!("{d:+.1}%"));
            let mut flags: Vec<&str> = Vec::new();
            if r.regressed {
                flags.push("REGRESSION");
            }
            if r.run.outcome != RunOutcome::Ok {
                flags.push(outcome_label(r.run.outcome));
            }
            let flag = flags.join(" ");
            md.push_str(&format!(
                "| {} | {} | {:.1} | {} | {} | {} | {} |\n",
                r.run.seq,
                outcome_label(r.run.outcome),
                r.run.duration_ms,
                delta,
                cache_rate(r.run),
                r.run.artifacts.len(),
                flag
            ));
            html_body.push_str(&format!(
                "<tr{}><td>{}</td><td>{}</td><td>{:.1}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td></tr>\n",
                if r.regressed {
                    " class=\"regression\""
                } else {
                    ""
                },
                r.run.seq,
                outcome_label(r.run.outcome),
                r.run.duration_ms,
                html_escape(&delta),
                cache_rate(r.run),
                r.run.artifacts.len(),
                html_escape(&flag)
            ));
        }
        md.push('\n');
        html_body.push_str("</table>\n");
    }

    // Knob diffs: consecutive runs of the same *bin* regardless of
    // fingerprint — exactly the "what changed between these two runs"
    // question a split trend group raises.
    let mut bins: Vec<&str> = runs.iter().map(|m| m.bin.as_str()).collect();
    bins.sort_unstable();
    bins.dedup();
    let mut diff_md = String::new();
    let mut diff_html = String::new();
    for bin in bins {
        let mut of_bin: Vec<&RunManifest> = runs.iter().filter(|m| m.bin == bin).collect();
        of_bin.sort_by_key(|m| m.seq);
        for pair in of_bin.windows(2) {
            let changes = knob_diff(pair[0], pair[1]);
            if changes.is_empty() {
                continue;
            }
            let line = format!(
                "{bin} seq {} → {}: {}",
                pair[0].seq,
                pair[1].seq,
                changes.join("; ")
            );
            diff_md.push_str(&format!("- {line}\n"));
            diff_html.push_str(&format!("<li>{}</li>\n", html_escape(&line)));
        }
    }
    md.push_str("## Knob changes between runs\n\n");
    html_body.push_str("<h2>Knob changes between runs</h2>\n");
    if diff_md.is_empty() {
        md.push_str("_none — every consecutive pair ran under identical knobs_\n\n");
        html_body
            .push_str("<p><em>none — every consecutive pair ran under identical knobs</em></p>\n");
    } else {
        md.push_str(&diff_md);
        md.push('\n');
        html_body.push_str(&format!("<ul>\n{diff_html}</ul>\n"));
    }

    md.push_str("## Committed bench baselines\n\n");
    html_body.push_str("<h2>Committed bench baselines</h2>\n");
    if bench.is_empty() {
        md.push_str("_none found_\n");
        html_body.push_str("<p><em>none found</em></p>\n");
    } else {
        md.push_str("| file | record | kind | value | allowed change |\n|---|---|---|---:|---:|\n");
        html_body.push_str(
            "<table>\n<tr><th>file</th><th>record</th><th>kind</th><th>value</th>\
             <th>allowed change</th></tr>\n",
        );
        for b in bench {
            for r in &b.records {
                let value = r.value.map_or("—".to_owned(), |v| format!("{v}"));
                let cells = [
                    b.name.as_str(),
                    &r.name,
                    r.kind.label(),
                    &value,
                    &r.allowed_change(),
                ];
                md.push_str(&format!("| {} |\n", cells.join(" | ")));
                html_body.push_str("<tr>");
                for c in cells {
                    html_body.push_str(&format!("<td>{}</td>", html_escape(c)));
                }
                html_body.push_str("</tr>\n");
            }
        }
    }

    let html = format!(
        "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>SuperNPU run observatory</title>\n<style>\n\
         body {{ font-family: system-ui, sans-serif; margin: 2rem; }}\n\
         table {{ border-collapse: collapse; margin: 0.5rem 0 1.5rem; }}\n\
         th, td {{ border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: right; }}\n\
         th {{ background: #f2f2f2; }}\n\
         td:nth-child(2), th:nth-child(2) {{ text-align: left; }}\n\
         tr.regression td {{ background: #ffe0e0; font-weight: bold; }}\n\
         code {{ background: #f6f6f6; padding: 0 0.2rem; }}\n\
         </style>\n</head>\n<body>\n{html_body}</body>\n</html>\n"
    );

    Report {
        markdown: md,
        html,
        regressions,
        groups: groups.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_obs::ledger::KnobSetting;

    fn manifest(bin: &str, seq: u64, duration_ms: f64, threads: u64) -> RunManifest {
        RunManifest {
            schema_version: 1,
            bin: bin.to_owned(),
            seq,
            args: vec![],
            env: vec![KnobSetting {
                name: "SUPERNPU_THREADS".into(),
                value: threads.to_string(),
            }],
            threads,
            chunk: 0,
            lanes: 4,
            seeds: vec![42],
            cargo_profile: "release".into(),
            target: "x86_64-linux".into(),
            duration_ms,
            outcome: RunOutcome::Ok,
            cache_hits: 10,
            cache_misses: 2,
            artifacts: vec!["BENCH_x.json".into()],
        }
    }

    #[test]
    fn fingerprint_ignores_observability_knobs_only() {
        let a = manifest("b", 1, 10.0, 4);
        let mut b = a.clone();
        b.env.push(KnobSetting {
            name: "SUPERNPU_TRACE".into(),
            value: "t.json".into(),
        });
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "trace knob must not split"
        );
        let mut c = a.clone();
        c.env[0].value = "8".into();
        assert_ne!(fingerprint(&a), fingerprint(&c), "thread knob must split");
    }

    #[test]
    fn regression_flag_follows_the_trend_rule() {
        let runs = vec![
            manifest("fig20", 1, 100.0, 4),
            manifest("fig20", 2, 250.0, 4), // exactly 100 × 1.5 + 100 ms
            manifest("fig20", 3, 476.0, 4), // 476 > 250 × 1.5 + 100 → regression
        ];
        let report = build(&runs, &[]);
        assert_eq!(report.groups, 1);
        assert_eq!(report.regressions, 1);
        assert!(report.markdown.contains("REGRESSION"));
        assert!(report.html.contains("class=\"regression\""));
    }

    #[test]
    fn knob_diff_names_every_change() {
        let a = manifest("b", 1, 10.0, 4);
        let mut b = manifest("b", 2, 10.0, 8);
        b.env.push(KnobSetting {
            name: "SUPERNPU_CHUNK".into(),
            value: "16".into(),
        });
        let d = knob_diff(&a, &b);
        assert!(
            d.iter().any(|c| c.contains("SUPERNPU_THREADS 4→8")),
            "{d:?}"
        );
        assert!(d.iter().any(|c| c.contains("+SUPERNPU_CHUNK=16")), "{d:?}");
        assert!(d.iter().any(|c| c.contains("threads 4→8")), "{d:?}");
        assert!(knob_diff(&a, &a).is_empty());
    }

    #[test]
    fn build_is_deterministic() {
        let runs = vec![manifest("a", 1, 5.0, 4), manifest("a", 2, 6.0, 4)];
        let bench = vec![BenchFile {
            name: "BENCH_solver.json".into(),
            records: vec![Record::timing(
                "jtl_chain_8.adaptive_ms",
                0.8,
                0.45,
                "spread",
            )],
        }];
        let report = build(&runs, &bench);
        assert_eq!(report, build(&runs, &bench));
        assert!(
            report
                .markdown
                .contains("| BENCH_solver.json | jtl_chain_8.adaptive_ms | timing | 0.8 | +45% |"),
            "{}",
            report.markdown
        );
    }

    #[test]
    fn sparkline_spans_blocks() {
        assert_eq!(sparkline(&[1.0, 1.0]), "▁▁");
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.ends_with('█'));
    }
}
