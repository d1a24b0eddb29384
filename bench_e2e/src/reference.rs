//! `model_err_pct`: the reproduction's headline numbers against the
//! values the paper prints (`paper_reference.csv`).

use sfq_cells::CellLibrary;
use sfq_estimator::clocking::feedback_comparison;
use supernpu::designs::DesignPoint;
use supernpu::evaluator::{average_speedup, fig23_performance, table1_setup, table3_power};
use supernpu::explore::fig20_buffer_sweep;

const TABLE: &str = include_str!("../paper_reference.csv");

pub struct ModelError {
    /// Mean relative error over the table, percent.
    pub mean_pct: f64,
    /// (id, paper value, measured value, source) per row.
    pub rows: Vec<(String, f64, f64, String)>,
}

/// The reproduction's value of every quantity the table names.
fn measured() -> Result<Vec<(&'static str, f64)>, String> {
    let t1 = table1_setup();
    let t1_row = |design: &str| {
        t1.iter()
            .find(|r| r.design == design)
            .ok_or(format!("Table I has no {design} row"))
    };
    let f23 = fig23_performance();
    let t3 = table3_power();
    let t3_w = |variant: &str| {
        t3.iter()
            .find(|r| r.variant == variant)
            .map(|r| r.power_w)
            .ok_or(format!("Table III has no {variant} row"))
    };
    let fb = feedback_comparison(&CellLibrary::aist_10um());
    let f20 = fig20_buffer_sweep();
    let div64 = f20
        .iter()
        .find(|p| p.division == 64)
        .ok_or("Fig. 20 has no division-64 point")?;
    Ok(vec![
        ("table1.clock_ghz", t1_row("SuperNPU")?.frequency_ghz),
        ("table1.peak_tmacs_256wide", t1_row("Baseline")?.peak_tmacs),
        ("table1.peak_tmacs_64wide", t1_row("SuperNPU")?.peak_tmacs),
        (
            "fig23.speedup_baseline",
            average_speedup(&f23, DesignPoint::Baseline),
        ),
        (
            "fig23.speedup_buffer_opt",
            average_speedup(&f23, DesignPoint::BufferOpt),
        ),
        (
            "fig23.speedup_resource_opt",
            average_speedup(&f23, DesignPoint::ResourceOpt),
        ),
        (
            "fig23.speedup_supernpu",
            average_speedup(&f23, DesignPoint::SuperNpu),
        ),
        ("table3.rsfq_power_w", t3_w("RSFQ-SuperNPU (w/o cooling)")?),
        (
            "table3.ersfq_power_w",
            t3_w("ERSFQ-SuperNPU (w/o cooling)")?,
        ),
        ("fig7c.fa_no_feedback_ghz", fb.fa_feedforward_ghz),
        ("fig7c.fa_feedback_ghz", fb.fa_feedback_ghz),
        ("fig7c.sr_no_feedback_ghz", fb.sr_feedforward_ghz),
        ("fig7c.sr_feedback_ghz", fb.sr_feedback_ghz),
        ("fig20.single_batch_saturation", div64.single_batch),
        ("fig20.max_batch_saturation", div64.max_batch),
    ])
}

/// Compare every row of the reference table with the reproduction.
pub fn model_error() -> Result<ModelError, String> {
    let values = measured()?;
    let mut rows = Vec::new();
    for line in TABLE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let mut f = line.splitn(4, ',');
        let (Some(id), Some(paper), Some(_unit), Some(source)) =
            (f.next(), f.next(), f.next(), f.next())
        else {
            return Err(format!("malformed reference row: {line}"));
        };
        let paper: f64 = paper.parse().map_err(|e| format!("{id}: {e}"))?;
        let got = values
            .iter()
            .find(|(k, _)| *k == id)
            .map(|&(_, v)| v)
            .ok_or(format!("no measured value for {id}"))?;
        rows.push((id.to_owned(), paper, got, source.to_owned()));
    }
    if rows.len() != values.len() {
        return Err(format!(
            "reference table has {} rows, {} quantities are measured",
            rows.len(),
            values.len()
        ));
    }
    let mean_pct = 100.0
        * rows
            .iter()
            .map(|(_, p, m, _)| ((m - p) / p).abs())
            .sum::<f64>()
        / rows.len() as f64;
    Ok(ModelError { mean_pct, rows })
}
