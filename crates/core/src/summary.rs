//! Whole-paper summary: run every experiment and render one Markdown
//! report (the artifact a reviewer would skim first).

use std::fmt::Write as _;

use crate::ablations::all_ablations;
use crate::designs::DesignPoint;
use crate::evaluator::{
    average_speedup, fig15_cycle_breakdown, fig17_roofline, fig23_performance, table1_setup,
    table2_batches, table3_power,
};
use crate::explore::{fig20_buffer_sweep, fig21_resource_sweep, fig22_register_sweep};

fn md_table(out: &mut String, headers: &[&str], rows: &[Vec<String>]) {
    let _ = writeln!(out, "| {} |", headers.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for r in rows {
        let _ = writeln!(out, "| {} |", r.join(" | "));
    }
    let _ = writeln!(out);
}

/// Generate the full Markdown report from every evaluation function.
/// The eight that simulate are memoized per process, so after the
/// artifacts that compute them have run (as in `run_all`) this only
/// renders; in a cold process it computes them first.
pub fn full_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# SuperNPU reproduction — full report\n");

    // Headline.
    let fig23 = fig23_performance();
    let _ = writeln!(out, "## Headline (Fig. 23)\n");
    let mut rows: Vec<Vec<String>> = fig23
        .iter()
        .map(|r| {
            vec![
                r.network.clone(),
                format!("{:.1}", r.tpu_tmacs),
                format!("{:.2}x", r.speedup(DesignPoint::Baseline)),
                format!("{:.2}x", r.speedup(DesignPoint::BufferOpt)),
                format!("{:.2}x", r.speedup(DesignPoint::ResourceOpt)),
                format!("{:.2}x", r.speedup(DesignPoint::SuperNpu)),
            ]
        })
        .collect();
    let mut geo = vec!["**geomean**".to_owned(), "1.0".to_owned()];
    for d in DesignPoint::SFQ_DESIGNS {
        geo.push(format!("**{:.2}x**", average_speedup(&fig23, d)));
    }
    rows.push(geo);
    md_table(
        &mut out,
        &[
            "workload",
            "TPU TMAC/s",
            "Baseline",
            "Buffer opt.",
            "Resource opt.",
            "SuperNPU",
        ],
        &rows,
    );

    // Table I.
    let _ = writeln!(out, "## Setup (Table I)\n");
    let rows: Vec<Vec<String>> = table1_setup()
        .into_iter()
        .map(|r| {
            vec![
                r.design,
                format!("{}x{}", r.array.0, r.array.1),
                format!("{:.1}", r.frequency_ghz),
                format!("{:.0}", r.peak_tmacs),
                format!("{:.0}", r.area_mm2_28nm),
            ]
        })
        .collect();
    md_table(
        &mut out,
        &["design", "array", "GHz", "peak TMAC/s", "mm² @28nm"],
        &rows,
    );

    // Table II.
    let _ = writeln!(out, "## Batches (Table II)\n");
    let rows: Vec<Vec<String>> = table2_batches()
        .into_iter()
        .map(|r| {
            let mut row = vec![r.network];
            row.extend(r.batches.iter().map(ToString::to_string));
            row
        })
        .collect();
    md_table(
        &mut out,
        &[
            "workload",
            "TPU",
            "Baseline",
            "Buffer opt.",
            "Resource opt.",
            "SuperNPU",
        ],
        &rows,
    );

    // Table III.
    let _ = writeln!(out, "## Power efficiency (Table III)\n");
    let rows: Vec<Vec<String>> = table3_power()
        .into_iter()
        .map(|r| {
            vec![
                r.variant,
                format!("{:.2}", r.power_w),
                format!("{:.3}", r.perf_per_watt_vs_tpu),
            ]
        })
        .collect();
    md_table(&mut out, &["variant", "power W", "perf/W vs TPU"], &rows);

    // Bottlenecks.
    let _ = writeln!(out, "## Baseline bottlenecks (Figs. 15 & 17)\n");
    let rows: Vec<Vec<String>> = fig15_cycle_breakdown()
        .into_iter()
        .zip(fig17_roofline())
        .map(|(b, r)| {
            vec![
                b.network,
                format!("{:.1}%", 100.0 * b.preparation),
                format!("{:.1}", r.intensity_mac_per_byte),
                format!("{:.2}%", 100.0 * r.roofline_gmacs / r.peak_gmacs),
            ]
        })
        .collect();
    md_table(
        &mut out,
        &["workload", "prep cycles", "MAC/byte (b=1)", "roofline util"],
        &rows,
    );

    // Optimization sweeps.
    let _ = writeln!(out, "## Optimization sweeps (Figs. 20–22)\n");
    let rows: Vec<Vec<String>> = fig20_buffer_sweep()
        .into_iter()
        .map(|p| {
            vec![
                p.label,
                format!("{:.2}x", p.single_batch),
                format!("{:.2}x", p.max_batch),
                format!("{:.3}x", p.area),
            ]
        })
        .collect();
    md_table(
        &mut out,
        &["buffer config", "single batch", "max batch", "area"],
        &rows,
    );

    let rows: Vec<Vec<String>> = fig21_resource_sweep()
        .into_iter()
        .map(|p| {
            vec![
                format!("{} / {} MB", p.width, p.buffer_mb),
                format!("{:.1}x", p.max_batch_fixed_buffer),
                format!("{:.1}x", p.max_batch_added_buffer),
            ]
        })
        .collect();
    md_table(
        &mut out,
        &["width / buffer", "24 MB kept", "added buffer"],
        &rows,
    );

    let pts = fig22_register_sweep();
    let rows: Vec<Vec<String>> = [1u32, 2, 4, 8, 16, 32]
        .iter()
        .map(|&regs| {
            let perf = |w: u32| {
                pts.iter()
                    .find(|p| p.width == w && p.regs == regs)
                    .map_or(0.0, |p| p.performance)
            };
            vec![
                regs.to_string(),
                format!("{:.1}x", perf(64)),
                format!("{:.1}x", perf(128)),
            ]
        })
        .collect();
    md_table(&mut out, &["regs/PE", "width 64", "width 128"], &rows);

    // Ablations.
    let _ = writeln!(out, "## Design-choice ablations (§III)\n");
    let rows: Vec<Vec<String>> = all_ablations()
        .into_iter()
        .map(|r| {
            vec![
                r.choice.clone(),
                format!("{:.1}", r.adopted_tmacs),
                format!("{:.1}", r.alternative_tmacs),
                format!("{:.2}x", r.gain()),
            ]
        })
        .collect();
    md_table(
        &mut out,
        &["choice", "adopted", "alternative", "gain"],
        &rows,
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_every_section() {
        let r = full_report();
        for section in [
            "Headline (Fig. 23)",
            "Setup (Table I)",
            "Batches (Table II)",
            "Power efficiency (Table III)",
            "Baseline bottlenecks",
            "Optimization sweeps",
            "Design-choice ablations",
        ] {
            assert!(r.contains(section), "missing section {section}");
        }
        // Sanity: the geomean row exists and the report is substantial.
        assert!(r.contains("**geomean**"));
        assert!(r.len() > 2000, "report length {}", r.len());
    }
}
