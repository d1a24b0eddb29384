//! Fixed-step vs adaptive-step transient solver benchmark across the
//! stdlib cells, written to `BENCH_solver.json`.
//!
//! For every cell testbench the binary runs the same circuit twice —
//! once with the historical fixed 0.1 ps march, once with
//! `SimOptions::adaptive()` — and prints accepted/rejected step
//! counts, best-of-3 wall clock, per-junction pulse counts and the
//! worst pulse-time deviation. It exits nonzero if any cell's pulse
//! counts differ, any pulse time moves by more than 0.5 ps, or the
//! aggregate step reduction falls below the 3× the adaptive
//! controller is expected to deliver on this (mostly quiescent)
//! suite, so the perf trajectory is enforced, not just logged.
//!
//! The report gates the step, rejection, pulse and LU counts as
//! invariants and the aggregate step ratio as a floor. The wall clocks
//! are printed, not gated: over 20 runs on a 2-vCPU host each cell's
//! best-of-3 time spread 2.1–2.5× from fastest to slowest run.

use std::time::Instant;

use jjsim::stdlib::{
    clocked_and, dff, jtl_chain, shift_register, splitter, AndParams, DffParams, JtlParams,
};
use jjsim::{Circuit, ElementId, SimOptions, SimResult, Solver};
use supernpu_bench::gate::{self, Record};
use supernpu_bench::report::die;

/// Maximum tolerated pulse-time shift between the two modes, seconds.
const PULSE_TOL_S: f64 = 0.5e-12;

/// Required aggregate (summed over cells) step reduction.
const MIN_STEP_RATIO: f64 = 3.0;

struct CellBench {
    name: &'static str,
    fixed_steps: u64,
    adaptive_steps: u64,
    adaptive_rejected: u64,
    pulses: u64,
    pulse_counts_match: bool,
    max_pulse_delta_s: f64,
}

/// Best-of-3 wall clock for one solve; min (not mean) because
/// scheduling noise only ever adds time.
fn timed(build: &dyn Fn() -> Circuit, opts: &SimOptions, t_end: f64) -> (SimResult, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let solver = Solver::new(build(), opts.clone())
            .unwrap_or_else(|e| die(format!("stdlib circuit invalid: {e}")));
        let t0 = Instant::now();
        let res = solver
            .try_run(t_end)
            .unwrap_or_else(|e| die(format!("stdlib transient failed: {e}")));
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(res);
    }
    match out {
        Some(res) => (res, best),
        None => die("timed(): zero iterations ran"),
    }
}

fn bench(
    name: &'static str,
    t_end: f64,
    probes: &[ElementId],
    build: &dyn Fn() -> Circuit,
) -> CellBench {
    let (fixed, fixed_ms) = timed(build, &SimOptions::default(), t_end);
    let (adaptive, adaptive_ms) = timed(build, &SimOptions::adaptive(), t_end);

    let mut counts_match = true;
    let mut max_delta = 0.0f64;
    let mut pulses = 0;
    for &jj in probes {
        let f = fixed.pulse_times(jj);
        let a = adaptive.pulse_times(jj);
        pulses += f.len() as u64;
        if f.len() != a.len() {
            counts_match = false;
            continue;
        }
        for (tf, ta) in f.iter().zip(a) {
            max_delta = max_delta.max((tf - ta).abs());
        }
    }

    println!(
        "{name:>16}: fixed {:6} steps {fixed_ms:7.2} ms | adaptive {:5} (+{:3} rej) steps \
         {adaptive_ms:7.2} ms | {:4.1}x fewer | max pulse shift {:5.3} ps | counts match: \
         {counts_match}",
        fixed.accepted_steps,
        adaptive.accepted_steps,
        adaptive.rejected_steps,
        fixed.accepted_steps as f64 / adaptive.accepted_steps as f64,
        max_delta * 1e12,
    );
    CellBench {
        name,
        fixed_steps: fixed.accepted_steps,
        adaptive_steps: adaptive.accepted_steps,
        adaptive_rejected: adaptive.rejected_steps,
        pulses,
        pulse_counts_match: counts_match,
        max_pulse_delta_s: max_delta,
    }
}

fn main() {
    let _session = supernpu_bench::session::begin("bench_solver");
    sfq_obs::set_enabled(true);
    supernpu_bench::header(
        "BENCH solver",
        "fixed vs adaptive timestepping on the stdlib cell testbenches",
    );

    let jtl_p = JtlParams::default();
    let dff_p = DffParams::default();
    let and_p = AndParams::default();
    let clocks = [100e-12, 140e-12, 180e-12];

    let mut results: Vec<CellBench> = Vec::new();
    {
        let (_, probes) = jtl_chain(8, &jtl_p);
        results.push(bench("jtl_chain_8", 380e-12, &probes, &|| {
            jtl_chain(8, &jtl_p).0
        }));
    }
    {
        let (_, p) = splitter(&jtl_p);
        results.push(bench(
            "splitter",
            140e-12,
            &[p.input, p.out_a, p.out_b],
            &|| splitter(&jtl_p).0,
        ));
    }
    {
        let (_, p) = dff(&[60e-12], &[100e-12], &dff_p);
        results.push(bench("dff", 170e-12, &[p.input, p.output], &|| {
            dff(&[60e-12], &[100e-12], &dff_p).0
        }));
    }
    {
        let (_, p) = clocked_and(&[60e-12], &[60e-12], &[100e-12], &and_p);
        results.push(bench(
            "clocked_and",
            170e-12,
            &[p.store_a, p.store_b, p.output],
            &|| clocked_and(&[60e-12], &[60e-12], &[100e-12], &and_p).0,
        ));
    }
    {
        let (_, p) = shift_register(3, 60e-12, &clocks, 0.0, &dff_p);
        results.push(bench(
            "shift_register_3",
            240e-12,
            &p.stage_outputs,
            &|| shift_register(3, 60e-12, &clocks, 0.0, &dff_p).0,
        ));
    }

    // Banded-path cell: a 40-stage JTL has >24 unknowns at bandwidth
    // ~1, so it exercises the packed-band factor/solve and fused-stamp
    // kernels the small cells above never reach. It keeps a pulse in
    // flight for most of the run, so it is reported (and gated)
    // separately from the quiescent cells' aggregate step-ratio; the
    // LU counter deltas prove the banded path actually engaged.
    let lu_factor_before = sfq_obs::counter("jjsim.solver.lu_factor").get();
    let lu_reuse_before = sfq_obs::counter("jjsim.solver.lu_reuse").get();
    let banded = {
        let (_, probes) = jtl_chain(40, &jtl_p);
        bench("jtl_chain_40", 400e-12, &probes, &|| {
            jtl_chain(40, &jtl_p).0
        })
    };
    let banded_lu_factor = sfq_obs::counter("jjsim.solver.lu_factor").get() - lu_factor_before;
    let banded_lu_reuse = sfq_obs::counter("jjsim.solver.lu_reuse").get() - lu_reuse_before;

    let fixed_total: u64 = results.iter().map(|r| r.fixed_steps).sum();
    let adaptive_total: u64 = results.iter().map(|r| r.adaptive_steps).sum();
    let ratio = fixed_total as f64 / adaptive_total as f64;
    let worst_delta = results
        .iter()
        .map(|r| r.max_pulse_delta_s)
        .fold(banded.max_pulse_delta_s, f64::max);
    let all_match = results.iter().all(|r| r.pulse_counts_match) && banded.pulse_counts_match;
    println!(
        "\ntotal: fixed {fixed_total} steps vs adaptive {adaptive_total} steps = {ratio:.1}x \
         reduction; worst pulse shift {:.3} ps",
        worst_delta * 1e12
    );

    const STEPS: &str = "deterministic: the same testbench takes the same steps";
    const PULSES: &str = "the fixed-step run's pulses, which the adaptive run must reproduce";
    let mut records = Vec::new();
    for r in results.iter().chain([&banded]) {
        records.extend([
            Record::invariant(format!("{}.fixed_steps", r.name), r.fixed_steps, STEPS),
            Record::invariant(
                format!("{}.adaptive_steps", r.name),
                r.adaptive_steps,
                STEPS,
            ),
            Record::invariant(
                format!("{}.adaptive_rejected", r.name),
                r.adaptive_rejected,
                STEPS,
            ),
            Record::invariant(format!("{}.pulses", r.name), r.pulses, PULSES),
        ]);
    }
    records.extend([
        Record::invariant(
            "jtl_chain_40.lu_factor",
            banded_lu_factor,
            "banded LU factorizations of the 40-stage chain; zero means the band path never ran",
        ),
        Record::invariant("jtl_chain_40.lu_reuse", banded_lu_reuse, STEPS),
        Record::floor(
            "step_ratio_total",
            Some(ratio),
            MIN_STEP_RATIO,
            "the step reduction the adaptive controller promises on the quiescent cells",
        ),
    ]);
    gate::write("BENCH_solver.json", &records).unwrap_or_else(|e| die(e));

    if !all_match {
        supernpu_bench::session::fail("adaptive pulse counts diverged from fixed-step");
    }
    if worst_delta > PULSE_TOL_S {
        supernpu_bench::session::fail(format!(
            "pulse time moved {:.3} ps (tolerance {:.3} ps)",
            worst_delta * 1e12,
            PULSE_TOL_S * 1e12
        ));
    }
    if ratio < MIN_STEP_RATIO {
        supernpu_bench::session::fail(format!(
            "step reduction {ratio:.2}x below required {MIN_STEP_RATIO}x"
        ));
    }
    if banded_lu_factor == 0 {
        supernpu_bench::session::fail("jtl_chain_40 never hit the banded factorization path");
    }
}
