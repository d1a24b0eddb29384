//! Wall-clock benchmark of lane-batched transient solving: time the
//! scalar path (`SUPERNPU_LANES`-equivalent width 1) against the
//! batched path (width [`jjsim::LANES`]) on the Monte-Carlo yield
//! workload — the one consumer of lane batching — verify the outcomes
//! are identical, and write the measurements to `BENCH_batch.json`.
//!
//! Unlike the sweep bench, the speedup here is SIMD within one core —
//! lanes, not threads — so the worker pool is pinned to one thread for
//! the timed runs and the ≥2x floor on the yield workload binds on
//! every machine, serial CI boxes included.
//!
//! The run also checks equivalence: K = LANES parameter-perturbed
//! `jtl_chain_40` instances solved batched vs scalar must give the
//! same pulse counts and pulse times within 0.5 ps.
//!
//! The report gates the yield workload's speed-up as a floor. Its wall
//! clocks are printed, not gated: over 20 runs on a 2-vCPU host the
//! best-of-5 batched time spread 2.2× from fastest to slowest run.
//!
//! `--smoke` shrinks the workloads for CI: outcome identity and
//! equivalence are still hard-checked, but the speedup floor is
//! recorded as not measured (tiny workloads time as noise).

use std::time::Instant;

use jjsim::stdlib::{jtl_chain, JtlParams};
use jjsim::{BatchedTransient, SimOptions, Solver};
use sfq_faults::{run_outcomes, Cell, McOptions, Outcome};
use supernpu_bench::gate::{self, Record};
use supernpu_bench::report::die;

/// The yield workload must be at least this much faster batched.
const MIN_SPEEDUP: f64 = 2.0;
/// Batched pulse times may differ from scalar by at most this much.
const PULSE_TOL_PS: f64 = 0.5;

struct Workload {
    name: &'static str,
    scalar_ms: f64,
    batched_ms: f64,
    identical: bool,
    min_speedup: Option<f64>,
}

/// One timed invocation at the given batch width, in milliseconds.
fn timed_at<T>(width: usize, run: &mut dyn FnMut() -> T) -> (T, f64) {
    jjsim::set_batch_width(Some(width));
    let t0 = Instant::now();
    let out = run();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Time one workload at width 1 and width LANES and check the outputs
/// match exactly. Reps are *interleaved* (scalar, batched, scalar,
/// batched, …) with an untimed warmup pair first, and each side keeps
/// its best (min) wall clock: scheduling noise only ever adds time,
/// and interleaving keeps a mid-measurement load shift from skewing
/// the ratio the way timing all scalar reps before all batched reps
/// would.
fn bench<T: PartialEq>(
    name: &'static str,
    reps: usize,
    gated: bool,
    run: &mut dyn FnMut() -> T,
) -> Workload {
    timed_at(1, run);
    timed_at(jjsim::LANES, run);
    let (mut scalar_ms, mut batched_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut scalar_out, mut batched_out) = (None, None);
    for _ in 0..reps {
        let (out, ms) = timed_at(1, run);
        scalar_out = Some(out);
        scalar_ms = scalar_ms.min(ms);
        let (out, ms) = timed_at(jjsim::LANES, run);
        batched_out = Some(out);
        batched_ms = batched_ms.min(ms);
    }
    jjsim::set_batch_width(None);
    let identical = match (scalar_out, batched_out) {
        (Some(s), Some(b)) => s == b,
        _ => die(format!("{name}: benchmark needs reps >= 1")),
    };
    println!(
        "{name}: scalar {scalar_ms:8.1} ms | batched {batched_ms:8.1} ms | \
         speedup {:4.2}x | identical: {identical}",
        scalar_ms / batched_ms
    );
    Workload {
        name,
        scalar_ms,
        batched_ms,
        identical,
        min_speedup: gated.then_some(MIN_SPEEDUP),
    }
}

struct Equivalence {
    counts_match: bool,
    max_delta_ps: f64,
}

/// K = LANES ic-perturbed `jtl_chain_40` instances, batched vs scalar:
/// pulse counts must match exactly, pulse times within the tolerance.
fn equivalence(n_stages: usize) -> Equivalence {
    let scales = [1.0, 0.97, 1.03, 1.06];
    let t_end = 200e-12;
    let opts = SimOptions::adaptive();
    let built: Vec<_> = scales
        .iter()
        .map(|s| {
            let mut p = JtlParams::default();
            p.ic *= s;
            jtl_chain(n_stages, &p)
        })
        .collect();
    let circuits: Vec<_> = built.iter().map(|(c, _)| c.clone()).collect();

    jjsim::set_batch_width(Some(jjsim::LANES));
    let batched = BatchedTransient::new(circuits.clone(), opts.clone())
        .unwrap_or_else(|e| die(format!("equivalence circuits invalid: {e}")))
        .try_run(t_end);
    jjsim::set_batch_width(None);

    let mut counts_match = true;
    let mut max_delta_ps: f64 = 0.0;
    for ((ckt, stages), b) in built.iter().zip(batched) {
        let b = b.unwrap_or_else(|e| die(format!("batched equivalence run failed: {e}")));
        let s = Solver::new(ckt.clone(), opts.clone())
            .unwrap_or_else(|e| die(format!("scalar solver build failed: {e}")))
            .try_run(t_end)
            .unwrap_or_else(|e| die(format!("scalar equivalence run failed: {e}")));
        for &jj in stages {
            let (bt, st) = (b.pulse_times(jj), s.pulse_times(jj));
            if bt.len() != st.len() {
                counts_match = false;
                continue;
            }
            for (tb, ts) in bt.iter().zip(st) {
                max_delta_ps = max_delta_ps.max((tb - ts).abs() * 1e12);
            }
        }
    }
    println!(
        "equivalence (k={}, jtl_chain_{n_stages}): counts match: {counts_match} | \
         max pulse delta {max_delta_ps:.4} ps",
        scales.len()
    );
    Equivalence {
        counts_match,
        max_delta_ps,
    }
}

fn main() {
    let _session = supernpu_bench::session::begin("bench_batch");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let out_path = {
        let mut args = std::env::args();
        let mut path = "BENCH_batch.json".to_owned();
        while let Some(a) = args.next() {
            if a == "--out" {
                path = args.next().unwrap_or_else(|| die("--out takes a path"));
            }
        }
        path
    };
    supernpu_bench::header(
        "BENCH batch",
        "scalar-vs-lane-batched wall clock of the MC yield workload",
    );
    // One worker thread: the measured speedup must come from lanes,
    // not from the thread pool hiding scalar latency.
    sfq_par::set_threads(1);

    let (samples, reps) = if smoke { (40, 1) } else { (200, 5) };
    let mc = McOptions::new(samples);
    let mut yield_run = || -> Vec<Outcome> {
        run_outcomes(Cell::Jtl, 0.08, 42, &mc)
            .unwrap_or_else(|e| die(format!("yield workload failed: {e}")))
    };
    let yield_wl = bench("yield_200", reps, !smoke, &mut yield_run);

    sfq_par::clear_threads();

    let eq = equivalence(if smoke { 10 } else { 40 });

    let speedup = yield_wl.scalar_ms / yield_wl.batched_ms;
    let records = [Record::floor(
        "yield_200.speedup",
        yield_wl.min_speedup.map(|_| speedup),
        MIN_SPEEDUP,
        if smoke {
            "smoke run: too small to time"
        } else {
            "lanes are SIMD within one core, so the floor binds on every host"
        },
    )];
    gate::write(&out_path, &records).unwrap_or_else(|e| die(e));

    // Self-gate: identity and equivalence always; the speedup floor
    // only on full runs.
    let mut failed = false;
    if !yield_wl.identical {
        eprintln!(
            "ERROR: {}: batched outcomes differ from scalar",
            yield_wl.name
        );
        failed = true;
    }
    if let Some(floor) = yield_wl.min_speedup.filter(|&f| speedup < f) {
        eprintln!(
            "ERROR: {}: speedup {speedup:.2}x below required {floor:.2}x",
            yield_wl.name
        );
        failed = true;
    }
    if !eq.counts_match {
        eprintln!("ERROR: equivalence: pulse counts diverge from scalar");
        failed = true;
    }
    if eq.max_delta_ps > PULSE_TOL_PS {
        eprintln!(
            "ERROR: equivalence: max pulse delta {:.4} ps exceeds {PULSE_TOL_PS} ps",
            eq.max_delta_ps
        );
        failed = true;
    }
    if failed {
        supernpu_bench::session::fail("batch speedup/equivalence checks failed (see above)");
    }
}
