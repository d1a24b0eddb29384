//! Hierarchical-profiler report: run a representative workload with
//! `sfq_obs::prof` live, write the collapsed-stack + JSON exports, and
//! emit a gateable `BENCH_profile.json` kernel table.
//!
//! ```text
//! profile_report [--smoke] [--out results/profile.json] \
//!                [--bench-out BENCH_profile.json]
//! ```
//!
//! The full workload is the fig. 20 buffer-division sweep (exercises
//! the estimator cache and `sfq-par` worker regions), a from-scratch
//! stdlib characterization (transient solver under the chars cache
//! fill path) plus one repeat call (the cache hit path), and a
//! 40-stage JTL banded-cell transient wrapped in a `banded_cell`
//! region. The banded cell is where the coverage contract lives: the
//! profiled kernel self-times under `banded_cell;jjsim.solver.run`
//! must explain at least [`MIN_SELF_COVERAGE`] of its inclusive time,
//! else the solver's `KernelProf` laps have drifted off the hot loops.
//!
//! The bench report gates each kernel's call count as an invariant,
//! the coverage as a floor, and the self-time of the kernels in
//! [`TIMED_KERNELS`]; the other kernels' self-times spread 2.2–5× from
//! fastest to slowest over 40 runs on a 2-vCPU host, too wide to gate.
//!
//! `--smoke` swaps in a seconds-scale workload (estimator point +
//! short banded transient), skips the coverage hard-fail (debug-build
//! frame overhead is not timing-stable), and records the coverage
//! floor as not measured.
//!
//! Before enabling the profiler the binary runs a small transient with
//! profiling off and fails if any frame was recorded — the disabled
//! path must be a true no-op, not a cheap one.

use std::time::Instant;

use jjsim::stdlib::{jtl_chain, JtlParams};
use jjsim::{SimOptions, Solver};
use sfq_obs::prof;
use supernpu_bench::gate::{self, Record};
use supernpu_bench::report::die;

/// Required fraction of `banded_cell;jjsim.solver.run` inclusive time
/// explained by profiled descendant self-times (full mode): 0.05 under
/// the 0.97 the profiler explained when the floor was set (it read
/// 0.963–0.976 over 40 runs on a 2-vCPU host).
const MIN_SELF_COVERAGE: f64 = 0.92;

/// The kernels whose self-time is gated, with each one's tolerance:
/// max/min − 1 of its self-time over 40 runs on a 2-vCPU host,
/// rounded up to 0.05.
const TIMED_KERNELS: [(&str, f64); 2] = [("newton", 0.45), ("newton;lu_solve", 0.65)];

fn usage() -> ! {
    eprintln!("usage: profile_report [--smoke] [--out <profile.json>] [--bench-out <BENCH.json>]");
    std::process::exit(2);
}

/// One adaptive banded-cell transient inside a `banded_cell` region.
fn banded_transient(stages: usize, t_end: f64) {
    let _cell = sfq_obs::region("banded_cell");
    let (circuit, _probes) = jtl_chain(stages, &JtlParams::default());
    let solver = Solver::new(circuit, SimOptions::adaptive())
        .unwrap_or_else(|e| die(format!("stdlib circuit rejected: {e}")));
    solver
        .try_run(t_end)
        .unwrap_or_else(|e| die(format!("stdlib transient failed: {e}")));
}

fn main() {
    let _session = supernpu_bench::session::begin("profile_report");
    sfq_obs::set_enabled(true);

    let mut smoke = false;
    let mut out = String::from("results/profile.json");
    let mut bench_out = String::from("BENCH_profile.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = value(),
            "--bench-out" => bench_out = value(),
            _ => usage(),
        }
    }

    supernpu_bench::header(
        "BENCH profile",
        "hierarchical profile of the solver, sweep and cache paths",
    );

    // Disabled-path self-check: with no SUPERNPU_PROFILE in the
    // environment the warm-up transient must register zero per-thread
    // trees. When the env var *is* set the profiler is already live
    // (and its path wins over --out), so the check is vacuous.
    if !prof::enabled() {
        banded_transient(8, 60e-12);
        let trees = prof::threads_registered();
        if trees != 0 {
            supernpu_bench::session::fail(format!(
                "disabled profiler recorded {trees} thread trees (want 0)"
            ));
        }
        println!("disabled path: 0 frames recorded");
        prof::set_profile(Some(&out));
    } else if let Some(env_path) = prof::path() {
        out = env_path.display().to_string();
    }

    let wall = Instant::now();
    let workload = if smoke {
        let lib = sfq_cells::CellLibrary::aist_10um();
        let cfg = sfq_estimator::NpuConfig::paper_supernpu();
        sfq_estimator::estimate(&cfg, &lib); // cache miss
        sfq_estimator::estimate(&cfg, &lib); // cache hit
        banded_transient(40, 120e-12);
        "smoke: estimator point + short banded transient"
    } else {
        // Cold memos: the sweep computes (nothing in it characterizes)
        // and the characterization runs from scratch.
        supernpu_bench::clear_caches();
        supernpu::explore::fig20_buffer_sweep();
        sfq_chars::characterize()
            .unwrap_or_else(|e| die(format!("stdlib characterization failed: {e}")));
        sfq_chars::measure().unwrap_or_else(|e| die(format!("cached measurement failed: {e}"))); // cache hit
        banded_transient(40, 400e-12);
        "fig20 sweep + stdlib characterization + banded-cell transient"
    };
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    println!("workload ({workload}): {wall_ms:.1} ms wall");

    let report = prof::snapshot();
    println!("\n{}", report.render_top_table());

    // Coverage: profiled kernel self-times vs the banded solver run.
    let run_path = "banded_cell;jjsim.solver.run";
    let Some(run) = report.path(run_path) else {
        supernpu_bench::session::fail(format!(
            "profile has no '{run_path}' path — solver frames missing"
        ));
    };
    let kernel_self_ms = report.descendants_self_ms(run_path);
    let coverage = if run.incl_ms > 0.0 {
        kernel_self_ms / run.incl_ms
    } else {
        0.0
    };
    println!(
        "banded_cell;jjsim.solver.run: incl {:.3} ms, kernel self {:.3} ms, coverage {:.1}%",
        run.incl_ms,
        kernel_self_ms,
        coverage * 100.0
    );

    // Every profiled descendant of the banded solver run, named
    // relative to it ("newton;lu_solve").
    let prefix = format!("{run_path};");
    let mut records = vec![Record::floor(
        "self_coverage",
        (!smoke).then_some(coverage),
        MIN_SELF_COVERAGE,
        if smoke {
            "smoke run: debug-build frame overhead is not timing-stable"
        } else {
            "profiled kernel self-time must explain the banded solver run"
        },
    )];
    for p in report.paths.iter().filter(|p| p.path.starts_with(&prefix)) {
        let kernel = &p.path[prefix.len()..];
        records.push(Record::invariant(
            format!("{kernel}.calls"),
            p.calls,
            "deterministic: the same transient calls each kernel as often",
        ));
        if let Some((_, tolerance)) = TIMED_KERNELS.iter().find(|(k, _)| *k == kernel) {
            records.push(Record::timing(
                format!("{kernel}.self_ms"),
                p.self_ms,
                *tolerance,
                "max/min - 1 of the self-time over 40 runs on a 2-vCPU host, rounded up to 0.05",
            ));
        }
    }
    gate::write(&bench_out, &records).unwrap_or_else(|e| die(e));

    // JSON + collapsed-stack exports (path set above or via env).
    match prof::flush() {
        Ok(Some(path)) => {
            println!(
                "wrote {} and {}",
                path.display(),
                path.with_extension("folded").display()
            );
        }
        Ok(None) => eprintln!("WARNING: profiler has no output path; nothing written"),
        Err(e) => supernpu_bench::session::fail(format!("writing profile: {e}")),
    }

    // Perfetto counter tracks: top self-time paths as counter samples
    // alongside whatever the trace ring recorded (full mode only —
    // the smoke run's timings are noise).
    if !smoke {
        let mut ct = sfq_obs::trace::ChromeTrace::new();
        report.counter_tracks(&mut ct);
        let counters_path = std::path::Path::new(&out).with_file_name("profile_counters.json");
        match std::fs::write(&counters_path, ct.to_json()) {
            Ok(()) => println!("wrote {}", counters_path.display()),
            Err(e) => eprintln!("WARNING: writing {}: {e}", counters_path.display()),
        }
    }

    if !smoke && coverage < MIN_SELF_COVERAGE {
        supernpu_bench::session::fail(format!(
            "kernel self-time coverage {:.1}% below required {:.0}%",
            coverage * 100.0,
            MIN_SELF_COVERAGE * 100.0
        ));
    }
}
