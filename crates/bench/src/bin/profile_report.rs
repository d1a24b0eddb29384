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
//! the estimator cache and `sfq-par` worker frames), a from-scratch
//! stdlib characterization (transient solver under the chars cache
//! fill path) plus one repeat call (the cache hit path), and a
//! 40-stage JTL banded-cell transient wrapped in a `banded_cell`
//! frame. The banded cell is where the coverage contract lives: the
//! profiled kernel self-times under `banded_cell;solver.run` must
//! explain at least [`MIN_SELF_COVERAGE`] of its inclusive time, else
//! the solver's `KernelProf` laps have drifted off the hot loops.
//!
//! `--smoke` swaps in a seconds-scale workload (estimator point +
//! short banded transient), skips the coverage hard-fail (debug-build
//! frame overhead is not timing-stable), and stamps a zero coverage
//! floor into the bench report so a self-compare through
//! `bench_compare` stays green.
//!
//! Before enabling the profiler the binary runs a small transient with
//! profiling off and fails if any frame was recorded — the disabled
//! path must be a true no-op, not a cheap one.

use std::time::Instant;

use jjsim::stdlib::{jtl_chain, JtlParams};
use jjsim::{SimOptions, Solver};
use serde_json::Value;
use sfq_obs::prof;
use supernpu_bench::report::die;

/// Required fraction of `banded_cell;solver.run` inclusive time
/// explained by profiled descendant self-times (full mode).
const MIN_SELF_COVERAGE: f64 = 0.9;

fn usage() -> ! {
    eprintln!("usage: profile_report [--smoke] [--out <profile.json>] [--bench-out <BENCH.json>]");
    std::process::exit(2);
}

/// One adaptive banded-cell transient inside a `banded_cell` frame.
fn banded_transient(stages: usize, t_end: f64) {
    let _pf = prof::frame("banded_cell");
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

    let report = prof::snapshot();
    println!("\n{}", report.render_top_table());

    // Coverage: profiled kernel self-times vs the banded solver run.
    let run_path = "banded_cell;solver.run";
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
        "banded_cell;solver.run: incl {:.3} ms, kernel self {:.3} ms, coverage {:.1}%",
        run.incl_ms,
        kernel_self_ms,
        coverage * 100.0
    );

    // Kernel table: every profiled descendant of the banded solver
    // run, named relative to it ("newton;lu_solve").
    let prefix = format!("{run_path};");
    let kernels: Vec<Value> = report
        .paths
        .iter()
        .filter(|p| p.path.starts_with(&prefix))
        .map(|p| {
            Value::Object(vec![
                ("name".into(), Value::Str(p.path[prefix.len()..].into())),
                ("calls".into(), Value::U64(p.calls)),
                ("incl_ms".into(), Value::F64(p.incl_ms)),
                ("self_ms".into(), Value::F64(p.self_ms)),
                (
                    "share".into(),
                    Value::F64(if run.incl_ms > 0.0 {
                        p.self_ms / run.incl_ms
                    } else {
                        0.0
                    }),
                ),
            ])
        })
        .collect();
    let floor = if smoke { 0.0 } else { MIN_SELF_COVERAGE };
    let bench = Value::Object(vec![
        (
            "schema_version".into(),
            Value::U64(u64::from(sfq_obs::SCHEMA_VERSION)),
        ),
        ("workload".into(), Value::Str(workload.into())),
        ("smoke".into(), Value::Bool(smoke)),
        ("threads".into(), Value::U64(report.threads)),
        ("wall_ms".into(), Value::F64(wall_ms)),
        ("solver_run_incl_ms".into(), Value::F64(run.incl_ms)),
        ("solver_run_self_ms".into(), Value::F64(run.self_ms)),
        ("kernel_self_ms".into(), Value::F64(kernel_self_ms)),
        ("self_coverage".into(), Value::F64(coverage)),
        ("min_self_coverage".into(), Value::F64(floor)),
        ("total_self_ms".into(), Value::F64(report.total_self_ms)),
        ("kernels".into(), Value::Array(kernels)),
    ]);
    supernpu_bench::report::write_json_report(&bench_out, &bench).unwrap_or_else(|e| die(e));

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
