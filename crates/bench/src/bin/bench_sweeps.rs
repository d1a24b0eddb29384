//! Wall-clock benchmark of the parallel sweep engine: time the
//! Fig. 20/21/22 design-space sweeps serially (one thread) and with
//! the full worker pool, verify the outputs are bit-identical, and
//! write the measurements to `BENCH_sweeps.json`.
//!
//! The memo caches (results, estimator, characterization) are cleared
//! before every timed run so each configuration pays the same
//! cold-start cost; without that, whichever run goes second would win
//! on cache hits rather than on parallelism.
//!
//! Metrics are force-enabled for the whole run: every sweep row in
//! `BENCH_sweeps.json` carries the memo-cache hit/miss counts of its
//! final parallel iteration plus a full [`sfq_obs`] snapshot of the
//! sweep (serial + parallel timed passes), so a regression in, say,
//! `par.task_ms` or `estimator.estimate.cache_miss` is visible right
//! next to the wall-clock numbers it explains.
//!
//! `--points N` additionally runs a granularity stress sweep: `N`
//! synthetic design points (cheap, memo-bypassing
//! [`sfq_estimator::estimate_uncached`] calls — roughly the fig22 grid
//! scaled to 1e5..1e6 points) are mapped over a ladder of thread
//! counts, and each rung records wall clock, speedup vs the one-thread
//! run, bit-identity of the outputs, and whether the speedup clears
//! 0.8x the *effective* parallelism `min(threads, logical_cores)`
//! (vacuously true at one effective core, where the chunker's serial
//! fallback makes "parallel" and serial the same loop).

use std::time::Instant;

use serde::Serialize as _;
use serde_json::Value;
use sfq_estimator::{estimate_uncached, NpuConfig};
use supernpu::explore::{fig20_buffer_sweep, fig21_resource_sweep, fig22_register_sweep};
use supernpu_bench::report::{die, write_report};

const MB: u64 = 1024 * 1024;

/// Stress speedup must reach this fraction of the effective core count.
const STRESS_SCALING_FRAC: f64 = 0.8;

struct SweepResult {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    identical: bool,
    estimate_cache: (u64, u64),
    measure_cache: (u64, u64),
    metrics: sfq_obs::MetricsReport,
}

/// Best-of-3 wall clock; min (not mean) because scheduling noise only
/// ever adds time.
fn timed(run: &dyn Fn() -> String, threads: usize) -> (String, f64) {
    sfq_par::set_threads(threads);
    let mut best = f64::INFINITY;
    let mut out = String::new();
    for _ in 0..3 {
        supernpu_bench::clear_caches();
        let t0 = Instant::now();
        out = run();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (out, best)
}

fn bench(name: &'static str, run: &dyn Fn() -> String, pool: usize) -> SweepResult {
    // Warm-up pass so page faults and lazy statics land outside the
    // measured window.
    supernpu_bench::clear_caches();
    let _ = run();
    // Fresh counters per sweep so the snapshot is attributable to it.
    sfq_obs::reset();
    let (serial_out, serial_ms) = timed(run, 1);
    let (parallel_out, parallel_ms) = timed(run, pool);
    // With a one-thread pool both passes execute the identical serial
    // code path, so any measured difference is pure scheduler noise —
    // on a small sweep it can easily read as a phantom "0.94x
    // regression". Pool the samples (best of all six runs) into both
    // sides so the recorded speedup is exactly 1.0.
    let (serial_ms, parallel_ms) = if pool == 1 {
        let best = serial_ms.min(parallel_ms);
        (best, best)
    } else {
        (serial_ms, parallel_ms)
    };
    let identical = serial_out == parallel_out;
    // Cache clearing inside `timed` also resets the hit/miss counters,
    // so these stats describe exactly the last parallel iteration.
    let est = memo_counts("estimator.estimate");
    let meas = memo_counts("chars.measure");
    println!(
        "{name}: serial {serial_ms:8.1} ms | parallel {parallel_ms:8.1} ms | \
         speedup {:4.2}x | identical: {identical}",
        serial_ms / parallel_ms
    );
    SweepResult {
        name,
        serial_ms,
        parallel_ms,
        identical,
        estimate_cache: est,
        measure_cache: meas,
        metrics: sfq_obs::snapshot(),
    }
}

/// `(hits, misses)` of the memo counting into `<name>.cache_hit` and
/// `<name>.cache_miss`.
fn memo_counts(name: &str) -> (u64, u64) {
    (
        sfq_obs::counter(&format!("{name}.cache_hit")).get(),
        sfq_obs::counter(&format!("{name}.cache_miss")).get(),
    )
}

fn cache_value(stats: (u64, u64)) -> Value {
    Value::Object(vec![
        ("hits".into(), Value::U64(stats.0)),
        ("misses".into(), Value::U64(stats.1)),
    ])
}

/// Deterministic synthetic design points for the stress sweep: the
/// fig22 neighborhood (width x regs x buffer) tiled out to `n` points.
/// Every field is a pure function of the index, so any two runs (and
/// any two thread counts) see byte-identical inputs.
fn synthetic_points(n: usize) -> Vec<NpuConfig> {
    let widths = [16u32, 32, 64, 128, 256];
    (0..n)
        .map(|i| {
            let width = widths[i % widths.len()];
            let regs = 1u32 << ((i / widths.len()) % 4);
            let buffer_mb = 16 + (i % 41) as u64;
            NpuConfig {
                name: format!("stress{i}"),
                array_width: width,
                regs_per_pe: regs,
                division: 64 * (256 / width).max(1),
                ifmap_buf_bytes: buffer_mb * MB / 2,
                output_buf_bytes: buffer_mb * MB / 2,
                psum_buf_bytes: 0,
                integrated_output: true,
                weight_buf_bytes: 16 * 1024 * u64::from(regs),
                ..NpuConfig::paper_baseline()
            }
        })
        .collect()
}

/// One pass of the stress workload: estimate every point (bypassing
/// the memo so each task does real work) and return a bit-exact
/// fingerprint of the results.
fn stress_pass(points: &[NpuConfig]) -> Vec<[u64; 2]> {
    let lib = sfq_cells::CellLibrary::aist_10um();
    sfq_par::par_map(points, |cfg| {
        let est = estimate_uncached(cfg, &lib);
        [est.peak_tmacs.to_bits(), est.area_mm2_native.to_bits()]
    })
}

struct StressRung {
    threads: usize,
    ms: f64,
    speedup: f64,
    identical: bool,
    expected: f64,
    meets_scaling: bool,
}

/// Run the `--points` stress sweep over a thread ladder. The
/// one-thread rung is the baseline; each later rung must match its
/// output bit-for-bit and (when more than one logical core backs the
/// pool) clear [`STRESS_SCALING_FRAC`] of the effective parallelism.
fn stress_sweep(n_points: usize, pool: usize, logical_cores: usize) -> Vec<StressRung> {
    println!("\nstress sweep: {n_points} synthetic points");
    let points = synthetic_points(n_points);
    let mut ladder = vec![1usize, 2, 4];
    if pool > 4 {
        ladder.push(pool);
    }

    let mut rungs: Vec<StressRung> = Vec::new();
    let mut baseline: Vec<[u64; 2]> = Vec::new();
    let mut baseline_ms = 0.0;
    for &threads in &ladder {
        sfq_par::set_threads(threads);
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            out = stress_pass(&points);
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        if threads == 1 {
            baseline = out.clone();
            baseline_ms = best;
        }
        let speedup = baseline_ms / best;
        let identical = out == baseline;
        // Speedup can't exceed the cores actually backing the pool;
        // at one effective core the requirement degenerates to 1.
        let expected = threads.min(logical_cores) as f64;
        let meets_scaling = expected <= 1.0 || speedup >= STRESS_SCALING_FRAC * expected;
        println!(
            "  {threads:2} thread(s): {best:8.1} ms | speedup {speedup:4.2}x \
             (need >= {:4.2}x) | identical: {identical}",
            if expected <= 1.0 {
                1.0
            } else {
                STRESS_SCALING_FRAC * expected
            }
        );
        rungs.push(StressRung {
            threads,
            ms: best,
            speedup,
            identical,
            expected,
            meets_scaling,
        });
    }
    sfq_par::clear_threads();
    rungs
}

fn main() {
    let _session = supernpu_bench::session::begin("bench_sweeps");
    // Pool size actually used for the parallel runs (honors
    // SUPERNPU_THREADS) and the machine's detected parallelism are
    // recorded separately: on a one-core box an oversubscribed pool
    // can't speed anything up, and the gate needs to know that.
    let pool = sfq_par::threads();
    let logical_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let speedup_meaningful = pool > 1 && logical_cores > 1;
    let n_points = std::env::args()
        .skip_while(|a| a != "--points")
        .nth(1)
        .map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| die("--points takes a count"))
        });
    sfq_obs::set_enabled(true);
    supernpu_bench::header(
        "BENCH sweeps",
        "serial-vs-parallel wall clock of the Fig. 20-22 sweeps",
    );
    println!(
        "worker pool: {pool} thread(s) on {logical_cores} logical core(s); \
         speedup comparison {}\n",
        if speedup_meaningful {
            "meaningful"
        } else {
            "not meaningful (pool or machine is serial)"
        }
    );

    let sweeps: [(&'static str, &dyn Fn() -> String); 3] = [
        ("fig20_buffer_sweep", &|| {
            serde_json::to_string(&fig20_buffer_sweep())
                .unwrap_or_else(|e| die(format!("fig20_buffer_sweep serialization failed: {e}")))
        }),
        ("fig21_resource_sweep", &|| {
            serde_json::to_string(&fig21_resource_sweep())
                .unwrap_or_else(|e| die(format!("fig21_resource_sweep serialization failed: {e}")))
        }),
        ("fig22_register_sweep", &|| {
            serde_json::to_string(&fig22_register_sweep())
                .unwrap_or_else(|e| die(format!("fig22_register_sweep serialization failed: {e}")))
        }),
    ];
    let results: Vec<SweepResult> = sweeps
        .iter()
        .map(|(name, run)| bench(name, *run, pool))
        .collect();

    let rows: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::Object(vec![
                ("name".into(), Value::Str(r.name.into())),
                ("serial_ms".into(), Value::F64(r.serial_ms)),
                ("parallel_ms".into(), Value::F64(r.parallel_ms)),
                ("speedup".into(), Value::F64(r.serial_ms / r.parallel_ms)),
                ("identical_output".into(), Value::Bool(r.identical)),
                ("estimate_cache".into(), cache_value(r.estimate_cache)),
                ("measure_cache".into(), cache_value(r.measure_cache)),
                ("metrics".into(), r.metrics.serialize()),
            ])
        })
        .collect();
    let stress = n_points.map(|n| stress_sweep(n, pool, logical_cores));

    let mut report = vec![
        (
            "schema_version".into(),
            Value::U64(u64::from(sfq_obs::SCHEMA_VERSION)),
        ),
        ("threads".into(), Value::U64(pool as u64)),
        ("logical_cores".into(), Value::U64(logical_cores as u64)),
        ("speedup_meaningful".into(), Value::Bool(speedup_meaningful)),
        ("sweeps".into(), Value::Array(rows)),
    ];
    if let Some(rungs) = &stress {
        let stress_rows: Vec<Value> = rungs
            .iter()
            .map(|r| {
                Value::Object(vec![
                    ("points".into(), Value::U64(n_points.unwrap_or(0) as u64)),
                    ("threads".into(), Value::U64(r.threads as u64)),
                    ("ms".into(), Value::F64(r.ms)),
                    ("speedup".into(), Value::F64(r.speedup)),
                    ("expected_parallelism".into(), Value::F64(r.expected)),
                    ("identical_output".into(), Value::Bool(r.identical)),
                    ("meets_scaling".into(), Value::Bool(r.meets_scaling)),
                ])
            })
            .collect();
        report.push(("stress".into(), Value::Array(stress_rows)));
    }
    let report = Value::Object(report);
    let json = serde_json::to_string_pretty(&report)
        .unwrap_or_else(|e| die(format!("report serialization failed: {e}")));
    if let Err(e) = write_report("BENCH_sweeps.json", &json) {
        die(e);
    }
    println!("\nwrote BENCH_sweeps.json");

    if results.iter().any(|r| !r.identical) {
        supernpu_bench::session::fail("parallel output diverged from serial");
    }
    if let Some(rungs) = &stress {
        if rungs.iter().any(|r| !r.identical) {
            supernpu_bench::session::fail("stress-sweep output diverged from serial");
        }
        if rungs.iter().any(|r| !r.meets_scaling) {
            supernpu_bench::session::fail(format!(
                "stress-sweep speedup fell below {STRESS_SCALING_FRAC} x effective cores"
            ));
        }
    }
}
