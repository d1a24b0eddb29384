//! Wall-clock benchmark of the parallel sweep engine: time the
//! Fig. 20/21/22 design-space sweeps serially (one thread) and with
//! the full worker pool, verify the outputs are bit-identical, and
//! write the measurements to `BENCH_sweeps.json`.
//!
//! The memo caches (results, estimator, characterization) are cleared
//! before every timed run so each configuration pays the same
//! cold-start cost; without that, whichever run goes second would win
//! on cache hits rather than on parallelism. Metrics stay off: with
//! them on, the parallel passes paid more for their registry lookups
//! than the serial ones (over 20 runs on a 2-vCPU host, fig20's median
//! speed-up was 0.98× with metrics and 1.31× without).
//!
//! `--points N` additionally runs a granularity stress sweep: `N`
//! synthetic design points (cheap, memo-bypassing
//! [`sfq_estimator::estimate_uncached`] calls — roughly the fig22 grid
//! scaled to 1e5..1e6 points) are mapped over a ladder of thread
//! counts, and each rung records wall clock, speedup vs the one-thread
//! run, bit-identity of the outputs, and whether the speedup clears
//! 0.8x the effective parallelism `min(threads, logical_cores)`.
//!
//! A speed-up floor binds only where two threads really run at once.
//! A shared host can give a process two logical cores that run two
//! busy threads at the speed of one, so a two-thread spin probe
//! decides, not the core count: every speed-up floor is skipped, with
//! the probe's ratio printed and recorded, unless two spinning threads
//! finish at least [`MIN_PROBE_RATIO`] times the work of one in the
//! same time.

use std::hint::black_box;
use std::time::Instant;

use sfq_estimator::{estimate_uncached, NpuConfig};
use supernpu::explore::{fig20_buffer_sweep, fig21_resource_sweep, fig22_register_sweep};
use supernpu_bench::gate::{self, Record};
use supernpu_bench::report::die;

const MB: u64 = 1024 * 1024;

/// Stress speedup must reach this fraction of the effective core count.
const STRESS_SCALING_FRAC: f64 = 0.8;

/// Throughput of two spinning threads over one that a host must reach
/// before a speed-up floor binds: the stress rungs' 0.8 scaling
/// fraction at two threads.
const MIN_PROBE_RATIO: f64 = 2.0 * STRESS_SCALING_FRAC;

/// Iterations of one probe spin (≈12 ms on a 2-vCPU x86-64 host).
const SPIN_ITERS: u64 = 50_000_000;

/// Why each `parallel_ms` timing has the tolerance it has. Fig. 21's
/// spread 2.5× over those runs, so its time is printed, not gated.
const SPREAD: &str = "max/min - 1 of the best-of-3 time over 20 runs on a 2-vCPU host, \
                      rounded up to 0.05";

struct SweepResult {
    serial_ms: f64,
    parallel_ms: f64,
    identical: bool,
}

/// Work rate of two threads spinning at once over one thread alone,
/// best of three timings each: 2.0 when the host runs them in
/// parallel, 1.0 when they share one core.
fn parallel_probe() -> f64 {
    fn spin() {
        let mut x = 0u64;
        for i in 0..SPIN_ITERS {
            x = black_box(x.wrapping_add(i));
        }
        black_box(x);
    }
    let best = |run: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = best(&spin);
    let two = best(&|| {
        std::thread::scope(|s| {
            s.spawn(spin);
            spin();
        });
    });
    2.0 * one / two
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
    println!(
        "{name}: serial {serial_ms:8.1} ms | parallel {parallel_ms:8.1} ms | \
         speedup {:4.2}x | identical: {identical}",
        serial_ms / parallel_ms
    );
    SweepResult {
        serial_ms,
        parallel_ms,
        identical,
    }
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
    speedup: f64,
    identical: bool,
    /// `STRESS_SCALING_FRAC` of `min(threads, logical_cores)`, or
    /// `None` where that parallelism is 1 and there is nothing to gate.
    floor: Option<f64>,
}

/// Run the `--points` stress sweep over a thread ladder. The
/// one-thread rung is the baseline; each later rung must match its
/// output bit-for-bit and, where the probe shows two threads running
/// at once, clear [`STRESS_SCALING_FRAC`] of the effective parallelism.
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
        // Speedup can't exceed the cores actually backing the pool.
        let expected = threads.min(logical_cores) as f64;
        let floor = (expected > 1.0).then_some(STRESS_SCALING_FRAC * expected);
        println!(
            "  {threads:2} thread(s): {best:8.1} ms | speedup {speedup:4.2}x \
             (floor {}) | identical: {identical}",
            floor.map_or("none".to_owned(), |f| format!("{f:4.2}x"))
        );
        rungs.push(StressRung {
            threads,
            speedup,
            identical,
            floor,
        });
    }
    sfq_par::clear_threads();
    rungs
}

fn main() {
    let _session = supernpu_bench::session::begin("bench_sweeps");
    // Pool size actually used for the parallel runs (honors
    // SUPERNPU_THREADS); the probe says whether two of its threads
    // really run at once.
    let pool = sfq_par::threads();
    let logical_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let probe = parallel_probe();
    let speedup_meaningful = pool > 1 && probe >= MIN_PROBE_RATIO;
    let n_points = std::env::args()
        .skip_while(|a| a != "--points")
        .nth(1)
        .map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| die("--points takes a count"))
        });
    supernpu_bench::header(
        "BENCH sweeps",
        "serial-vs-parallel wall clock of the Fig. 20-22 sweeps",
    );
    let skip_reason = format!(
        "two spinning threads ran {probe:.2}x the work of one \
         (a speed-up floor needs {MIN_PROBE_RATIO}x) on a {pool}-thread pool"
    );
    println!(
        "worker pool: {pool} thread(s) on {logical_cores} logical core(s); \
         two-thread spin probe {probe:.2}x; speed-up floors {}\n",
        if speedup_meaningful {
            "apply"
        } else {
            "skipped"
        }
    );

    // Name, `parallel_ms` tolerance (`None`: printed, not gated), run.
    type Sweep<'a> = (&'static str, Option<f64>, &'a dyn Fn() -> String);
    let sweeps: [Sweep; 3] = [
        ("fig20_buffer_sweep", Some(0.95), &|| {
            serde_json::to_string(&fig20_buffer_sweep())
                .unwrap_or_else(|e| die(format!("fig20_buffer_sweep serialization failed: {e}")))
        }),
        ("fig21_resource_sweep", None, &|| {
            serde_json::to_string(&fig21_resource_sweep())
                .unwrap_or_else(|e| die(format!("fig21_resource_sweep serialization failed: {e}")))
        }),
        ("fig22_register_sweep", Some(0.80), &|| {
            serde_json::to_string(&fig22_register_sweep())
                .unwrap_or_else(|e| die(format!("fig22_register_sweep serialization failed: {e}")))
        }),
    ];
    let mut records = Vec::new();
    let mut results = Vec::new();
    for (name, tolerance, run) in sweeps {
        let r = bench(name, run, pool);
        let speedup = r.serial_ms / r.parallel_ms;
        if let Some(tolerance) = tolerance {
            records.push(Record::timing(
                format!("{name}.parallel_ms"),
                r.parallel_ms,
                tolerance,
                SPREAD,
            ));
        }
        records.push(Record::floor(
            format!("{name}.speedup"),
            speedup_meaningful.then_some(speedup),
            1.0,
            if speedup_meaningful {
                format!("parallel must not run slower than serial; probe {probe:.2}x")
            } else {
                skip_reason.clone()
            },
        ));
        results.push(r);
    }
    let stress = n_points.map(|n| stress_sweep(n, pool, logical_cores));
    for r in stress.iter().flatten() {
        if let Some(floor) = r.floor {
            records.push(Record::floor(
                format!("stress.{}_threads.speedup", r.threads),
                speedup_meaningful.then_some(r.speedup),
                floor,
                if speedup_meaningful {
                    format!(
                        "{STRESS_SCALING_FRAC} of min(threads, logical cores); probe {probe:.2}x"
                    )
                } else {
                    skip_reason.clone()
                },
            ));
        }
    }
    if !speedup_meaningful {
        println!("\nspeed-up floors skipped: {skip_reason}");
    }
    gate::write("BENCH_sweeps.json", &records).unwrap_or_else(|e| die(e));

    if results.iter().any(|r| !r.identical) {
        supernpu_bench::session::fail("parallel output diverged from serial");
    }
    if let Some(rungs) = &stress {
        if rungs.iter().any(|r| !r.identical) {
            supernpu_bench::session::fail("stress-sweep output diverged from serial");
        }
        let missed = |r: &StressRung| r.floor.is_some_and(|f| r.speedup < f);
        if speedup_meaningful && rungs.iter().any(missed) {
            supernpu_bench::session::fail(format!(
                "stress-sweep speedup fell below {STRESS_SCALING_FRAC} x effective cores"
            ));
        }
    }
}
