//! `bench_e2e` — the end-to-end benchmark of the SuperNPU reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload paper|dse|mc_yield --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload through the library's public API for `S` seconds
//! of closed-loop passes, checks every simulated statistic against the
//! golden records in `bench_e2e/golden/`, and prints the end-to-end
//! metrics (`--trace 0`) or the per-layer split (`--trace 1`), ending
//! with one JSON line. README.md describes the workloads.

mod check;
mod dse;
mod mc_yield;
mod paper;
mod reference;
mod stats;
mod sys;
mod trace;

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use check::{Golden, Marks, PassRecords, Record, Tally};
use trace::{Metric, SpanRec, TracedPass};

/// The seed the golden records of `dse` and `mc_yield` were made at.
pub const DEFAULT_SEED: u64 = 1;
/// Leading passes at [`DEFAULT_SEED`] the golden files hold.
const GOLDEN_PASSES: u64 = 4;
/// Golden passes every run replays at one worker, whatever its seed.
const GOLDEN_REPLAYS: u64 = 2;
/// Fresh-process set-ups per `dse` or `mc_yield` run; `setup_s` is
/// their median.
const SETUP_REPS: u64 = 5;
/// Every this many timed passes of `dse` and `mc_yield`, one is
/// replayed at one worker and compared (the last pass always is).
const CHECK_STRIDE: u64 = 8;
/// Fewest untraced timed passes, so the tail percentile exists.
const MIN_PASSES: usize = 11;
/// Pass indices at and above this draw warm-up inputs, never timed.
const WARMUP_BASE: u64 = 1 << 62;

/// The benchmark's directory (golden files, reference table, output).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// SplitMix64: the benchmark's own input generator, so the inputs do
/// not move when the program's random streams change.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform pick from a slice.
    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next_u64() % xs.len() as u64) as usize]
    }
}

/// The input seed of one pass: a pure function of (run seed, pass).
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    SplitMix64::new(seed ^ pass.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// A workload whose passes run in this process.
pub trait InProcess: Sync + Sized {
    type Input;
    type Output;
    const NAME: &'static str;
    /// Build the inputs every pass shares.
    fn setup() -> Self;
    /// Items per record unit of a pass, in record order.
    fn units(&self) -> Vec<u64>;
    /// Draw one pass's inputs from (seed, pass index).
    fn draw(&self, seed: u64, pass: u64) -> Self::Input;
    /// The timed work of one pass.
    fn run(&self, input: &Self::Input) -> Self::Output;
    /// A pass's records (untimed). Without `digest` they only tell
    /// which units failed inside the program; the loop digests just
    /// the passes it compares.
    fn records(&self, out: Self::Output, digest: bool) -> PassRecords;
    /// Recompute a pass's records in full (run at one worker to check
    /// the timed run, and to make the golden records).
    fn replay(&self, input: &Self::Input) -> PassRecords {
        self.records(self.run(input), true)
    }
    /// [`InProcess::replay`] with the estimator memo emptied first, so
    /// no replayed value comes from a memo the checked run filled.
    fn replay_cold(&self, input: &Self::Input) -> PassRecords {
        sfq_estimator::clear_estimate_cache();
        self.replay(input)
    }
    /// A golden record string as a [`Record`].
    fn golden_record(&self, exact: &str) -> Record;
}

/// Everything one run measured.
pub struct Outcome {
    pub workers: usize,
    /// Host wall time of every untraced timed pass.
    pub pass_s: Vec<f64>,
    pub items: u64,
    pub cpu_s: f64,
    pub setup_s: Vec<f64>,
    pub peak_rss_kib: u64,
    pub tally: Tally,
    /// Passes whose every record a check compared, and passes run.
    pub checked: (usize, usize),
    pub traced: Vec<TracedPass>,
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    pub fn new(workers: usize) -> Self {
        Outcome {
            workers,
            pass_s: Vec::new(),
            items: 0,
            cpu_s: 0.0,
            setup_s: Vec::new(),
            peak_rss_kib: 0,
            tally: Tally::default(),
            checked: (0, 0),
            traced: Vec::new(),
            spans: Vec::new(),
        }
    }
}

/// A child process of this benchmark that printed its first line.
pub struct Ready {
    /// Host seconds from spawn to the first line.
    pub ready_s: f64,
    /// The parent's trace clock when the first line arrived.
    pub ready_ns: u64,
    /// Everything the child printed after its first line.
    pub rest: String,
}

/// Run this benchmark's own binary with `args` and `env`, time it from
/// spawn to its first line, which must be `ready`, and wait for it to
/// exit successfully.
pub fn spawn_ready(args: &[&str], env: &[(&str, String)]) -> Result<Ready, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let what = args.join(" ");
    let t0 = Instant::now();
    let mut child = Command::new(&exe)
        .args(args)
        .envs(env.iter().map(|(k, v)| (k, v)))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut first = String::new();
    let mut rest = String::new();
    let read = reader.read_line(&mut first).and_then(|_| {
        let ready_s = t0.elapsed().as_secs_f64();
        let ready_ns = trace::now_ns();
        reader
            .read_to_string(&mut rest)
            .map(|_| (ready_s, ready_ns))
    });
    let status = child
        .wait()
        .map_err(|e| format!("waiting for `{what}`: {e}"))?;
    let (ready_s, ready_ns) = read.map_err(|e| format!("reading `{what}`: {e}"))?;
    if !status.success() || first.trim() != "ready" {
        return Err(format!("`{what}` failed ({status})"));
    }
    Ok(Ready {
        ready_s,
        ready_ns,
        rest,
    })
}

/// Print the `ready` line a parent waits for in [`spawn_ready`].
pub fn say_ready() -> bool {
    let mut stdout = std::io::stdout();
    writeln!(stdout, "ready")
        .and_then(|()| stdout.flush())
        .is_ok()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: Option<PathBuf>,
    write_golden: Option<PathBuf>,
    paper_pass: Option<u64>,
    setup_probe: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        golden: None,
        write_golden: None,
        paper_pass: None,
        setup_probe: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--golden" => a.golden = Some(val()?.into()),
            "--write-golden" => a.write_golden = Some(val()?.into()),
            "--paper-pass" => {
                a.paper_pass = Some(val()?.parse().map_err(|e| format!("--paper-pass: {e}"))?)
            }
            "--setup-probe" => {
                a.setup_probe = Some(val()?.parse().map_err(|e| format!("--setup-probe: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.paper_pass.is_none() && !["paper", "dse", "mc_yield"].contains(&a.workload.as_str()) {
        return Err("--workload must be paper, dse or mc_yield".into());
    }
    if a.setup_probe.is_some() && a.workload == "paper" {
        return Err("--setup-probe takes --workload dse or mc_yield".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(pass) = args.paper_pass {
        return paper::child(args.trace, pass);
    }
    sfq_par::set_threads(sys::nproc());
    if let Some(rep) = args.setup_probe {
        return match args.workload.as_str() {
            "dse" => setup_child::<dse::Dse>(rep),
            _ => setup_child::<mc_yield::McYield>(rep),
        };
    }
    if let Some(path) = &args.write_golden {
        let written = match args.workload.as_str() {
            "paper" => paper::golden(),
            "dse" => golden_inprocess(&dse::Dse::setup()),
            _ => golden_inprocess(&mc_yield::McYield::setup()),
        }
        .and_then(|g| g.save(path));
        return match written {
            Ok(()) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let golden_path = args.golden.clone().unwrap_or_else(|| {
        bench_dir()
            .join("golden")
            .join(format!("{}.json", args.workload))
    });
    let golden = match Golden::load(&golden_path) {
        Ok(g) if g.workload == args.workload => g,
        Ok(g) => {
            eprintln!(
                "bench_e2e: {} holds workload {}",
                golden_path.display(),
                g.workload
            );
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("bench_e2e: golden records: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match args.workload.as_str() {
        "paper" => paper::run(&args, &golden),
        "dse" => run_inprocess::<dse::Dse>(&args, &golden),
        _ => run_inprocess::<mc_yield::McYield>(&args, &golden),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::FAILURE;
        }
    };
    let model = match reference::model_error() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_e2e: model error: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&args, &outcome, &model);
    ExitCode::SUCCESS
}

/// Run one pass with tracing set as asked, returning its output
/// (`None` if the pass itself panicked).
fn timed_pass<W: InProcess>(
    w: &W,
    seed: u64,
    pass: u64,
    traced: bool,
    out: &mut Outcome,
) -> Option<W::Output> {
    let input = w.draw(seed, pass);
    trace::begin_pass(traced, pass);
    let c0 = traced.then(trace::read_counters);
    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| w.run(&input)));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    if let Some(c0) = c0 {
        out.traced.push(TracedPass {
            wall_s,
            cpu_s,
            workers: out.workers as u64,
            counters: trace::delta(&c0, &trace::read_counters()),
        });
    } else {
        out.pass_s.push(wall_s);
        out.cpu_s += cpu_s;
        out.items += w.units().iter().sum::<u64>();
    }
    trace::begin_pass(false, pass);
    result.ok()
}

/// The set-up of a fresh `dse` or `mc_yield` process: build the shared
/// inputs and run one warm-up pass, then say `ready`.
fn setup_child<W: InProcess>(rep: u64) -> ExitCode {
    let w = W::setup();
    let input = w.draw(DEFAULT_SEED, WARMUP_BASE + rep);
    let _ = catch_unwind(AssertUnwindSafe(|| w.run(&input)));
    if say_ready() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The closed loop shared by `dse` and `mc_yield`.
fn run_inprocess<W: InProcess>(args: &Args, golden: &Golden) -> Result<Outcome, String> {
    let mut out = Outcome::new(sfq_par::threads());

    // Set-up from cold, timed from spawn to ready in fresh processes
    // (warm-up inputs come from the golden seed, so set-up does the same
    // work on every run); then this process's own set-up and warm-up.
    for r in 0..SETUP_REPS {
        let rep = r.to_string();
        let probe = ["--workload", W::NAME, "--setup-probe", &rep];
        out.setup_s.push(spawn_ready(&probe, &[])?.ready_s);
    }
    let w = W::setup();
    let input = w.draw(DEFAULT_SEED, WARMUP_BASE + SETUP_REPS);
    let _ = catch_unwind(AssertUnwindSafe(|| w.run(&input)));
    let units = w.units();

    // Digest only the passes a check compares: every CHECK_STRIDE-th,
    // the last, and the golden ones at the golden seed.
    let replayed = |p: u64, last: bool| last || p.is_multiple_of(CHECK_STRIDE);
    let vs_golden = |p: u64| args.seed == golden.seed && p < golden.passes.len() as u64;
    let mut timed: Vec<Option<PassRecords>> = Vec::new();
    let t0 = Instant::now();
    let mut pass = 0u64;
    loop {
        let traced = args.trace && pass % 2 == 1;
        let output = timed_pass(&w, args.seed, pass, traced, &mut out);
        let last = t0.elapsed().as_secs_f64() >= args.seconds && out.pass_s.len() >= MIN_PASSES;
        timed.push(output.map(|o| w.records(o, replayed(pass, last) || vs_golden(pass))));
        pass += 1;
        if last {
            break;
        }
    }
    out.peak_rss_kib = sys::peak_rss_kib();
    out.spans = trace::take_spans();

    // Checks, untimed, at one worker: the digested passes replayed
    // against the timed records, the golden passes replayed against the
    // golden records, and (at the golden seed) the timed passes against
    // the golden records.
    let golden_recs: Vec<PassRecords> = golden
        .passes
        .iter()
        .map(|p| p.iter().map(|s| Some(w.golden_record(s))).collect())
        .collect();
    sfq_par::set_threads(1);
    for (p, t) in (0..pass).zip(&timed) {
        let mut m = Marks::new(t.as_ref(), &units);
        let mut compared = false;
        if replayed(p, p + 1 == pass) {
            let replay = w.replay_cold(&w.draw(args.seed, p));
            if let Some(t) = t {
                m.compare(t, &replay);
            }
            compared = true;
        }
        if let (true, Some(t), Some(g)) = (vs_golden(p), t, golden_recs.get(p as usize)) {
            m.compare(t, g);
            compared = true;
        }
        // A pass no check compared still shows what panicked or errored.
        if compared {
            m.add_to(&mut out.tally);
            out.checked.0 += 1;
        } else {
            m.add_failures_to(&mut out.tally);
        }
    }
    out.checked.1 = pass as usize;
    for p in 0..GOLDEN_REPLAYS {
        let replay = w.replay_cold(&w.draw(golden.seed, p));
        let mut m = Marks::new(Some(&replay), &units);
        match golden_recs.get(p as usize) {
            Some(g) => m.compare(&replay, g),
            None => m.fail_all(),
        }
        m.add_to(&mut out.tally);
    }
    sfq_par::set_threads(out.workers);
    Ok(out)
}

/// Golden records of an in-process workload: its first passes at
/// [`DEFAULT_SEED`], identical at one worker and at all of them.
fn golden_inprocess<W: InProcess>(w: &W) -> Result<Golden, String> {
    let mut passes = Vec::new();
    for p in 0..GOLDEN_PASSES {
        let input = w.draw(DEFAULT_SEED, p);
        let full = w.replay_cold(&input);
        sfq_par::set_threads(1);
        let serial = w.replay_cold(&input);
        sfq_par::set_threads(sys::nproc());
        if full != serial {
            return Err(format!(
                "pass {p} differs between 1 and {} workers",
                sys::nproc()
            ));
        }
        let exact: Option<Vec<String>> =
            full.into_iter().map(|r| r.and_then(|r| r.exact)).collect();
        passes.push(exact.ok_or_else(|| format!("pass {p} has a failed or inexact record"))?);
    }
    Ok(Golden {
        workload: W::NAME.into(),
        seed: DEFAULT_SEED,
        passes,
    })
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn report(args: &Args, o: &Outcome, model: &reference::ModelError) {
    let lanes = jjsim::batch_width();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = sys::git_commit(&bench_dir().join(".."));
    println!(
        "bench_e2e workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "provenance: nproc={} pool_workers={} lane_width={lanes} profile={profile} commit={commit} seed={}",
        sys::nproc(),
        o.workers,
        args.seed
    );
    for (id, paper, measured, source) in &model.rows {
        println!("  model {id}: paper {paper} / measured {measured:.4} ({source})");
    }
    let failed_frac = if o.tally.attempted > 0 {
        o.tally.failed as f64 / o.tally.attempted as f64
    } else {
        1.0
    };
    println!(
        "failed_frac = {failed_frac} ratio ({} of {} checked items)",
        o.tally.failed, o.tally.attempted
    );
    println!("passes checked in full: {} of {}", o.checked.0, o.checked.1);

    let timed_s: f64 = o.pass_s.iter().sum();
    let (tail_s, tail_pct) = stats::tail(&o.pass_s).unwrap_or((0.0, 0.0));
    let e2e = [
        Metric {
            name: "items_per_s",
            value: o.items as f64 / timed_s,
            unit: "items/s",
        },
        Metric {
            name: "pass_s",
            value: stats::median(&o.pass_s),
            unit: "s",
        },
        Metric {
            name: "pass_tail_s",
            value: tail_s,
            unit: "s",
        },
        Metric {
            name: "cpu_s_per_item",
            value: o.cpu_s / o.items as f64,
            unit: "s",
        },
        Metric {
            name: "setup_s",
            value: stats::median(&o.setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: o.peak_rss_kib as f64 / 1024.0,
            unit: "MiB",
        },
        Metric {
            name: "model_err_pct",
            value: model.mean_pct,
            unit: "%",
        },
    ];
    println!(
        "untraced passes: {} ({} items), pass_tail_s is p{tail_pct:.1} with 10 of {} passes beyond it",
        o.pass_s.len(),
        o.items,
        o.pass_s.len()
    );
    let shown: Vec<Metric> = if args.trace {
        for m in &e2e {
            println!("  (untraced half) {} = {} {}", m.name, m.value, m.unit);
        }
        let layers = trace::per_layer(&o.traced, &o.spans, &o.pass_s);
        let path = bench_dir()
            .join("out")
            .join(format!("{}-seed{}-trace.json", args.workload, args.seed));
        match trace::write_chrome(&path, &o.spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        println!("traced passes: {}", o.traced.len());
        layers
    } else {
        e2e.into()
    };
    let mut json = String::new();
    for m in &shown {
        println!("{} = {} {}", m.name, m.value, m.unit);
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        o.tally.failed == 0 && o.tally.attempted > 0,
        o.tally.attempted,
        o.tally.failed
    );
}
