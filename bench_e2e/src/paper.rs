//! `paper`: regenerate every artifact `run_all` produces, in-process,
//! one fresh process per pass (cold program state, as for a user
//! running `run_all`). The parent spawns this benchmark's own binary
//! with `--paper-pass`; the child runs the 20 artifacts, then reports
//! its timings, digests, spans and counters as one JSON line.

use std::fmt::Debug;
use std::io::Write;
use std::panic::catch_unwind;
use std::process::ExitCode;
use std::time::Instant;

use dnn_models::duplication::network_duplication;
use dnn_models::{zoo, zoo_ext};
use jjsim::extract::{
    and_clock_to_q, and_cycle_energy, dff_clock_to_q, dff_cycle_energy, jtl_characteristics,
    max_shift_frequency, splitter_delay,
};
use jjsim::stdlib::{AndParams, DffParams, JtlParams};
use scale_sim::CmosNpuConfig;
use serde::{Deserialize, Serialize};
use sfq_cells::CellLibrary;
use sfq_estimator::clocking::feedback_comparison;
use sfq_estimator::netdesign::fig5_sweep;
use sfq_estimator::{estimate, NpuConfig};
use sfq_npu_sim::simulate_network;
use supernpu::designs::DesignPoint;
use supernpu::{ablations, evaluator, explore, export, latency, pareto, sensitivity, summary};

use crate::check::{digest_debug, Golden, Marks, PassRecords, Record};
use crate::trace::{self, span, SpanRec, TracedPass, GROUP};
use crate::{say_ready, spawn_ready, sys, Args, Outcome, Ready, DEFAULT_SEED, MIN_PASSES};

/// Untimed passes before timing starts.
const WARMUP_PASSES: u64 = 3;

type Rows = Box<dyn Debug + Send>;
/// An artifact's name and the calls that regenerate it.
type Artifact = (&'static str, fn() -> Rows);

/// Every `run_all` experiment, in its order, as the library calls its
/// binary makes. An item is one artifact.
const ARTIFACTS: [Artifact; 20] = [
    ("fig05_network", fig05),
    ("fig07_feedback", fig07),
    ("fig08_duplication", fig08),
    ("fig13_validation", fig13),
    ("fig15_breakdown", || {
        Box::new(span(
            "evaluator",
            "fig15_cycle_breakdown",
            evaluator::fig15_cycle_breakdown,
        ))
    }),
    ("fig17_roofline", || {
        Box::new(span(
            "evaluator",
            "fig17_roofline",
            evaluator::fig17_roofline,
        ))
    }),
    ("fig20_buffer_opt", || {
        Box::new(span(
            "explore",
            "fig20_buffer_sweep",
            explore::fig20_buffer_sweep,
        ))
    }),
    ("fig21_resource_balance", || {
        Box::new(span(
            "explore",
            "fig21_resource_sweep",
            explore::fig21_resource_sweep,
        ))
    }),
    ("fig22_registers", || {
        Box::new(span(
            "explore",
            "fig22_register_sweep",
            explore::fig22_register_sweep,
        ))
    }),
    ("fig23_performance", fig23),
    ("table1_setup", || {
        Box::new(span("evaluator", "table1_setup", evaluator::table1_setup))
    }),
    ("table2_batches", || {
        Box::new(span(
            "evaluator",
            "table2_batches",
            evaluator::table2_batches,
        ))
    }),
    ("table3_power", || {
        Box::new(span("evaluator", "table3_power", evaluator::table3_power))
    }),
    ("ablations", || {
        Box::new(span("ablations", "all_ablations", ablations::all_ablations))
    }),
    ("ext_sensitivity", ext_sensitivity),
    ("ext_accelerators", ext_accelerators),
    ("ext_characterize", ext_characterize),
    ("ext_pareto", ext_pareto),
    ("export_csv", || {
        Box::new(span("export", "all_datasets", export::all_datasets))
    }),
    ("full_report", || {
        Box::new(span("report", "full_report", summary::full_report))
    }),
];

fn fig05() -> Rows {
    let lib = CellLibrary::aist_10um();
    Box::new(span("estimator", "fig5_sweep", || fig5_sweep(8, &lib)))
}

fn fig07() -> Rows {
    let lib = CellLibrary::aist_10um();
    let model = span("estimator", "feedback_comparison", || {
        feedback_comparison(&lib)
    });
    let transient = span("jjsim", "max_shift_frequency", || {
        max_shift_frequency(&DffParams::default(), 5.0, 50.0)
    });
    Box::new((model, transient))
}

fn fig08() -> Rows {
    Box::new(span("dnn", "network_duplication", || {
        zoo::all()
            .iter()
            .map(|n| (n.name().to_owned(), network_duplication(n)))
            .collect::<Vec<_>>()
    }))
}

fn fig13() -> Rows {
    let lib = CellLibrary::aist_10um();
    let jtl = span("jjsim", "jtl_characteristics", || {
        jtl_characteristics(8, &JtlParams::default())
    });
    let spl = span("jjsim", "splitter_delay", || {
        splitter_delay(&JtlParams::default())
    });
    let dff_d = span("jjsim", "dff_clock_to_q", || {
        dff_clock_to_q(&DffParams::default())
    });
    let dff_e = span("jjsim", "dff_cycle_energy", || {
        dff_cycle_energy(&DffParams::default())
    });
    let sr = span("jjsim", "max_shift_frequency", || {
        max_shift_frequency(&DffParams::default(), 5.0, 50.0)
    });
    let and_d = span("jjsim", "and_clock_to_q", || {
        and_clock_to_q(&AndParams::default())
    });
    let and_e = span("jjsim", "and_cycle_energy", || {
        and_cycle_energy(&AndParams::default())
    });
    let model_sr = span("estimator", "feedback_comparison", || {
        feedback_comparison(&lib).sr_feedback_ghz
    });
    // The 2×2 4-bit PE-arrayed NPU of Fig. 12(c).
    let tiny = NpuConfig {
        name: "2x2 4-bit NPU".into(),
        array_height: 2,
        array_width: 2,
        bits: 4,
        regs_per_pe: 1,
        ifmap_buf_bytes: 64,
        output_buf_bytes: 64,
        psum_buf_bytes: 64,
        weight_buf_bytes: 16,
        division: 1,
        integrated_output: false,
    };
    let est = span("estimator", "estimate", || estimate(&tiny, &lib));
    Box::new((jtl, spl, dff_d, dff_e, sr, and_d, and_e, model_sr, est))
}

fn fig23() -> Rows {
    Box::new(span("evaluator", "fig23_performance", || {
        let rows = evaluator::fig23_performance();
        let means: Vec<f64> = DesignPoint::SFQ_DESIGNS
            .iter()
            .map(|&d| evaluator::average_speedup(&rows, d))
            .collect();
        (rows, means)
    }))
}

fn ext_sensitivity() -> Rows {
    let bandwidth = span(
        "sensitivity",
        "bandwidth_sweep",
        sensitivity::bandwidth_sweep,
    );
    let process = span("sensitivity", "process_sweep", sensitivity::process_sweep);
    let cooling = span("sensitivity", "cooling_sweep", || {
        sensitivity::cooling_sweep(2.3, 16.7)
    });
    Box::new((bandwidth, process, cooling))
}

fn ext_accelerators() -> Rows {
    let cmos = [
        CmosNpuConfig::eyeriss(),
        CmosNpuConfig::tpu_core(),
        CmosNpuConfig::datacenter_big(),
    ];
    let sfq = span("estimator", "sim_config", || {
        DesignPoint::SuperNpu.sim_config()
    });
    let nets = span("dnn", "zoo", || {
        let mut nets = zoo::all();
        nets.extend(zoo_ext::all_extensions());
        nets
    });
    let rows: Vec<_> = nets
        .iter()
        .map(|net| {
            let cm = span("scalesim", "simulate_network", || {
                cmos.iter()
                    .map(|c| scale_sim::simulate_network(c, net))
                    .collect::<Vec<_>>()
            });
            let s = span("npusim", "simulate_network", || simulate_network(&sfq, net));
            let big = span("scalesim", "simulate_network", || {
                scale_sim::simulate_network(&cmos[2], net)
            });
            (cm, s, big)
        })
        .collect();
    Box::new(rows)
}

fn ext_characterize() -> Rows {
    let measured = span("chars", "characterize", sfq_chars::characterize);
    let reference = CellLibrary::aist_10um();
    let cfg = NpuConfig::paper_supernpu();
    let estimates = span("estimator", "estimate", || {
        (
            measured.as_ref().ok().map(|lib| estimate(&cfg, lib)),
            estimate(&cfg, &reference),
        )
    });
    Box::new((measured, estimates))
}

fn ext_pareto() -> Rows {
    let (grid, front) = span("pareto", "evaluate_grid", || {
        let grid = pareto::evaluate_grid();
        let front = pareto::pareto_front(&grid);
        (grid, front)
    });
    let cfg = span("estimator", "sim_config", || {
        DesignPoint::SuperNpu.sim_config()
    });
    let net = span("dnn", "resnet50", zoo::resnet50);
    let (curve, knee) = span("latency", "latency_curve", || {
        let curve = latency::latency_curve(&cfg, &net);
        let knee = latency::knee(&curve, 0.5).clone();
        (curve, knee)
    });
    Box::new((grid, front, curve, knee))
}

/// What a child reports back on its last stdout line.
#[derive(Debug, Serialize, Deserialize)]
struct ChildReport {
    wall_s: f64,
    cpu_s: f64,
    rss_kib: u64,
    workers: u64,
    digests: Vec<Option<String>>,
    counters: Vec<u64>,
    spans: Vec<SpanRec>,
}

/// The child side: run the artifacts once and report.
pub fn child(traced: bool, pass: u64) -> ExitCode {
    trace::begin_pass(traced, pass);
    let c0 = trace::read_counters();
    if !say_ready() {
        return ExitCode::FAILURE;
    }
    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    let outs: Vec<Option<Rows>> = ARTIFACTS
        .iter()
        .map(|&(name, f)| span(GROUP, name, || catch_unwind(f).ok()))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let report = ChildReport {
        wall_s,
        cpu_s,
        rss_kib: sys::peak_rss_kib(),
        workers: sfq_par::threads() as u64,
        counters: trace::delta(&c0, &trace::read_counters()),
        digests: outs
            .iter()
            .map(|o| o.as_ref().map(|r| digest_debug(&**r)))
            .collect(),
        spans: trace::take_spans(),
    };
    match serde_json::to_string(&report) {
        Ok(line) if writeln!(std::io::stdout(), "{line}").is_ok() => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    }
}

/// One finished child: spawn-to-ready seconds, the parent's trace
/// clock at "ready", and its report.
struct Pass {
    ready_s: f64,
    ready_ns: u64,
    report: ChildReport,
}

fn spawn_pass(traced: bool, pass: u64, workers: usize) -> Result<Pass, String> {
    let id = pass.to_string();
    let args = [
        "--paper-pass",
        &id,
        "--trace",
        if traced { "1" } else { "0" },
    ];
    let Ready {
        ready_s,
        ready_ns,
        rest,
    } = spawn_ready(&args, &[("SUPERNPU_THREADS", workers.to_string())])?;
    let last = rest.lines().last().unwrap_or_default();
    let report: ChildReport =
        serde_json::from_str(last).map_err(|e| format!("paper pass {pass} report: {e}"))?;
    if report.digests.len() != ARTIFACTS.len() {
        return Err(format!(
            "paper pass {pass} reported {} artifacts",
            report.digests.len()
        ));
    }
    Ok(Pass {
        ready_s,
        ready_ns,
        report,
    })
}

fn records(r: &ChildReport) -> PassRecords {
    r.digests
        .iter()
        .map(|d| d.clone().map(Record::digest))
        .collect()
}

/// The parent side: warm up, then one child per pass until the time is
/// up, then one child at one worker.
pub fn run(args: &Args, golden: &Golden) -> Result<Outcome, String> {
    let workers = sfq_par::threads();
    let units = vec![1u64; ARTIFACTS.len()];
    let golden_recs: PassRecords = golden
        .passes
        .first()
        .ok_or("golden records hold no pass")?
        .iter()
        .map(|d| Some(Record::digest(d.clone())))
        .collect();
    let check = |out: &mut Outcome, recs: &PassRecords| {
        let mut m = Marks::new(Some(recs), &units);
        m.compare(recs, &golden_recs);
        m.add_to(&mut out.tally);
    };

    for w in 0..WARMUP_PASSES {
        spawn_pass(false, crate::WARMUP_BASE + w, workers)?;
    }
    let mut out = Outcome::new(workers);
    let mut id_base = 0;
    let t0 = Instant::now();
    let mut pass = 0u64;
    while t0.elapsed().as_secs_f64() < args.seconds || out.pass_s.len() < MIN_PASSES {
        let traced = args.trace && pass % 2 == 1;
        let Pass {
            ready_s,
            ready_ns,
            report,
        } = spawn_pass(traced, pass, workers)?;
        check(&mut out, &records(&report));
        if traced {
            out.traced.push(TracedPass {
                wall_s: report.wall_s,
                cpu_s: report.cpu_s,
                workers: report.workers,
                counters: report.counters,
            });
            let next_base = id_base + report.spans.iter().map(|s| s.id).max().unwrap_or(0);
            for mut s in report.spans {
                s.id += id_base;
                if s.parent != 0 {
                    s.parent += id_base;
                }
                s.start_ns += ready_ns;
                out.spans.push(s);
            }
            id_base = next_base;
        } else {
            out.pass_s.push(report.wall_s);
            out.cpu_s += report.cpu_s;
            out.items += ARTIFACTS.len() as u64;
            out.setup_s.push(ready_s);
            out.peak_rss_kib = out.peak_rss_kib.max(report.rss_kib);
        }
        pass += 1;
    }
    let serial = spawn_pass(false, pass, 1)?;
    check(&mut out, &records(&serial.report));
    // Every pass is compared with the golden records, and so is the
    // one-worker pass.
    out.checked = (pass as usize + 1, pass as usize + 1);
    Ok(out)
}

/// Golden records: the artifact digests, identical at one worker and
/// at all of them.
pub fn golden() -> Result<Golden, String> {
    let full = spawn_pass(false, 0, sys::nproc())?.report.digests;
    let serial = spawn_pass(false, 0, 1)?.report.digests;
    if full != serial {
        return Err("paper digests differ between 1 worker and all of them".into());
    }
    let digests: Option<Vec<String>> = full.into_iter().collect();
    Ok(Golden {
        workload: "paper".into(),
        seed: DEFAULT_SEED,
        passes: vec![digests.ok_or("an artifact panicked")?],
    })
}
