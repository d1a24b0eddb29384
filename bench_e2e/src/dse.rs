//! `dse`: a seeded design-space sweep. Each pass draws fresh, valid
//! NPU configurations and runs each through the estimator and the
//! cycle simulator on the six paper CNNs, fanned out over the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dnn_models::{zoo, Network};
use serde::Serialize;
use sfq_cells::CellLibrary;
use sfq_estimator::{estimate, NpuConfig, NpuEstimate};
use sfq_npu_sim::{simulate_network, simulate_network_with_batch, NetworkStats, SimConfig};

use crate::check::{digest_values, PassRecords, Record};
use crate::{pass_seed, trace, InProcess, SplitMix64};

/// Candidates per pass; an item is one candidate.
const CANDIDATES: usize = 256;
const KIB: u64 = 1024;

pub struct Dse {
    nets: Vec<Network>,
    lib: CellLibrary,
}

/// Everything the sweep computes for one candidate.
pub struct Evaluated {
    est: NpuEstimate,
    cfg: SimConfig,
    max_batch: Vec<NetworkStats>,
    batch1: Vec<NetworkStats>,
}

/// One valid configuration. Buffer sizes step by 64 KiB over
/// 4–32 MiB, so across a run no two candidates are expected to repeat.
fn draw_one(rng: &mut SplitMix64) -> NpuConfig {
    let width = 16 * rng.range(1, 16) as u32;
    let height = rng.pick(&[64u32, 128, 192, 256]);
    let regs = rng.pick(&[1u32, 2, 4, 8, 16]);
    let division = rng.pick(&[1u32, 4, 16, 64, 256, 1024]);
    let integrated = rng.next_u64().is_multiple_of(2);
    let mut buffer = || 64 * KIB * rng.range(64, 512);
    let ifmap = buffer();
    let output = buffer();
    let psum = if integrated { 0 } else { buffer() };
    let weight = KIB * rng.pick(&[16u64, 32, 64, 128]);
    NpuConfig {
        name: format!(
            "w{width}h{height}r{regs}d{division}{}-i{}k-o{}k-p{}k-wb{}k",
            if integrated { "I" } else { "S" },
            ifmap / KIB,
            output / KIB,
            psum / KIB,
            weight / KIB
        ),
        array_height: height,
        array_width: width,
        bits: 8,
        regs_per_pe: regs,
        ifmap_buf_bytes: ifmap,
        output_buf_bytes: output,
        psum_buf_bytes: psum,
        weight_buf_bytes: weight,
        division,
        integrated_output: integrated,
    }
}

impl Dse {
    fn evaluate(&self, npu: &NpuConfig) -> Option<Evaluated> {
        let est = trace::span("estimator", "estimate", || estimate(npu, &self.lib));
        let cfg = trace::span("estimator", "try_from_npu", || {
            SimConfig::try_from_npu(npu.clone(), &self.lib)
        })
        .ok()?;
        let max_batch = trace::span("npusim", "simulate_network", || {
            self.nets
                .iter()
                .map(|n| simulate_network(&cfg, n))
                .collect()
        });
        let batch1 = trace::span("npusim", "simulate_network_with_batch", || {
            self.nets
                .iter()
                .map(|n| simulate_network_with_batch(&cfg, n, 1))
                .collect()
        });
        Some(Evaluated {
            est,
            cfg,
            max_batch,
            batch1,
        })
    }
}

impl InProcess for Dse {
    type Input = Vec<NpuConfig>;
    type Output = Vec<Option<Evaluated>>;
    const NAME: &'static str = "dse";

    fn setup() -> Self {
        Dse {
            nets: zoo::all(),
            lib: CellLibrary::aist_10um(),
        }
    }

    fn units(&self) -> Vec<u64> {
        vec![1; CANDIDATES]
    }

    fn draw(&self, seed: u64, pass: u64) -> Vec<NpuConfig> {
        let mut rng = SplitMix64::new(pass_seed(seed, pass));
        (0..CANDIDATES).map(|_| draw_one(&mut rng)).collect()
    }

    fn run(&self, input: &Vec<NpuConfig>) -> Vec<Option<Evaluated>> {
        sfq_par::par_map(input, |npu| {
            trace::task(|| {
                catch_unwind(AssertUnwindSafe(|| self.evaluate(npu)))
                    .ok()
                    .flatten()
            })
        })
    }

    fn records(&self, out: Vec<Option<Evaluated>>, digest: bool) -> PassRecords {
        out.into_iter()
            .map(|e| {
                e.map(|e| {
                    Record::digest(if digest {
                        digest_values(&[
                            e.est.serialize(),
                            e.cfg.serialize(),
                            e.max_batch.serialize(),
                            e.batch1.serialize(),
                        ])
                    } else {
                        String::new()
                    })
                })
            })
            .collect()
    }

    fn golden_record(&self, exact: &str) -> Record {
        Record::digest(exact.to_owned())
    }
}
