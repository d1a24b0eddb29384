//! `mc_yield`: seeded Monte-Carlo yield of the JTL, DFF and clocked-AND
//! cells over the σ grid, at the default lane width, no injected
//! failures.

use sfq_faults::{run_outcomes, yield_curve, Cell, McOptions, Outcome, YieldPoint};

use crate::check::{PassRecords, Record};
use crate::{pass_seed, trace, InProcess};

/// The σ grid of `bench_faults`.
const SIGMAS: [f64; 5] = [0.02, 0.05, 0.10, 0.20, 0.35];
/// Samples per (cell, σ) point, as `bench_faults` runs by default; an
/// item is one sample.
const SAMPLES: u32 = 200;

pub struct McYield {
    opts: McOptions,
}

fn tally(pass: u32, fail: u32, non_convergent: u32, panicked: u32) -> String {
    format!("P{pass}F{fail}N{non_convergent}X{panicked}")
}

/// A per-sample outcome string (`P`ass, `F`ail, `N`on-convergent,
/// panic`X`) as a record.
fn outcome_record(exact: &str) -> Record {
    let n = |c| exact.chars().filter(|&x| x == c).count() as u32;
    Record {
        summary: tally(n('P'), n('F'), n('N'), n('X')),
        errored: u64::from(n('N') + n('X')),
        exact: Some(exact.to_owned()),
    }
}

fn point_record(p: &YieldPoint) -> Record {
    Record {
        exact: None,
        summary: tally(p.pass, p.fail, p.non_convergent, p.panicked),
        errored: u64::from(p.non_convergent + p.panicked),
    }
}

impl InProcess for McYield {
    /// The pass's Monte-Carlo seed.
    type Input = u64;
    /// One yield curve per cell.
    type Output = Vec<Option<Vec<YieldPoint>>>;
    const NAME: &'static str = "mc_yield";

    fn setup() -> Self {
        McYield {
            opts: McOptions::new(SAMPLES),
        }
    }

    fn units(&self) -> Vec<u64> {
        vec![u64::from(SAMPLES); Cell::all().len() * SIGMAS.len()]
    }

    fn draw(&self, seed: u64, pass: u64) -> u64 {
        pass_seed(seed, pass)
    }

    fn run(&self, &seed: &u64) -> Self::Output {
        Cell::all()
            .iter()
            .map(|&cell| {
                trace::span("faults", "yield_curve", || {
                    yield_curve(cell, &SIGMAS, seed, &self.opts)
                })
                .ok()
            })
            .collect()
    }

    fn records(&self, out: Self::Output, _digest: bool) -> PassRecords {
        out.iter()
            .flat_map(|curve| match curve {
                Some(points) if points.len() == SIGMAS.len() => {
                    points.iter().map(|p| Some(point_record(p))).collect()
                }
                _ => vec![None; SIGMAS.len()],
            })
            .collect()
    }

    /// The same Monte-Carlo draws through `run_outcomes`, the
    /// per-sample function `yield_curve` tallies.
    fn replay(&self, &seed: &u64) -> PassRecords {
        let mut recs = Vec::new();
        for cell in Cell::all() {
            for sigma in SIGMAS {
                recs.push(
                    run_outcomes(cell, sigma, seed, &self.opts)
                        .ok()
                        .map(|outs| {
                            let s: String = outs
                                .iter()
                                .map(|o| match o {
                                    Outcome::Pass => 'P',
                                    Outcome::Fail => 'F',
                                    Outcome::NonConvergent => 'N',
                                    Outcome::Panicked => 'X',
                                })
                                .collect();
                            outcome_record(&s)
                        }),
                );
            }
        }
        recs
    }

    fn golden_record(&self, exact: &str) -> Record {
        outcome_record(exact)
    }
}
