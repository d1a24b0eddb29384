//! Parameter extraction: how the workspace turns transient runs into
//! cell-library numbers (delays, maximum clock rates, switching
//! energies), mirroring the paper's use of JSIM in §IV-A.1.

use sfq_obs::Memo;

use crate::solver::{SimOptions, Solver};
use crate::stdlib::{
    clocked_and, dff, jtl_chain, shift_register, splitter, AndParams, DffParams, JtlParams,
};
use crate::{SimError, SimResult};

/// Measured characteristics of a simulated cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extraction {
    /// Propagation delay in seconds.
    pub delay_s: f64,
    /// Energy dissipated per switching event, joules.
    pub energy_j: f64,
}

// ------------------------------------------------------ testbench memo

/// Bit-exact key of one testbench transient: the circuit's
/// fingerprint, then the horizon's bits. The solver options are always
/// [`SimOptions::adaptive`], so they need no slot.
type RunKey = Vec<u64>;

/// Process-wide memo of completed scalar testbench transients. Fig.
/// 7(c), Fig. 13, `sfq_chars` characterization and the margin searches
/// solve the same default-parameter testbenches, and the
/// clock-to-Q/cycle-energy pairs solve one circuit each; all of them
/// meet here, so each distinct transient runs once per process. Equal
/// keys mean bit-identical runs, so a hit can never change a result. A
/// hit does no solver work, so it neither polls nor spends an ambient
/// `sfq_guard` budget. Errors are never stored. Cleared wholesale if
/// it ever grows past a bound no legitimate characterization reaches.
static TRANSIENTS: Memo<RunKey, SimResult> = Memo::new("jjsim.extract", Some(TRANSIENTS_CAP));
const TRANSIENTS_CAP: usize = 1024;

/// Drop every memoized testbench transient and reset the
/// `jjsim.extract.cache_hit` / `.cache_miss` counters, so the next
/// extraction runs the solver again. `sfq_chars::clear_measure_cache`
/// calls this; normal code never needs to (transients are
/// deterministic for a given build).
pub fn clear_extract_cache() {
    TRANSIENTS.clear();
}

/// Solve one testbench, through the memo. Every extraction below,
/// every [`max_shift_frequency`] trial and every margin probe goes
/// through here.
pub(crate) fn run(c: crate::Circuit, t_end: f64) -> Result<SimResult, SimError> {
    let mut key = c.fingerprint();
    key.push(t_end.to_bits());
    if let Some(out) = TRANSIENTS.get(&key) {
        return Ok(out);
    }
    // Extraction cares about pulse counts, pulse times and dissipated
    // energies — exactly what the adaptive controller preserves (same
    // counts, sub-0.5 ps times) while cutting step counts several-fold
    // on these mostly-quiescent testbenches. This is the hot path
    // under `chars::measure` and everything built on it.
    let out = Solver::new(c, SimOptions::adaptive())?.try_run(t_end)?;
    TRANSIENTS.insert(key, out.clone());
    Ok(out)
}

/// Per-stage delay and per-event switching energy of a JTL, measured
/// on an `n`-stage chain: the delay is the first pulse's flight from
/// stage 0 to stage `n − 1` divided by the `n − 1` hops, the energy is
/// the whole chain's dissipation divided by `n`.
///
/// # Errors
///
/// Propagates solver failures; returns [`SimError::NonConvergent`]
/// when the chain does not fire at all.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn jtl_characteristics(n: usize, p: &JtlParams) -> Result<Extraction, SimError> {
    assert!(n >= 3, "need at least 3 stages");
    let (c, stages) = jtl_chain(n, p);
    let out = run(c, p.input_time + 40e-12 * n as f64)?;
    let t_first = out.pulse_times(stages[0]).first().copied();
    let t_last = out.pulse_times(stages[n - 1]).first().copied();
    let (Some(t0), Some(t1)) = (t_first, t_last) else {
        return Err(SimError::NonConvergent {
            what: "JTL chain did not propagate the launch pulse",
        });
    };
    let delay = (t1 - t0) / (n - 1) as f64;
    // Total dissipation divided by the number of switching junctions.
    let energy = out.dissipated_j / n as f64;
    Ok(Extraction {
        delay_s: delay,
        energy_j: energy,
    })
}

/// Input-to-output delay of a splitter (hub slip → branch slip).
///
/// # Errors
///
/// Fails if the solver diverges or the splitter does not fire.
pub fn splitter_delay(p: &JtlParams) -> Result<f64, SimError> {
    let (c, probes) = splitter(p);
    let out = run(c, p.input_time + 80e-12)?;
    let (Some(&t_in), Some(&t_out)) = (
        out.pulse_times(probes.input).first(),
        out.pulse_times(probes.out_a).first(),
    ) else {
        return Err(SimError::NonConvergent {
            what: "splitter did not fire on both probes",
        });
    };
    Ok(t_out - t_in)
}

/// Clock-to-output delay of a DFF holding a '1'.
///
/// # Errors
///
/// Fails if the solver diverges or the cell does not release its datum.
pub fn dff_clock_to_q(p: &DffParams) -> Result<f64, SimError> {
    let clock_t = 100e-12;
    let (c, probes) = dff(&[60e-12], &[clock_t], p);
    let out = run(c, 170e-12)?;
    let Some(&t_out) = out.pulse_times(probes.output).first() else {
        return Err(SimError::NonConvergent {
            what: "DFF did not release its stored datum",
        });
    };
    Ok(t_out - clock_t)
}

/// Clock-to-output delay of the clocked AND gate with both inputs
/// set — the gate whose characterized delay the paper prints (8.3 ps).
///
/// # Errors
///
/// Fails if the solver diverges or the gate does not fire.
pub fn and_clock_to_q(p: &AndParams) -> Result<f64, SimError> {
    let clock_t = 100e-12;
    let (c, probes) = clocked_and(&[60e-12], &[60e-12], &[clock_t], p);
    let out = run(c, 170e-12)?;
    let Some(&t_out) = out.pulse_times(probes.output).first() else {
        return Err(SimError::NonConvergent {
            what: "clocked AND did not fire with both inputs set",
        });
    };
    Ok(t_out - clock_t)
}

/// Energy per clocked-AND evaluate cycle (both inputs set).
///
/// # Errors
///
/// Fails if the solver diverges.
pub fn and_cycle_energy(p: &AndParams) -> Result<f64, SimError> {
    let (c, _probes) = clocked_and(&[60e-12], &[60e-12], &[100e-12], p);
    let out = run(c, 170e-12)?;
    Ok(out.dissipated_j)
}

/// Energy per DFF store+release cycle.
///
/// # Errors
///
/// Fails if the solver diverges.
pub fn dff_cycle_energy(p: &DffParams) -> Result<f64, SimError> {
    let (c, _probes) = dff(&[60e-12], &[100e-12], p);
    let out = run(c, 170e-12)?;
    Ok(out.dissipated_j)
}

/// Verdict of one shift-register functional trial.
fn shift_register_works(period: f64, p: &DffParams) -> Result<bool, SimError> {
    // One datum through a 3-stage register; clocks at the trial period.
    let n = 3usize;
    let t_data = 60e-12;
    let clocks: Vec<f64> = (0..n).map(|k| 80e-12 + period * k as f64).collect();
    let (c, probes) = shift_register(n, t_data, &clocks, 0.0, p);
    let out = run(c, clocks[n - 1] + 60e-12)?;
    for (k, jj) in probes.stage_outputs.iter().enumerate() {
        if out.pulse_count(*jj) != 1 {
            return Ok(false);
        }
        let t = out.pulse_times(*jj)[0];
        if t < clocks[k] || t > clocks[k] + period.max(25e-12) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Maximum shift-register clock frequency in hertz, found by bisecting
/// the clock period over `[lo_ps, hi_ps]` picoseconds until the
/// register stops shifting correctly.
///
/// # Errors
///
/// Propagates solver failures from the trial runs.
pub fn max_shift_frequency(p: &DffParams, lo_ps: f64, hi_ps: f64) -> Result<f64, SimError> {
    let mut bad = lo_ps * 1e-12;
    let mut good = hi_ps * 1e-12;
    if !shift_register_works(good, p)? {
        return Err(SimError::NonConvergent {
            what: "shift register fails even at the slowest trial clock",
        });
    }
    for _ in 0..8 {
        let mid = 0.5 * (bad + good);
        if shift_register_works(mid, p)? {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Ok(1.0 / good)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jtl_delay_is_picoscale() {
        let ex = jtl_characteristics(8, &JtlParams::default()).unwrap();
        assert!(
            ex.delay_s > 1e-12 && ex.delay_s < 15e-12,
            "delay {:e}",
            ex.delay_s
        );
        // Switching energy within an order of magnitude of Ic·Φ0 ≈ 2e-19 J.
        assert!(
            ex.energy_j > 1e-20 && ex.energy_j < 5e-18,
            "energy {:e}",
            ex.energy_j
        );
    }

    #[test]
    fn splitter_delay_positive_ps_scale() {
        let d = splitter_delay(&JtlParams::default()).unwrap();
        assert!(d > 0.0 && d < 30e-12, "delay {d:e}");
    }

    #[test]
    fn dff_clock_to_q_is_ps_scale() {
        let d = dff_clock_to_q(&DffParams::default()).unwrap();
        assert!(d > 0.0 && d < 30e-12, "delay {d:e}");
    }

    #[test]
    fn and_clock_to_q_is_ps_scale() {
        let d = and_clock_to_q(&AndParams::default()).unwrap();
        assert!(d > 0.0 && d < 30e-12, "delay {d:e}");
    }

    #[test]
    fn and_cycle_energy_is_aj_scale() {
        let e = and_cycle_energy(&AndParams::default()).unwrap();
        assert!(e > 1e-20 && e < 1e-17, "energy {e:e}");
    }

    #[test]
    fn dff_cycle_energy_is_aj_scale() {
        let e = dff_cycle_energy(&DffParams::default()).unwrap();
        // A handful of junction switchings: 1e-20 .. 1e-17 J.
        assert!(e > 1e-20 && e < 1e-17, "energy {e:e}");
    }

    #[test]
    fn shift_register_max_frequency_tens_of_ghz() {
        let f = max_shift_frequency(&DffParams::default(), 5.0, 50.0).unwrap();
        assert!(
            f > 20e9 && f < 220e9,
            "max shift frequency {:.1} GHz",
            f / 1e9
        );
    }
}
