//! # sfq-chars
//!
//! Closes the loop between the circuit level and the architecture
//! level: characterize a [`sfq_cells::CellLibrary`] *from transient
//! simulation*, exactly how the paper's flow derives its gate
//! parameters from JSIM runs (§IV-A.1: "we extract all gate parameters
//! by running JSIM simulations").
//!
//! The measured cells are the ones `jjsim` implements (JTL, splitter,
//! DFF, clocked AND, shift register); the remaining library rows are
//! scaled from the measured AND using the shipped library's relative
//! proportions — the standard practice when only a subset of a family
//! has silicon-grade characterization.
//!
//! # Example
//!
//! ```no_run
//! let lib = sfq_chars::characterize().expect("transient runs converge");
//! assert!(lib.gate(sfq_cells::GateKind::Jtl).delay_ps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use jjsim::extract::{
    and_clock_to_q, and_cycle_energy, dff_clock_to_q, dff_cycle_energy, jtl_characteristics,
    max_shift_frequency, splitter_delay,
};
use jjsim::stdlib::{AndParams, DffParams, JtlParams};
use jjsim::SimError;
use sfq_cells::{CellLibrary, DeviceParams, GateKind, GateParams};
use sfq_obs::Memo;

/// Bias-network recharge energy per switched junction, attojoules
/// (Φ₀·I_b at the default 0.5·I_c bias point) — added to the shunt
/// dissipation the transient solver measures.
fn bias_recharge_aj(bias_a: f64) -> f64 {
    bias_a * jjsim::PHI0 * 1e18
}

/// Raw measurements backing a characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurements {
    /// JTL per-stage delay, ps.
    pub jtl_delay_ps: f64,
    /// JTL per-switching shunt energy, aJ.
    pub jtl_energy_aj: f64,
    /// Splitter delay, ps.
    pub splitter_delay_ps: f64,
    /// DFF clock-to-Q, ps.
    pub dff_delay_ps: f64,
    /// DFF store+release shunt energy, aJ.
    pub dff_energy_aj: f64,
    /// Clocked-AND clock-to-Q, ps.
    pub and_delay_ps: f64,
    /// Clocked-AND evaluate shunt energy, aJ.
    pub and_energy_aj: f64,
    /// Maximum functional shift-register clock, GHz.
    pub sr_max_ghz: f64,
}

// ------------------------------------------------------- measurement cache

/// JTL chain length used by the JTL testbench.
const JTL_STAGES: usize = 8;
/// Shift-register bisection bounds on the clock period, ps — passed as
/// `max_shift_frequency`'s `lo_ps`/`hi_ps`, so the search covers
/// 20–200 GHz.
const SR_BISECT_LO_PS: f64 = 5.0;
const SR_BISECT_HI_PS: f64 = 50.0;

/// Bit-exact fingerprint of every input feeding the testbenches: the
/// three cell parameter sets (as `f64::to_bits`) plus the testbench
/// scalars. Two keys are equal iff the transient runs would be
/// bit-identical, so a cache hit can never change a result.
type MeasureKey = [u64; 21];

fn measure_key(jtl: &JtlParams, dff: &DffParams, and: &AndParams) -> MeasureKey {
    [
        jtl.ic.to_bits(),
        jtl.bias_frac.to_bits(),
        jtl.l.to_bits(),
        jtl.input_amplitude.to_bits(),
        jtl.input_time.to_bits(),
        dff.ic_in.to_bits(),
        dff.ic_out.to_bits(),
        dff.l_store.to_bits(),
        dff.bias_store.to_bits(),
        dff.bias_out.to_bits(),
        dff.pulse_amplitude.to_bits(),
        and.ic_store.to_bits(),
        and.ic_out.to_bits(),
        and.l_store.to_bits(),
        and.bias_store.to_bits(),
        and.bias_out.to_bits(),
        and.pulse_amplitude.to_bits(),
        and.clock_amplitude.to_bits(),
        JTL_STAGES as u64,
        SR_BISECT_LO_PS.to_bits(),
        SR_BISECT_HI_PS.to_bits(),
    ]
}

/// Process-wide memo of completed measurement runs: one entry per
/// distinct parameter set, a handful per process at most.
static MEASUREMENTS: Memo<MeasureKey, Measurements> = Memo::new("chars.measure", None);

/// Drop all cached measurements (this memo and the `jjsim::extract`
/// transient memo beneath it) and reset their hit/miss counters, so
/// the next measurement runs its transients again.
pub fn clear_measure_cache() {
    MEASUREMENTS.clear();
    jjsim::extract::clear_extract_cache();
}

/// Run every transient testbench and collect the raw numbers.
///
/// Results are memoized process-wide on a bit-exact fingerprint of the
/// testbench inputs: repeated calls (the library is re-characterized by
/// every sweep that wants transient-grounded gate parameters) return
/// the cached [`Measurements`] without re-running any `jjsim`
/// transient — observable via [`jjsim::transient_runs`].
///
/// # Errors
///
/// Propagates any transient-solver failure. Errors are not cached.
pub fn measure() -> Result<Measurements, SimError> {
    measure_with(
        &JtlParams::default(),
        &DffParams::default(),
        &AndParams::default(),
    )
}

/// [`measure`] for explicit (possibly perturbed) cell parameters — the
/// entry point for sweeps that move a subset of the parameter space.
///
/// Memoization is two-level: a memo on the full parameter fingerprint
/// returns an assembled [`Measurements`] without touching any
/// testbench, and on a miss each of the seven extractions solves
/// through the `jjsim::extract` transient memo, keyed on its exact
/// circuit. A sweep point that perturbs, say, the AND parameters
/// re-runs *only* the AND transients; the JTL and DFF numbers are
/// reused bit-identically from the previous point.
///
/// # Errors
///
/// Propagates any transient-solver failure. Errors are not cached.
pub fn measure_with(
    jtl_p: &JtlParams,
    dff_p: &DffParams,
    and_p: &AndParams,
) -> Result<Measurements, SimError> {
    let key = measure_key(jtl_p, dff_p, and_p);

    let _measure = sfq_obs::region("chars.measure");
    if let Some(m) = MEASUREMENTS.get(&key) {
        sfq_obs::prof::count("cache_hit", 1);
        return Ok(m);
    }
    sfq_obs::prof::count("cache_miss", 1);
    let fill = sfq_obs::region("chars.measure.fill");
    let m = run_testbenches(jtl_p, dff_p, and_p)?;
    drop(fill);
    MEASUREMENTS.insert(key, m);
    Ok(m)
}

/// The seven testbench extractions, one region per cell family. JTL
/// numbers depend only on `jtl_p`, DFF and shift-register numbers only
/// on `dff_p`, AND numbers only on `and_p`.
fn run_testbenches(
    jtl_p: &JtlParams,
    dff_p: &DffParams,
    and_p: &AndParams,
) -> Result<Measurements, SimError> {
    let bench = sfq_obs::region("chars.jtl_bench");
    let jtl = jtl_characteristics(JTL_STAGES, jtl_p)?;
    let splitter_delay_ps = splitter_delay(jtl_p)? * 1e12;
    drop(bench);
    let bench = sfq_obs::region("chars.dff_bench");
    let dff_delay_ps = dff_clock_to_q(dff_p)? * 1e12;
    let dff_energy_aj = dff_cycle_energy(dff_p)? * 1e18;
    let sr_max_ghz = max_shift_frequency(dff_p, SR_BISECT_LO_PS, SR_BISECT_HI_PS)? / 1e9;
    drop(bench);
    let _bench = sfq_obs::region("chars.and_bench");
    Ok(Measurements {
        jtl_delay_ps: jtl.delay_s * 1e12,
        jtl_energy_aj: jtl.energy_j * 1e18,
        splitter_delay_ps,
        dff_delay_ps,
        dff_energy_aj,
        and_delay_ps: and_clock_to_q(and_p)? * 1e12,
        and_energy_aj: and_cycle_energy(and_p)? * 1e18,
        sr_max_ghz,
    })
}

/// Turn measurements into a full cell library.
///
/// Measured rows (JTL, splitter, DFF, AND) use their transient delays
/// and bias-corrected energies; the DFF's setup/hold split is derived
/// from the measured shift-register clock limit
/// (`setup + hold = 1/f_max − data/clock transit`), and the other
/// clocked gates inherit the reference library's proportions relative
/// to its AND row. JJ counts and static power keep the reference
/// values (they are structural, not timing, properties).
pub fn library_from(m: &Measurements) -> CellLibrary {
    let reference = CellLibrary::aist_10um();
    let ref_and = reference.gate(GateKind::And);

    // Timing scale factor for unmeasured clocked gates.
    let delay_scale = m.and_delay_ps / ref_and.delay_ps;
    // Setup + hold window from the SR functional limit: the counter-
    // flow cycle covers setup + hold + data + clock transit; transit is
    // roughly the measured DFF delay plus half a JTL.
    let sr_cct_ps = 1000.0 / m.sr_max_ghz;
    let window = (sr_cct_ps - m.dff_delay_ps - 0.5 * m.jtl_delay_ps).max(2.0);
    let ref_dff = reference.gate(GateKind::Dff);
    let ref_window = ref_dff.setup_ps + ref_dff.hold_ps;
    let window_scale = window / ref_window;

    let mut gates = BTreeMap::new();
    for (kind, r) in reference.iter() {
        let g = match kind {
            GateKind::Jtl => GateParams {
                delay_ps: m.jtl_delay_ps,
                energy_aj: 2.0 * (m.jtl_energy_aj + bias_recharge_aj(0.7e-4)),
                ..*r
            },
            GateKind::Splitter => GateParams {
                delay_ps: m.splitter_delay_ps,
                // The splitter's hub junction has doubled critical
                // current: twice the per-switching energy of a JTL
                // junction at the same bias fraction.
                energy_aj: 2.0 * (m.jtl_energy_aj + bias_recharge_aj(0.7e-4)),
                ..*r
            },
            GateKind::Dff => GateParams {
                delay_ps: m.dff_delay_ps.max(1.0),
                setup_ps: r.setup_ps * window_scale,
                hold_ps: r.hold_ps * window_scale,
                energy_aj: 0.5 * (m.dff_energy_aj + bias_recharge_aj(1.0e-4)),
                ..*r
            },
            GateKind::And => GateParams {
                delay_ps: m.and_delay_ps,
                setup_ps: r.setup_ps * window_scale,
                hold_ps: r.hold_ps * window_scale,
                energy_aj: m.and_energy_aj + bias_recharge_aj(1.5e-4),
                ..*r
            },
            // Unmeasured gates: scale timing from the reference's
            // proportions against its AND row.
            _ => GateParams {
                delay_ps: r.delay_ps * delay_scale,
                setup_ps: r.setup_ps * window_scale,
                hold_ps: r.hold_ps * window_scale,
                ..*r
            },
        };
        gates.insert(kind, g);
    }
    CellLibrary::new(DeviceParams::aist_10um(), gates)
        .unwrap_or_else(|e| unreachable!("characterized parameters are positive and complete: {e}"))
}

/// Measure and build in one call.
///
/// # Errors
///
/// Propagates any transient-solver failure.
pub fn characterize() -> Result<CellLibrary, SimError> {
    Ok(library_from(&measure()?))
}

/// [`characterize`] for explicit cell parameters, with
/// [`measure_with`]'s incremental memoization.
///
/// # Errors
///
/// Propagates any transient-solver failure.
pub fn characterize_with(
    jtl_p: &JtlParams,
    dff_p: &DffParams,
    and_p: &AndParams,
) -> Result<CellLibrary, SimError> {
    Ok(library_from(&measure_with(jtl_p, dff_p, and_p)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_are_physical() {
        let m = measure().expect("transients converge");
        assert!(m.jtl_delay_ps > 1.0 && m.jtl_delay_ps < 15.0);
        assert!(m.splitter_delay_ps > 1.0 && m.splitter_delay_ps < 20.0);
        assert!(m.dff_delay_ps > 0.5 && m.dff_delay_ps < 20.0);
        assert!(m.and_delay_ps > 1.0 && m.and_delay_ps < 25.0);
        assert!(m.sr_max_ghz > 20.0 && m.sr_max_ghz < 220.0);
        assert!(m.jtl_energy_aj > 0.05 && m.jtl_energy_aj < 5.0);
    }

    #[test]
    fn measured_library_is_complete_and_valid() {
        let lib = characterize().expect("characterization runs");
        for (k, g) in lib.iter() {
            assert!(g.delay_ps > 0.0, "{k:?}");
            assert!(g.energy_aj > 0.0, "{k:?}");
        }
    }

    #[test]
    fn measured_library_tracks_reference_within_2x() {
        // The independent transient testbenches and the shipped
        // (paper-calibrated) library agree on every measured quantity
        // to within a factor of two.
        let measured = characterize().expect("characterization runs");
        let reference = CellLibrary::aist_10um();
        for kind in [GateKind::Jtl, GateKind::Splitter, GateKind::And] {
            let ratio = measured.gate(kind).delay_ps / reference.gate(kind).delay_ps;
            assert!(
                (0.5..2.0).contains(&ratio),
                "{kind:?} delay ratio {ratio:.2}"
            );
            let e_ratio = measured.gate(kind).energy_aj / reference.gate(kind).energy_aj;
            assert!(
                (0.4..2.5).contains(&e_ratio),
                "{kind:?} energy ratio {e_ratio:.2}"
            );
        }
    }

    #[test]
    fn architecture_estimate_from_measured_library_is_same_regime() {
        // End-to-end: transient physics -> cell library -> NPU clock.
        // The measured library must put the SuperNPU clock within 2x
        // of the paper's 52.6 GHz.
        let measured = characterize().expect("characterization runs");
        let est = sfq_estimator::estimate(&sfq_estimator::NpuConfig::paper_supernpu(), &measured);
        assert!(
            est.frequency_ghz > 26.0 && est.frequency_ghz < 105.0,
            "measured-library clock {:.1} GHz",
            est.frequency_ghz
        );
        assert!(est.static_w > 0.0);
    }
}
