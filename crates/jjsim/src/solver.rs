//! The transient solver's public face — [`SimOptions`],
//! [`StepControl`], [`SimResult`] and [`Solver`] — and the one-lane
//! numerical policy.
//!
//! [`Solver`] is the one-lane instantiation of the shared step loop in
//! `crate::engine` (modified nodal analysis, trapezoidal integration,
//! Newton per step, fixed or LTE-controlled adaptive stepping); the
//! lane-batched [`crate::BatchedTransient`] is the same loop at
//! `LANES` lanes. What is one-lane only is [`ScalarPolicy`]: libm
//! junction trigonometry, dense pivoting elimination for small systems
//! and as the fallback of the banded LU, and typed errors for a Newton
//! failure at `dt_min`, a singular matrix or a budget stop. Its output
//! bits are pinned by `tests/golden_bits.rs`.

use crate::circuit::Circuit;
use crate::engine::{self, transient_counter, Counters, LaneState, Policy, Retire};
use crate::error::SimError;
use crate::linalg::factor_band;
use crate::ElementId;

/// Number of transient analyses started by this process so far.
///
/// Deprecated alias: this is now a thin wrapper over the
/// `jjsim.solver.transient_runs` counter in the [`sfq_obs`] registry;
/// prefer `sfq_obs::counter("jjsim.solver.transient_runs").get()` (or
/// [`sfq_obs::snapshot`]) in new code.
pub fn transient_runs() -> u64 {
    transient_counter().get()
}

/// Timestep policy of a transient run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StepControl {
    /// March at the fixed `SimOptions::dt`. The default; results are
    /// bit-identical to the historical fixed-step solver.
    #[default]
    Fixed,
    /// Local-truncation-error controlled stepping with event-aware
    /// refinement. The step starts at `dt_min`, doubles (up to
    /// `dt_max`) after a streak of quiet accepted steps, and halves
    /// back toward `dt_min` whenever the LTE estimate exceeds
    /// `lte_tol`, a junction phase moves fast, Newton fails to
    /// converge, or a source waveform has an edge inside the step.
    Adaptive {
        /// Smallest step taken, seconds. Pulses are resolved at this
        /// granularity; matching the fixed-mode `dt` (0.1 ps) keeps
        /// adaptive pulse times within a fraction of a picosecond of
        /// fixed-step results.
        dt_min: f64,
        /// Largest step taken during quiescent intervals, seconds.
        dt_max: f64,
        /// Local-truncation-error tolerance on node voltages, volts:
        /// the maximum deviation of a step from the linear
        /// extrapolation of the previous two accepted solutions.
        lte_tol: f64,
    },
}

/// Solver options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Timestep in seconds (default 0.1 ps — SFQ pulses are ~2 ps wide
    /// so this resolves them comfortably). Used directly by
    /// [`StepControl::Fixed`]; ignored in adaptive mode.
    pub dt: f64,
    /// Absolute Newton convergence tolerance on node voltages, volts.
    pub tol_v: f64,
    /// Maximum Newton iterations per step.
    pub max_newton: usize,
    /// Nodes whose voltage traces should be recorded (empty = none).
    pub record_nodes: Vec<crate::NodeId>,
    /// Timestep policy (default [`StepControl::Fixed`], so existing
    /// callers keep bit-identical results).
    pub step: StepControl,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            dt: 0.1e-12,
            tol_v: 1.0e-9,
            max_newton: 50,
            record_nodes: Vec::new(),
            step: StepControl::Fixed,
        }
    }
}

impl SimOptions {
    /// The workspace's standard adaptive configuration: `dt_min` equal
    /// to the fixed-mode default step (0.1 ps) so events are resolved
    /// at the same granularity, `dt_max` 20× larger for quiescent
    /// intervals, and a 1 µV LTE tolerance (SFQ pulse peaks are a few
    /// hundred µV).
    pub fn adaptive() -> Self {
        SimOptions {
            step: StepControl::Adaptive {
                dt_min: 0.1e-12,
                dt_max: 2.0e-12,
                lte_tol: 1.0e-6,
            },
            ..Default::default()
        }
    }
}

/// Reject a non-positive timestep, tolerance or adaptive step bound,
/// a `dt_max` below `dt_min`, or a zero Newton iteration budget.
pub(crate) fn validate_options(opts: &SimOptions) -> Result<(), SimError> {
    let check = |field: &'static str, value: f64| -> Result<(), SimError> {
        if !value.is_finite() || value <= 0.0 {
            return Err(SimError::InvalidParameter {
                element: "options",
                field,
                value,
            });
        }
        Ok(())
    };
    check("dt", opts.dt)?;
    check("tol_v", opts.tol_v)?;
    if opts.max_newton == 0 {
        return Err(SimError::InvalidParameter {
            element: "options",
            field: "max_newton",
            value: 0.0,
        });
    }
    if let StepControl::Adaptive {
        dt_min,
        dt_max,
        lte_tol,
    } = opts.step
    {
        check("dt_min", dt_min)?;
        check("dt_max", dt_max)?;
        check("lte_tol", lte_tol)?;
        if dt_max < dt_min {
            return Err(SimError::InvalidParameter {
                element: "options",
                field: "dt_max",
                value: dt_max,
            });
        }
    }
    Ok(())
}

/// Result of a transient run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Base timestep of the run: `SimOptions::dt` in fixed mode, the
    /// controller's `dt_min` in adaptive mode.
    pub dt: f64,
    /// Final simulation time.
    pub t_end: f64,
    pub(crate) pulse_times: Vec<Vec<f64>>,
    pub(crate) final_phases: Vec<f64>,
    /// Total energy dissipated in all resistive elements, joules.
    pub dissipated_j: f64,
    /// Energy dissipated per junction shunt, joules (indexed like the
    /// circuit's junctions).
    pub jj_dissipated_j: Vec<f64>,
    /// Recorded voltage traces, parallel to `SimOptions::record_nodes`;
    /// one sample per accepted timestep. In adaptive mode the samples
    /// are non-uniformly spaced — pair them with [`SimResult::trace_times`]
    /// or resample through [`SimResult::trace_at`].
    pub traces: Vec<Vec<f64>>,
    /// Times corresponding to trace samples (only filled when traces
    /// are recorded).
    pub trace_times: Vec<f64>,
    /// Accepted solver steps.
    pub accepted_steps: u64,
    /// Steps rejected and retried at a smaller dt (always 0 in fixed
    /// mode).
    pub rejected_steps: u64,
}

impl SimResult {
    /// Times (seconds) at which junction `jj` emitted an SFQ pulse
    /// (completed a forward 2π phase slip).
    ///
    /// In fixed mode a pulse is stamped at the end of the step that
    /// crossed the 2π boundary (historical behavior, bit-identical);
    /// in adaptive mode the crossing is interpolated inside the step,
    /// so consumers see sub-step timing accuracy regardless of how
    /// large the surrounding steps were.
    pub fn pulse_times(&self, jj: ElementId) -> &[f64] {
        &self.pulse_times[jj.index()]
    }

    /// Number of pulses emitted by junction `jj`.
    pub fn pulse_count(&self, jj: ElementId) -> usize {
        self.pulse_times[jj.index()].len()
    }

    /// Final superconducting phase of junction `jj`, radians.
    pub fn final_phase(&self, jj: ElementId) -> f64 {
        self.final_phases[jj.index()]
    }

    /// Linearly interpolated voltage of recorded trace `slot` at time
    /// `t`, clamping outside the recorded range. Gives adaptive-mode
    /// consumers a uniform view of the non-uniform samples.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or nothing was recorded.
    pub fn trace_at(&self, slot: usize, t: f64) -> f64 {
        let times = &self.trace_times;
        let vs = &self.traces[slot];
        assert!(!vs.is_empty(), "no samples recorded for slot {slot}");
        match times.partition_point(|&x| x < t) {
            0 => vs[0],
            i if i >= times.len() => vs[times.len() - 1],
            i => {
                let (t0, t1) = (times[i - 1], times[i]);
                let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
                vs[i - 1] + w * (vs[i] - vs[i - 1])
            }
        }
    }
}

/// The one-lane numerical policy: libm `sin`/`cos` of the junction
/// phase, the shunt current as `v/R`, chord-Newton LU reuse at a
/// relative conductance drift of 1e-8, packed band storage only for
/// systems over 24 unknowns whose half-bandwidth is under a third of
/// that, and dense pivoting elimination when the band factorization
/// hits a tiny pivot.
struct ScalarPolicy;

impl Policy<1> for ScalarPolicy {
    const REUSE_RTOL: f64 = 1e-8;
    const RETIRE_ON_TINY_PIVOT: bool = false;
    const STEP_EVENTS: bool = true;

    fn banded(n_unknown: usize, bandwidth: usize) -> bool {
        n_unknown > 24 && bandwidth * 3 < n_unknown
    }

    fn factor(lu: &mut [[f64; 1]], n: usize, bw: usize) -> [bool; 1] {
        factor_band(lu, n, bw)
    }

    #[inline(always)]
    fn linearize(
        st: &LaneState<1>,
        e: usize,
        [vb_k]: [f64; 1],
        [vb_prev]: [f64; 1],
        phi_coef: f64,
    ) -> ([f64; 1], [f64; 1]) {
        let phi = st.phase[e][0] + phi_coef * (vb_k + vb_prev);
        let ic = st.jj_ic[e][0];
        let g_cap = st.g_jjcap[e][0];
        let i_at_vk =
            ic * phi.sin() + vb_k / st.jj_r[e][0] + g_cap * (vb_k - vb_prev) - st.i_jj_cap[e][0];
        let g = ic * phi.cos() * phi_coef + st.jj_g_shunt[e][0] + g_cap;
        ([i_at_vk], [g])
    }

    #[inline(always)]
    fn commit_phase(_: &mut LaneState<1>, _: usize, _: [f64; 1], _: [f64; 1], _: usize) {}
}

/// The transient solver. Construct with [`Solver::new`], then call
/// [`Solver::run`].
#[derive(Debug)]
pub struct Solver {
    ckt: Circuit,
    opts: SimOptions,
}

impl Solver {
    /// Wrap a circuit, validating it.
    ///
    /// # Errors
    ///
    /// Returns the circuit's validation error, or
    /// [`SimError::InvalidParameter`] for a non-positive timestep,
    /// tolerance or adaptive step bound, a `dt_max` below `dt_min`,
    /// or a zero Newton iteration budget.
    pub fn new(ckt: Circuit, opts: SimOptions) -> Result<Self, SimError> {
        ckt.validate()?;
        validate_options(&opts)?;
        Ok(Solver { ckt, opts })
    }

    /// Run the transient analysis from t = 0 to `t_end` seconds.
    ///
    /// # Panics
    ///
    /// Panics on Newton non-convergence or a singular matrix (usually
    /// a floating node). Sweep and fault-injection code should call
    /// [`Solver::try_run`] and record the typed [`SimError`] instead.
    pub fn run(&self, t_end: f64) -> SimResult {
        match self.try_run(t_end) {
            Ok(out) => out,
            Err(e) => panic!("transient analysis failed: {e}; check circuit topology"),
        }
    }

    /// Fallible variant of [`Solver::run`].
    ///
    /// # Errors
    ///
    /// See [`Solver::run`]; a run stopped by the ambient `sfq_guard`
    /// budget returns [`SimError::Cancelled`] or
    /// [`SimError::BudgetExceeded`].
    pub fn try_run(&self, t_end: f64) -> Result<SimResult, SimError> {
        let out =
            engine::run::<1, ScalarPolicy>(std::slice::from_ref(&self.ckt), &self.opts, t_end, &[]);
        let [result] = <[_; 1]>::try_from(out.results)
            .unwrap_or_else(|_| unreachable!("one circuit in, one result out"));
        let result = result.map_err(|why| match why {
            Retire::Newton { time } => SimError::NoConvergence { time },
            Retire::Singular { time } => SimError::SingularMatrix { time },
            Retire::Budget {
                stop: sfq_guard::BudgetStop::Cancelled,
                time,
            } => SimError::Cancelled { time },
            Retire::Budget { stop, time } => SimError::BudgetExceeded {
                what: stop.label(),
                time,
            },
        });
        flush_metrics(&out.counters, result.as_ref().err());
        result
    }
}

/// Flush a one-lane run's counters into the [`sfq_obs`] registry
/// under `jjsim.solver.*`, gated on [`sfq_obs::enabled`].
fn flush_metrics(m: &Counters, error: Option<&SimError>) {
    if !sfq_obs::enabled() {
        return;
    }
    sfq_obs::add("jjsim.solver.steps", m.steps);
    sfq_obs::add("jjsim.solver.newton_iters", m.newton_iters);
    sfq_obs::add("jjsim.solver.lu_factor", m.lu_factor);
    sfq_obs::add("jjsim.solver.lu_reuse", m.lu_reuse);
    sfq_obs::add("jjsim.solver.dense_solves", m.dense_solves);
    sfq_obs::add("jjsim.solver.steps_rejected", m.rejected());
    sfq_obs::add("jjsim.solver.reject_lte", m.reject_lte);
    sfq_obs::add("jjsim.solver.reject_phase", m.reject_phase);
    sfq_obs::add("jjsim.solver.reject_newton", m.reject_newton);
    sfq_obs::add("jjsim.solver.refine_source", m.refine_source);
    sfq_obs::add("jjsim.solver.restamps", m.restamps);
    match error {
        Some(SimError::NoConvergence { .. }) => {
            sfq_obs::inc("jjsim.solver.convergence_failures");
        }
        Some(SimError::SingularMatrix { .. }) => {
            sfq_obs::inc("jjsim.solver.singular_matrix");
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{JjParams, NodeId};
    use crate::waveform::Waveform;
    use crate::PHI0;

    /// RC low-pass driven by DC current: v settles to I*R.
    #[test]
    fn rc_settles_to_ir() {
        let mut c = Circuit::new();
        let n = c.node();
        c.add_resistor(n, NodeId::GROUND, 2.0).unwrap();
        c.add_capacitor(n, NodeId::GROUND, 1e-12).unwrap();
        c.add_source(n, Waveform::Dc(1e-3)).unwrap();
        let res = Solver::new(c, SimOptions::default()).unwrap();
        let out = res.try_run(100e-12).unwrap();
        assert!(out.t_end == 100e-12);
        // Check final node voltage through a recorded trace instead:
        let mut c = Circuit::new();
        let n = c.node();
        c.add_resistor(n, NodeId::GROUND, 2.0).unwrap();
        c.add_capacitor(n, NodeId::GROUND, 1e-12).unwrap();
        c.add_source(n, Waveform::Dc(1e-3)).unwrap();
        let opts = SimOptions {
            record_nodes: vec![n],
            ..Default::default()
        };
        let out = Solver::new(c, opts).unwrap().try_run(100e-12).unwrap();
        let last = *out.traces[0].last().unwrap();
        assert!((last - 2e-3).abs() < 1e-5, "v = {last}");
    }

    /// A DC-biased junction below Ic stays superconducting (no pulses,
    /// zero average voltage).
    #[test]
    fn subcritical_jj_stays_quiet() {
        let mut c = Circuit::new();
        let n = c.node();
        let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
        c.add_bias(n, 0.7e-4).unwrap(); // 0.7 Ic
        let out = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(200e-12)
            .unwrap();
        assert_eq!(out.pulse_count(jj), 0);
        // Phase settles near asin(0.7).
        let expect = (0.7f64).asin();
        assert!(
            (out.final_phase(jj) - expect).abs() < 0.05,
            "phase = {}",
            out.final_phase(jj)
        );
    }

    /// A junction driven above Ic runs away: continuous phase slips
    /// (Josephson oscillation) at roughly f = V/Φ0.
    #[test]
    fn overdriven_jj_oscillates() {
        let mut c = Circuit::new();
        let n = c.node();
        let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
        c.add_bias(n, 2.0e-4).unwrap(); // 2 Ic
        let out = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(200e-12)
            .unwrap();
        assert!(out.pulse_count(jj) > 10, "pulses = {}", out.pulse_count(jj));
        assert!(out.dissipated_j > 0.0);
    }

    /// A single trigger pulse on a biased junction produces exactly one
    /// 2π slip, dissipating on the order of Ic·Φ0 (~2×10⁻¹⁹ J).
    #[test]
    fn single_sfq_switching_event() {
        let mut c = Circuit::new();
        let n = c.node();
        let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
        c.add_bias(n, 0.7e-4).unwrap();
        c.add_source(n, Waveform::sfq_pulse(60e-12, 1.5e-4))
            .unwrap();
        let out = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(120e-12)
            .unwrap();
        assert_eq!(out.pulse_count(jj), 1, "want exactly one phase slip");
        let t = out.pulse_times(jj)[0];
        assert!((t - 60e-12).abs() < 5e-12, "pulse at {t:e}");
        // Switching energy within an order of magnitude of Ic·Φ0.
        let e = out.jj_dissipated_j[0];
        let scale = 1.0e-4 * PHI0;
        assert!(e > 0.05 * scale && e < 20.0 * scale, "energy {e:e}");
    }

    #[test]
    fn invalid_dt_rejected() {
        let mut c = Circuit::new();
        let _ = c.node();
        let opts = SimOptions {
            dt: 0.0,
            ..Default::default()
        };
        assert!(Solver::new(c, opts).is_err());
    }

    #[test]
    fn invalid_tolerance_and_newton_budget_rejected() {
        let build = || {
            let mut c = Circuit::new();
            let _ = c.node();
            c
        };
        for tol_v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let opts = SimOptions {
                tol_v,
                ..Default::default()
            };
            assert!(
                matches!(
                    Solver::new(build(), opts),
                    Err(SimError::InvalidParameter { field: "tol_v", .. })
                ),
                "tol_v = {tol_v} must be rejected"
            );
        }
        let opts = SimOptions {
            max_newton: 0,
            ..Default::default()
        };
        assert!(matches!(
            Solver::new(build(), opts),
            Err(SimError::InvalidParameter {
                field: "max_newton",
                ..
            })
        ));
    }

    #[test]
    fn invalid_adaptive_bounds_rejected() {
        let build = || {
            let mut c = Circuit::new();
            let _ = c.node();
            c
        };
        let cases = [
            ("dt_min", 0.0, 1e-12, 1e-6),
            ("dt_max", 1e-13, f64::NAN, 1e-6),
            ("lte_tol", 1e-13, 1e-12, -1.0),
            // dt_max below dt_min.
            ("dt_max", 1e-12, 1e-13, 1e-6),
        ];
        for (field, dt_min, dt_max, lte_tol) in cases {
            let opts = SimOptions {
                step: StepControl::Adaptive {
                    dt_min,
                    dt_max,
                    lte_tol,
                },
                ..Default::default()
            };
            let got = Solver::new(build(), opts);
            assert!(
                matches!(got, Err(SimError::InvalidParameter { field: f, .. }) if f == field),
                "expected InvalidParameter for {field}"
            );
        }
    }

    /// Adaptive mode on the single-junction switching testbench: same
    /// pulse count, pulse time within half a picosecond, and a large
    /// reduction in accepted steps.
    #[test]
    fn adaptive_matches_fixed_on_single_switch() {
        let build = || {
            let mut c = Circuit::new();
            let n = c.node();
            let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
            c.add_bias(n, 0.7e-4).unwrap();
            c.add_source(n, Waveform::sfq_pulse(60e-12, 1.5e-4))
                .unwrap();
            (c, jj)
        };
        let (c, jj) = build();
        let fixed = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(120e-12)
            .unwrap();
        let (c, _) = build();
        let adapt = Solver::new(c, SimOptions::adaptive())
            .unwrap()
            .try_run(120e-12)
            .unwrap();
        assert_eq!(fixed.pulse_count(jj), 1);
        assert_eq!(adapt.pulse_count(jj), 1);
        let dt = (fixed.pulse_times(jj)[0] - adapt.pulse_times(jj)[0]).abs();
        assert!(dt < 0.5e-12, "pulse time delta {dt:e}");
        assert!(
            adapt.accepted_steps * 3 <= fixed.accepted_steps,
            "adaptive {} vs fixed {} steps",
            adapt.accepted_steps,
            fixed.accepted_steps
        );
        // Energy agrees to a few percent.
        let rel = (adapt.dissipated_j - fixed.dissipated_j).abs() / fixed.dissipated_j;
        assert!(rel < 0.05, "energy delta {rel}");
    }

    /// The adaptive controller must not sail over a trigger pulse that
    /// arrives deep inside a quiescent interval.
    #[test]
    fn adaptive_does_not_skip_late_pulse() {
        let mut c = Circuit::new();
        let n = c.node();
        let jj = c.add_jj(n, NodeId::GROUND, JjParams::default()).unwrap();
        c.add_bias(n, 0.7e-4).unwrap();
        // 180 ps of nothing before the trigger.
        c.add_source(n, Waveform::sfq_pulse(200e-12, 1.5e-4))
            .unwrap();
        let out = Solver::new(c, SimOptions::adaptive())
            .unwrap()
            .try_run(260e-12)
            .unwrap();
        assert_eq!(out.pulse_count(jj), 1, "late pulse must be caught");
        let t = out.pulse_times(jj)[0];
        assert!((t - 200e-12).abs() < 5e-12, "pulse at {t:e}");
    }

    /// Interpolated traces: `trace_at` reproduces a recorded RC charge
    /// curve between (non-uniform) adaptive samples.
    #[test]
    fn adaptive_trace_interpolation_is_consistent() {
        let mut c = Circuit::new();
        let n = c.node();
        c.add_resistor(n, NodeId::GROUND, 2.0).unwrap();
        c.add_capacitor(n, NodeId::GROUND, 1e-12).unwrap();
        c.add_source(n, Waveform::Dc(1e-3)).unwrap();
        let opts = SimOptions {
            record_nodes: vec![n],
            ..SimOptions::adaptive()
        };
        let out = Solver::new(c, opts).unwrap().try_run(100e-12).unwrap();
        assert!((out.trace_at(0, 100e-12) - 2e-3).abs() < 1e-5);
        // Interpolation at a recorded sample returns the sample.
        let mid = out.trace_times.len() / 2;
        let t_mid = out.trace_times[mid];
        assert_eq!(out.trace_at(0, t_mid), out.traces[0][mid]);
        // Before the first sample: clamps.
        assert_eq!(out.trace_at(0, -1.0), out.traces[0][0]);
    }
}

#[cfg(test)]
mod banded_path_tests {
    use super::*;
    use crate::stdlib::{jtl_chain, JtlParams};

    /// A long JTL takes the banded path (>24 nodes, bandwidth 1) and
    /// must behave identically to short (dense-path) chains.
    #[test]
    fn long_chain_uses_banded_and_propagates() {
        let p = JtlParams::default();
        let (c, stages) = jtl_chain(40, &p);
        assert!(c.node_count() > 25, "banded path engaged");
        let out = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(400e-12)
            .unwrap();
        for (k, jj) in stages.iter().enumerate() {
            assert_eq!(out.pulse_count(*jj), 1, "stage {k}");
        }
        // Monotone arrival down the whole line.
        let times: Vec<f64> = stages.iter().map(|j| out.pulse_times(*j)[0]).collect();
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    /// The same long chain under the adaptive controller: banded-LU
    /// reuse across dt plateaus, identical pulse counts and sub-0.5 ps
    /// pulse times. A 40-stage chain keeps a pulse in flight for most
    /// of the run (the phase-rate guard correctly pins dt near dt_min
    /// the whole time), so the step reduction here is modest — the
    /// ≥3× wins on the mostly-quiescent characterization cells are
    /// asserted in `tests/adaptive.rs` and `BENCH_solver.json`.
    #[test]
    fn long_chain_adaptive_matches_fixed() {
        let p = JtlParams::default();
        let (c, stages) = jtl_chain(40, &p);
        let fixed = Solver::new(c, SimOptions::default())
            .unwrap()
            .try_run(400e-12)
            .unwrap();
        let (c, _) = jtl_chain(40, &p);
        let adapt = Solver::new(c, SimOptions::adaptive())
            .unwrap()
            .try_run(400e-12)
            .unwrap();
        for (k, jj) in stages.iter().enumerate() {
            assert_eq!(adapt.pulse_count(*jj), fixed.pulse_count(*jj), "stage {k}");
            let dt = (adapt.pulse_times(*jj)[0] - fixed.pulse_times(*jj)[0]).abs();
            assert!(dt < 0.5e-12, "stage {k} pulse delta {dt:e}");
        }
        assert!(
            adapt.accepted_steps * 3 <= fixed.accepted_steps * 2,
            "adaptive {} vs fixed {}",
            adapt.accepted_steps,
            fixed.accepted_steps
        );
    }
}
