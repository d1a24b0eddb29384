//! Lane-batched transient solving: advance up to [`LANES`]
//! parameter-perturbed instances of one netlist in SoA form, sharing
//! one adaptive-stepping/factorization schedule across all lanes.
//!
//! `sfq_faults` Monte-Carlo yield, the one consumer, solves hundreds
//! of *structure-identical* circuits that differ only in element
//! values. [`BatchedTransient`] exploits that: it runs the shared step
//! loop of `crate::engine` at `[f64; LANES]` lanes — one topology
//! analysis (bandwidth, stamp-index plan, source-event windows), one
//! Newton/controller schedule, and every per-entry kernel (linear
//! restamp, jj stamp + RHS, banded LU factor/solve, LTE control,
//! commit) over contiguous lanes. [`crate::Solver`] is the same loop
//! at one lane, so both paths share every kernel.
//!
//! # Stepping discipline
//!
//! The group shares one adaptive controller: the step is accepted only
//! when *every* active lane passes the LTE and phase-rate criteria,
//! Newton iterates until every active lane converges, and a rejection
//! refines the step for the whole group. Shared control is therefore
//! only ever *more* conservative than any lane's solo schedule — pulse
//! counts match the one-lane run exactly and pulse times agree within
//! the BENCH_solver tolerance (0.5 ps), which the batch equivalence
//! suite asserts. Two economies are batch-only, because with `LANES`
//! instances any refactorization is `LANES`× the work: chord-Newton LU
//! reuse at a looser conductance drift (`BatchPolicy`), and junction
//! trigonometry rotated from the committed phase instead of libm.
//!
//! # Masked retirement
//!
//! Lanes are arithmetically independent (no horizontal reductions feed
//! back into lane values), so a diverging lane cannot perturb its
//! siblings by an ULP. A lane is *retired* when its Newton iteration
//! fails to converge at `dt_min`, when the no-pivot banded
//! factorization hits a tiny pivot in its lane, when the ambient budget
//! stops the group, or when a test hook injects a failure. A retired
//! lane mirrors a healthy sibling (keeping every lane finite) and its
//! instance is rerun from t = 0 on the one-lane engine — whose pivoting
//! dense fallback and typed errors are the reference for hard
//! instances — at one-lane cost, paid only for the rare divergent lane.
//!
//! # Knobs
//!
//! * `SUPERNPU_BATCH=0` disables batching (consumers fall back to the
//!   one-lane path, and [`BatchedTransient::try_run`] degrades to a
//!   one-lane loop).
//! * `SUPERNPU_LANES=k` clamps the effective group width to
//!   `min(k, LANES)`.
//! * [`set_batch_width`] overrides both programmatically (used by
//!   `bench_batch` to time one-lane vs batched in one process).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::circuit::Circuit;
use crate::engine::{self, LaneState, Policy, Retire};
use crate::error::SimError;
use crate::linalg::factor_band_lanes;
use crate::solver::{validate_options, SimOptions, SimResult, Solver};

/// Number of parameter-perturbed instances advanced per batch group.
///
/// Four double-precision lanes fill one AVX2 register (two SSE2
/// registers) and keep the SoA working set of a cell-scale MNA system
/// inside L1.
pub const LANES: usize = 4;

/// One matrix/vector slot across all batch lanes.
pub(crate) type Lane = engine::Lane<LANES>;

/// Accepted steps between libm re-anchors of the committed-phase
/// sin/cos. Between anchors the commit refreshes them by rotating
/// through the step's phase increment (which the adaptive controller
/// caps at `PHASE_MAX_STEP` < [`ROT_MAX`]), so the per-step polynomial
/// error (< 2e-11) is bounded at ~1e-9 instead of paying
/// `2 · LANES · n_jj` libm calls on every accepted step.
const TRIG_REANCHOR: usize = 64;

/// Rotation angle above which [`sin_cos_rot`]'s polynomial loses the
/// accuracy headroom documented there; callers use per-lane libm
/// beyond it. Accepted adaptive steps keep junction phase advances
/// under `PHASE_MAX_STEP` = 0.35 rad, so the fallback only triggers on
/// wild pre-rejection Newton iterates.
const ROT_MAX: f64 = 0.5;

/// Lane-batched `sin`/`cos` of a small rotation angle, |x| ≲ 0.5 rad.
///
/// The batched Newton loop needs `sin`/`cos` of `φₖ = phase + Δ` where
/// `phase` is constant within a step (its `sin`/`cos` are refreshed
/// once per commit) and `Δ = φ_coef·(vb + vb_prev)` is the small
/// per-iteration phase advance. Evaluating the rotation by Taylor
/// polynomial keeps the whole jj-linearization kernel branch-free and
/// vectorizable; the truncation error (≤ 2·10⁻¹¹ abs at |x| = 0.5,
/// terms through x⁹/x¹⁰) perturbs junction currents by ≲ 10⁻¹⁴·Ic —
/// far below the 1 nV Newton tolerance, so converged iterates are
/// unaffected at solver accuracy. Callers fall back to per-lane libm
/// when |Δ| exceeds [`ROT_MAX`].
#[inline]
fn sin_cos_rot(x: Lane) -> (Lane, Lane) {
    let mut s = [0.0; LANES];
    let mut c = [0.0; LANES];
    for l in 0..LANES {
        let x2 = x[l] * x[l];
        // sin x = x·(1 − x²/6 + x⁴/120 − x⁶/5040 + x⁸/362880)
        s[l] = x[l]
            * (1.0
                + x2 * (-1.0 / 6.0
                    + x2 * (1.0 / 120.0 + x2 * (-1.0 / 5040.0 + x2 * (1.0 / 362_880.0)))));
        // cos x = 1 − x²/2 + x⁴/24 − x⁶/720 + x⁸/40320 − x¹⁰/3628800
        c[l] = 1.0
            + x2 * (-0.5
                + x2 * (1.0 / 24.0
                    + x2 * (-1.0 / 720.0 + x2 * (1.0 / 40_320.0 + x2 * (-1.0 / 3_628_800.0)))));
    }
    (s, c)
}

/// The lane-batched numerical policy: always packed band storage
/// (the lane LU is the kernel the SIMD win comes from; near-singular
/// lanes retire to the one-lane path and its pivoting fallback),
/// rotated junction trigonometry, and chord-Newton reuse at a relative
/// conductance drift of 1e-4 — looser than the one-lane 1e-8, since
/// the batch refactors only when *some* lane's linearization genuinely
/// moved. Near a pulse `cos φ` swings far beyond this tolerance and
/// the batch refactors exactly like the one-lane path.
struct BatchPolicy;

impl Policy<LANES> for BatchPolicy {
    const REUSE_RTOL: f64 = 1e-4;
    const RETIRE_ON_TINY_PIVOT: bool = true;
    const STEP_EVENTS: bool = false;

    fn banded(_n_unknown: usize, _bandwidth: usize) -> bool {
        true
    }

    fn factor(lu: &mut [Lane], n: usize, bw: usize) -> [bool; LANES] {
        factor_band_lanes(lu, n, bw)
    }

    /// `φₖ = phase + Δ` with sin/cos(Δ) by branch-free polynomial
    /// (per-lane libm beyond [`ROT_MAX`]) rotated against the
    /// committed sin/cos(phase); the shunt current as `v·G`.
    #[inline(always)]
    fn linearize(
        st: &LaneState<LANES>,
        e: usize,
        vb_k: Lane,
        vb_prev: Lane,
        phi_coef: f64,
    ) -> (Lane, Lane) {
        let mut delta = [0.0; LANES];
        for l in 0..LANES {
            delta[l] = phi_coef * (vb_k[l] + vb_prev[l]);
        }
        let (sin_d, cos_d) = sin_cos_rot(delta);
        let mut sin_phi = [0.0; LANES];
        let mut cos_phi = [0.0; LANES];
        for l in 0..LANES {
            sin_phi[l] = st.sin_ph[e][l] * cos_d[l] + st.cos_ph[e][l] * sin_d[l];
            cos_phi[l] = st.cos_ph[e][l] * cos_d[l] - st.sin_ph[e][l] * sin_d[l];
        }
        if delta.iter().any(|x| x.abs() > ROT_MAX) {
            for l in 0..LANES {
                if delta[l].abs() > ROT_MAX {
                    let phi = st.phase[e][l] + delta[l];
                    sin_phi[l] = phi.sin();
                    cos_phi[l] = phi.cos();
                }
            }
        }
        let mut i_at = [0.0; LANES];
        let mut g = [0.0; LANES];
        for l in 0..LANES {
            let g_cap = st.g_jjcap[e][l];
            i_at[l] = st.jj_ic[e][l] * sin_phi[l]
                + vb_k[l] * st.jj_g_shunt[e][l]
                + g_cap * (vb_k[l] - vb_prev[l])
                - st.i_jj_cap[e][l];
            g[l] = st.jj_ic[e][l] * cos_phi[l] * phi_coef + st.jj_g_shunt[e][l] + g_cap;
        }
        (i_at, g)
    }

    /// Refresh the committed-phase sin/cos the Newton rotations build
    /// on: rotate the previous anchor through the step's increment
    /// (vectorizable; the adaptive controller caps |Δφ| at
    /// `PHASE_MAX_STEP` < [`ROT_MAX`]), falling back to libm every
    /// [`TRIG_REANCHOR`] steps — and whenever a lane exceeds
    /// [`ROT_MAX`], as fixed-mode steps can — so the polynomial error
    /// is re-zeroed instead of accumulating.
    #[inline(always)]
    fn commit_phase(
        st: &mut LaneState<LANES>,
        e: usize,
        d: Lane,
        new_phase: Lane,
        step_idx: usize,
    ) {
        if step_idx.is_multiple_of(TRIG_REANCHOR) || d.iter().any(|x| x.abs() > ROT_MAX) {
            for (l, &np) in new_phase.iter().enumerate() {
                st.sin_ph[e][l] = np.sin();
                st.cos_ph[e][l] = np.cos();
            }
        } else {
            let (sin_d, cos_d) = sin_cos_rot(d);
            for l in 0..LANES {
                let (s, c) = (st.sin_ph[e][l], st.cos_ph[e][l]);
                st.sin_ph[e][l] = s * cos_d[l] + c * sin_d[l];
                st.cos_ph[e][l] = c * cos_d[l] - s * sin_d[l];
            }
        }
    }
}

/// Sentinel for "no programmatic override" in [`WIDTH_OVERRIDE`].
const NO_OVERRIDE: usize = usize::MAX;

/// Programmatic batch-width override (see [`set_batch_width`]).
static WIDTH_OVERRIDE: AtomicUsize = AtomicUsize::new(NO_OVERRIDE);

/// Env-resolved default width, parsed once per process.
fn env_width() -> usize {
    static W: OnceLock<usize> = OnceLock::new();
    *W.get_or_init(|| {
        if matches!(
            std::env::var("SUPERNPU_BATCH").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        ) {
            return 1;
        }
        match std::env::var("SUPERNPU_LANES") {
            Ok(s) => s
                .trim()
                .parse::<usize>()
                .map_or(LANES, |k| k.clamp(1, LANES)),
            Err(_) => LANES,
        }
    })
}

/// Effective batch group width: 1 means "batching disabled" (every
/// consumer, including [`BatchedTransient::try_run`], runs the
/// one-lane path). Resolves the [`set_batch_width`] override first,
/// then the `SUPERNPU_BATCH` / `SUPERNPU_LANES` environment knobs,
/// defaulting to [`LANES`].
#[must_use]
pub fn batch_width() -> usize {
    match WIDTH_OVERRIDE.load(Ordering::Relaxed) {
        NO_OVERRIDE => env_width(),
        w => w.clamp(1, LANES),
    }
}

/// Override (or with `None`, restore) the effective [`batch_width`].
/// Benches use this to time the one-lane and batched paths in one
/// process without re-reading the environment.
pub fn set_batch_width(w: Option<usize>) {
    WIDTH_OVERRIDE.store(
        w.map_or(NO_OVERRIDE, |w| w.clamp(1, LANES)),
        Ordering::Relaxed,
    );
}

/// K parameter-perturbed instances of one netlist, solved in
/// SIMD-lane-batched groups. See the module docs for the stepping
/// discipline and retirement rules.
pub struct BatchedTransient {
    circuits: Vec<Circuit>,
    opts: SimOptions,
    /// Test hook: `(instance, t_after)` pairs forcing a Newton-failure
    /// retirement of that instance's lane at the first step boundary
    /// past `t_after`.
    newton_faults: Vec<(usize, f64)>,
}

impl BatchedTransient {
    /// Wrap K structure-identical circuits, validating each and
    /// checking that all share the first instance's topology (node
    /// count, element terminal pairs, source terminals — element
    /// *values* are free to differ; that is the point).
    ///
    /// # Errors
    ///
    /// Returns the first circuit's or the options' validation error
    /// (see [`Solver::new`]), or [`SimError::InvalidParameter`] with
    /// `element: "batch"` naming the first instance whose topology
    /// deviates.
    pub fn new(circuits: Vec<Circuit>, opts: SimOptions) -> Result<Self, SimError> {
        if let Some(first) = circuits.first() {
            first.validate()?;
            validate_options(&opts)?;
            for (i, c) in circuits.iter().enumerate().skip(1) {
                c.validate()?;
                if !same_topology(first, c) {
                    #[allow(clippy::cast_precision_loss)]
                    return Err(SimError::InvalidParameter {
                        element: "batch",
                        field: "topology",
                        value: i as f64,
                    });
                }
            }
        }
        Ok(BatchedTransient {
            circuits,
            opts,
            newton_faults: Vec::new(),
        })
    }

    /// Number of instances in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.circuits.len()
    }

    /// Whether the batch holds no instances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.circuits.is_empty()
    }

    /// Test hook: force a Newton-failure retirement of `instance`'s
    /// lane at the first step boundary at or past `t_after` seconds.
    /// The instance is rerun on the one-lane engine like any organic
    /// retirement; siblings must be (and are, see the equivalence
    /// suite) unaffected.
    #[doc(hidden)]
    pub fn inject_newton_failure(&mut self, instance: usize, t_after: f64) {
        self.newton_faults.push((instance, t_after));
    }

    /// Run every instance from t = 0 to `t_end`, in groups of up to
    /// [`batch_width`] lanes; per-instance results in input order.
    /// Retired instances (and every instance when batching is
    /// disabled) are solved by the one-lane engine.
    #[must_use]
    pub fn try_run(&self, t_end: f64) -> Vec<Result<SimResult, SimError>> {
        let k = self.circuits.len();
        let width = batch_width();
        let mut out: Vec<Result<SimResult, SimError>> = Vec::with_capacity(k);
        let mut idx = 0usize;
        while idx < k {
            let end = (idx + width).min(k);
            if end - idx < 2 {
                out.push(solo_run(&self.circuits[idx], &self.opts, t_end));
                idx += 1;
                continue;
            }
            let group = &self.circuits[idx..end];
            let faults: Vec<(usize, f64)> = self
                .newton_faults
                .iter()
                .filter(|(i, _)| (idx..end).contains(i))
                .map(|&(i, t)| (i - idx, t))
                .collect();
            for (j, r) in run_group(group, &self.opts, t_end, &faults)
                .into_iter()
                .enumerate()
            {
                out.push(r.or_else(|_| solo_run(&group[j], &self.opts, t_end)));
            }
            idx = end;
        }
        out
    }
}

/// One one-lane run (used for disabled batching, width-1 tails, and
/// retired lanes).
fn solo_run(ckt: &Circuit, opts: &SimOptions, t_end: f64) -> Result<SimResult, SimError> {
    Solver::new(ckt.clone(), opts.clone())?.try_run(t_end)
}

/// Structural equality of two circuits: same node count, same element
/// counts, same terminal pairs in the same order, same source
/// terminals. Values (R/L/C, jj parameters, waveform amplitudes and
/// times) are free to differ.
fn same_topology(a: &Circuit, b: &Circuit) -> bool {
    a.node_count == b.node_count
        && a.jjs.len() == b.jjs.len()
        && a.resistors.len() == b.resistors.len()
        && a.capacitors.len() == b.capacitors.len()
        && a.inductors.len() == b.inductors.len()
        && a.sources.len() == b.sources.len()
        && a.jjs
            .iter()
            .zip(&b.jjs)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.resistors
            .iter()
            .zip(&b.resistors)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.capacitors
            .iter()
            .zip(&b.capacitors)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.inductors
            .iter()
            .zip(&b.inductors)
            .all(|(x, y)| x.a == y.a && x.b == y.b)
        && a.sources
            .iter()
            .zip(&b.sources)
            .all(|(x, y)| x.into == y.into && x.from == y.from)
}

/// Advance one group of 2..=LANES instances; per instance its result,
/// or why its lane retired (the caller reruns those on one lane).
///
/// Frames: `jjsim.solver.batch` carries the lane bookkeeping counters;
/// the engine's nested `jjsim.solver.run` carries the kernel laps
/// under the same path names as a one-lane run, so profiler coverage
/// accounting attributes batch work as solver work.
fn run_group(
    ckts: &[Circuit],
    opts: &SimOptions,
    t_end: f64,
    faults: &[(usize, f64)],
) -> Vec<Result<SimResult, Retire>> {
    let k = ckts.len() as u64;
    let prof_batch = sfq_obs::region("jjsim.solver.batch");
    let out = engine::run::<LANES, BatchPolicy>(ckts, opts, t_end, faults);
    let m = &out.counters;
    if sfq_obs::prof::enabled() {
        sfq_obs::prof::count("batch_lanes", k);
        sfq_obs::prof::count("batch_retired_newton", m.retired_newton);
        sfq_obs::prof::count("batch_retired_singular", m.retired_singular);
        sfq_obs::prof::count("batch_occupancy_final", out.live);
    }
    drop(prof_batch);
    // A budget stop retires every live lane; the one-lane reruns
    // re-check the (monotone) budget and surface the typed error.
    if out
        .results
        .iter()
        .any(|r| matches!(r, Err(Retire::Budget { .. })))
    {
        sfq_obs::inc("guard.batch_stop");
    }
    if sfq_obs::enabled() {
        sfq_obs::inc("jjsim.batch.groups");
        sfq_obs::add("jjsim.batch.lanes", k);
        sfq_obs::add("jjsim.batch.steps", m.steps);
        sfq_obs::add("jjsim.batch.newton_iters", m.newton_iters);
        sfq_obs::add("jjsim.batch.lu_factor", m.lu_factor);
        sfq_obs::add("jjsim.batch.lu_reuse", m.lu_reuse);
        sfq_obs::add("jjsim.batch.steps_rejected", m.rejected());
        sfq_obs::add("jjsim.batch.restamps", m.restamps);
        sfq_obs::add("jjsim.batch.refine_source", m.refine_source);
        sfq_obs::add("jjsim.batch.retired_newton", m.retired_newton);
        sfq_obs::add("jjsim.batch.retired_singular", m.retired_singular);
        sfq_obs::observe("jjsim.batch.occupancy", out.live as f64);
    }
    out.results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stdlib::{jtl_chain, JtlParams};

    fn perturbed(scale: f64) -> (Circuit, Vec<crate::ElementId>) {
        let p = JtlParams {
            ic: 1.0e-4 * scale,
            ..JtlParams::default()
        };
        jtl_chain(6, &p)
    }

    #[test]
    fn batched_matches_scalar_on_perturbed_chains() {
        let scales = [1.0, 0.97, 1.03, 0.97, 1.06];
        let t_end = 200e-12;
        let circuits: Vec<Circuit> = scales.iter().map(|&s| perturbed(s).0).collect();
        let probes = perturbed(1.0).1;
        let batch =
            BatchedTransient::new(circuits.clone(), SimOptions::adaptive()).expect("valid batch");
        set_batch_width(Some(LANES));
        let batched = batch.try_run(t_end);
        set_batch_width(None);
        for (i, c) in circuits.iter().enumerate() {
            let scalar = Solver::new(c.clone(), SimOptions::adaptive())
                .expect("valid circuit")
                .try_run(t_end)
                .expect("scalar converges");
            let b = batched[i].as_ref().expect("batched converges");
            for &jj in &probes {
                assert_eq!(
                    b.pulse_count(jj),
                    scalar.pulse_count(jj),
                    "instance {i} pulse count"
                );
                for (tb, ts) in b.pulse_times(jj).iter().zip(scalar.pulse_times(jj)) {
                    assert!(
                        (tb - ts).abs() <= 0.5e-12,
                        "instance {i}: pulse at {ts:e} vs batched {tb:e}"
                    );
                }
            }
            let e_rel = (b.dissipated_j - scalar.dissipated_j).abs() / scalar.dissipated_j;
            assert!(e_rel < 0.05, "instance {i} dissipation off by {e_rel:.3}");
        }
    }

    #[test]
    fn topology_mismatch_is_typed_error() {
        let (a, _) = perturbed(1.0);
        let (b, _) = jtl_chain(7, &JtlParams::default());
        let err = BatchedTransient::new(vec![a, b], SimOptions::adaptive());
        assert!(matches!(
            err,
            Err(SimError::InvalidParameter {
                element: "batch",
                field: "topology",
                ..
            })
        ));
    }

    #[test]
    fn injected_retirement_does_not_disturb_siblings() {
        let scales = [1.0, 0.97, 1.03, 1.06];
        let t_end = 200e-12;
        let circuits: Vec<Circuit> = scales.iter().map(|&s| perturbed(s).0).collect();
        let probes = perturbed(1.0).1;
        let mut batch =
            BatchedTransient::new(circuits.clone(), SimOptions::adaptive()).expect("valid batch");
        batch.inject_newton_failure(1, 60e-12);
        set_batch_width(Some(LANES));
        let batched = batch.try_run(t_end);
        set_batch_width(None);
        for (i, c) in circuits.iter().enumerate() {
            let scalar = Solver::new(c.clone(), SimOptions::adaptive())
                .expect("valid circuit")
                .try_run(t_end)
                .expect("scalar converges");
            let b = batched[i].as_ref().expect("batched converges");
            for &jj in &probes {
                assert_eq!(b.pulse_count(jj), scalar.pulse_count(jj), "instance {i}");
                for (tb, ts) in b.pulse_times(jj).iter().zip(scalar.pulse_times(jj)) {
                    assert!((tb - ts).abs() <= 0.5e-12, "instance {i}");
                }
            }
        }
        // The injected instance fell back to the scalar path, so its
        // result is the scalar result *exactly*.
        let scalar1 = Solver::new(circuits[1].clone(), SimOptions::adaptive())
            .expect("valid circuit")
            .try_run(t_end)
            .expect("scalar converges");
        let b1 = batched[1].as_ref().expect("fallback converges");
        for &jj in &probes {
            assert_eq!(b1.pulse_times(jj), scalar1.pulse_times(jj));
        }
    }

    #[test]
    fn rotation_polynomial_accuracy() {
        for k in 0..=100 {
            let x = -ROT_MAX + 2.0 * ROT_MAX * (k as f64) / 100.0;
            let (s, c) = sin_cos_rot([x; LANES]);
            for l in 0..LANES {
                assert!(
                    (s[l] - x.sin()).abs() < 2e-11,
                    "sin({x}) err {}",
                    s[l] - x.sin()
                );
                assert!(
                    (c[l] - x.cos()).abs() < 2e-11,
                    "cos({x}) err {}",
                    c[l] - x.cos()
                );
            }
        }
    }

    #[test]
    fn width_one_is_the_scalar_path() {
        let (c, probes) = perturbed(1.0);
        set_batch_width(Some(1));
        let batch =
            BatchedTransient::new(vec![c.clone()], SimOptions::adaptive()).expect("valid batch");
        let out = batch.try_run(150e-12);
        set_batch_width(None);
        let scalar = Solver::new(c, SimOptions::adaptive())
            .expect("valid circuit")
            .try_run(150e-12)
            .expect("scalar converges");
        let b = out[0].as_ref().expect("batch-of-one converges");
        for &jj in &probes {
            assert_eq!(b.pulse_times(jj), scalar.pulse_times(jj));
        }
        assert_eq!(
            b.final_phase(probes[0]).to_bits(),
            scalar.final_phase(probes[0]).to_bits()
        );
    }
}
