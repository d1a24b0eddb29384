//! The transient step loop, written once for any lane width.
//!
//! Modified nodal analysis with trapezoidal integration and a Newton
//! iteration per step, advanced over up to `N` structure-identical
//! circuits at once in structure-of-arrays form: every matrix entry,
//! node voltage and element value is an `[f64; N]` lane, and lane `l`
//! of every array belongs to one circuit. [`crate::Solver`] is the
//! one-lane instantiation (`N = 1`) and [`crate::BatchedTransient`] the
//! `LANES`-wide one, so the step selection, the stamp plan, restamp,
//! RHS stamping, the Newton update, LTE control, commit, the banded LU
//! and the kernel profiler exist once. What the two paths do
//! differently on purpose is a [`Policy`]: how a junction is
//! linearized, the chord-Newton tolerance, when the system is solved
//! in packed band storage, and what a tiny pivot does.
//!
//! # Stepping
//!
//! Two modes (see [`crate::StepControl`]):
//!
//! * **Fixed** — the classic march at `SimOptions::dt`.
//! * **Adaptive** — a local-truncation-error controller grows the step
//!   up to `dt_max` while the circuit is quiescent and shrinks it back
//!   to `dt_min` around events. An SFQ waveform is flat almost
//!   everywhere outside ~2 ps pulse windows, so this cuts step counts
//!   by an order of magnitude on the stdlib cells while keeping pulse
//!   counts identical and pulse times within a fraction of a
//!   picosecond (see `BENCH_solver.json`).
//!
//! The adaptive controller combines three refinement triggers:
//!
//! 1. **LTE rejection** — each converged step is compared against a
//!    linear extrapolation of the two previous accepted node-voltage
//!    vectors; a deviation above `lte_tol` rejects the step, rolls the
//!    state back and retries at half the step.
//! 2. **Phase-rate refinement** — if any junction phase moved more
//!    than [`PHASE_MAX_STEP`] radians in one step (a pulse in flight),
//!    the step is rejected and refined so switching events are always
//!    resolved at `dt_min` granularity.
//! 3. **Source-event refinement** — source waveforms publish
//!    [`crate::Waveform::refinement_windows`]; the controller never
//!    steps *across* a window start and caps the step inside a window,
//!    so a large quiescent step cannot jump over a trigger pulse the
//!    LTE estimator has no way of seeing.
//!
//! The linear-element stamp and the banded LU built on it are
//! invalidated only when the step size actually changes, and the
//! controller grows/shrinks `dt` in ×2 plateaus so chord-Newton reuse
//! keeps paying off between events.
//!
//! # Shared control and retirement
//!
//! All lanes share one schedule: a step is accepted only when *every*
//! counted lane passes the LTE and phase-rate criteria, Newton iterates
//! until every counted lane converges, and a rejection refines the
//! step for all of them. Lanes are arithmetically independent, so a
//! lane's values never depend on its siblings'. A lane is *retired*
//! when its Newton iteration fails at `dt_min` (or in fixed mode), when
//! its matrix is singular, when the ambient `sfq_guard` budget stops
//! the run, or when a test hook fires. A retired lane mirrors a
//! surviving sibling from then on (so every lane stays finite), and
//! its circuit comes back as a [`Retire`] instead of a result: the
//! one-lane solver turns it into a typed `SimError`, the batch reruns
//! that circuit alone on the one-lane engine.

use std::f64::consts::PI;
use std::sync::OnceLock;
use std::time::Instant;

use crate::circuit::{Circuit, TwoTerminal};
use crate::linalg::{band_width, solve_band, solve_dense};
use crate::solver::{SimOptions, SimResult, StepControl};
use crate::waveform::Waveform;
use crate::PHI0;

/// One matrix or vector entry across `N` lanes.
pub(crate) type Lane<const N: usize> = [f64; N];

/// Largest per-step junction phase advance the adaptive controller
/// accepts before rejecting and refining, radians. A 2π slip takes
/// ~2–4 ps, so this pins the step near `dt_min` for the whole flight
/// of a pulse — the same resolution the fixed 0.1 ps march gives it.
pub(crate) const PHASE_MAX_STEP: f64 = 0.35;

/// Phase advance below which a step counts toward growing the
/// plateau, radians: the step only doubles while every junction is
/// essentially static.
const PHASE_SLOW: f64 = 0.05;

/// Accepted steps (quiet on both the LTE and phase criteria) required
/// before the plateau doubles. Amortizes the LU refactorization a
/// step-size change forces.
const GROW_AFTER: u32 = 4;

/// Fraction of `lte_tol` a step must stay under to count toward
/// growth.
const GROW_MARGIN: f64 = 0.3;

/// The numerical choices a path makes on purpose, fixed per lane
/// width: the one-lane solver and the lane-batched solver each
/// implement this once.
pub(crate) trait Policy<const N: usize> {
    /// Relative junction-conductance drift below which the factored
    /// band LU is reused across Newton iterations and steps (chord
    /// Newton). The RHS history currents are computed against the
    /// factored conductances, so reuse changes the iteration path,
    /// never the fixed point.
    const REUSE_RTOL: f64;

    /// What a tiny pivot in the no-pivot banded factorization does:
    /// `true` retires the lane, `false` falls back to the pivoting
    /// dense solve for that iteration.
    const RETIRE_ON_TINY_PIVOT: bool;

    /// Whether runs record the per-step trace instants (`restamp`,
    /// `accept`, `reject (…)`) and the `jjsim.solver.dt_ps` histogram.
    const STEP_EVENTS: bool;

    /// Whether a system of `n_unknown` unknowns and half-bandwidth
    /// `bandwidth` is factored in packed band storage (else it is
    /// assembled densely and solved with partial pivoting).
    fn banded(n_unknown: usize, bandwidth: usize) -> bool;

    /// Factor the packed band matrices of every lane in place; the
    /// per-lane success mask.
    fn factor(lu: &mut [Lane<N>], n: usize, bw: usize) -> [bool; N];

    /// Linearize junction `e` around branch voltage `vb_k` (previous
    /// accepted step: `vb_prev`): its current `i(v_k)` and conductance
    /// `∂i/∂v`, per lane.
    fn linearize(
        st: &LaneState<N>,
        e: usize,
        vb_k: Lane<N>,
        vb_prev: Lane<N>,
        phi_coef: f64,
    ) -> (Lane<N>, Lane<N>);

    /// Commit hook for junction `e`, called before its phase advances
    /// by `d` to `new_phase` on accepted step `step_idx`: refreshes
    /// any per-junction phase cache the policy keeps.
    fn commit_phase(
        st: &mut LaneState<N>,
        e: usize,
        d: Lane<N>,
        new_phase: Lane<N>,
        step_idx: usize,
    );
}

/// Pre-resolved matrix positions of one two-terminal element's
/// conductance stamp: the two diagonal entries and the symmetric
/// off-diagonal pair. `usize::MAX` marks a terminal on ground (no
/// matrix row). Resolving these once per run — in packed-band or
/// dense layout — turns every re-stamp into a branch-light replay
/// over flat index quadruples.
#[derive(Clone, Copy)]
struct StampIdx {
    da: usize,
    db: usize,
    ab: usize,
    ba: usize,
}

/// Add conductance `g` at the positions of `s`, in the entry order of
/// a node-number stamp (diagonal a, diagonal b, then the off-diagonal
/// pair).
#[inline(always)]
fn apply_stamp<const N: usize>(m: &mut [Lane<N>], s: StampIdx, g: Lane<N>) {
    if s.da != usize::MAX {
        for l in 0..N {
            m[s.da][l] += g[l];
        }
    }
    if s.db != usize::MAX {
        for l in 0..N {
            m[s.db][l] += g[l];
        }
    }
    if s.ab != usize::MAX {
        for l in 0..N {
            m[s.ab][l] -= g[l];
            m[s.ba][l] -= g[l];
        }
    }
}

/// Stamp a history current (flowing a → b) into the RHS.
#[inline(always)]
fn stamp_i<const N: usize>(rhs: &mut [Lane<N>], a: usize, b: usize, i_hist: Lane<N>) {
    if a > 0 {
        for l in 0..N {
            rhs[a - 1][l] -= i_hist[l];
        }
    }
    if b > 0 {
        for l in 0..N {
            rhs[b - 1][l] += i_hist[l];
        }
    }
}

/// A refinement interval on the simulated time axis.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: f64,
    end: f64,
    /// Largest step allowed while inside the window.
    cap: f64,
}

/// Collect, sort and merge the refinement windows of every source of
/// every circuit. Across a batch this is the union of each lane's own
/// windows, so shared refinement is only ever more conservative than
/// a solo run.
fn merge_windows(ckts: &[Circuit]) -> Vec<Window> {
    let mut raw: Vec<Window> = Vec::new();
    for s in ckts.iter().flat_map(|c| &c.sources) {
        for (start, end, cap) in s.waveform.refinement_windows() {
            if end > 0.0 {
                raw.push(Window { start, end, cap });
            }
        }
    }
    raw.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut merged: Vec<Window> = Vec::with_capacity(raw.len());
    for w in raw {
        match merged.last_mut() {
            Some(last) if w.start <= last.end => {
                last.end = last.end.max(w.end);
                last.cap = last.cap.min(w.cap);
            }
            _ => merged.push(w),
        }
    }
    merged
}

/// The always-on `jjsim.solver.transient_runs` counter: every circuit
/// a run starts increments it, metrics enabled or not. Lets
/// characterization caches prove, in tests, that a repeated request
/// performed no new transient work.
pub(crate) fn transient_counter() -> &'static sfq_obs::Counter {
    static C: OnceLock<&'static sfq_obs::Counter> = OnceLock::new();
    C.get_or_init(|| sfq_obs::counter("jjsim.solver.transient_runs"))
}

/// Per-run counters, plain locals while the run is in flight (a
/// register increment whether metrics are on or off) and flushed into
/// the [`sfq_obs`] registry by the calling path under its own names.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) steps: u64,
    pub(crate) newton_iters: u64,
    pub(crate) lu_factor: u64,
    pub(crate) lu_reuse: u64,
    pub(crate) dense_solves: u64,
    pub(crate) reject_lte: u64,
    pub(crate) reject_phase: u64,
    pub(crate) reject_newton: u64,
    pub(crate) refine_source: u64,
    pub(crate) restamps: u64,
    pub(crate) retired_newton: u64,
    pub(crate) retired_singular: u64,
}

impl Counters {
    pub(crate) fn rejected(&self) -> u64 {
        self.reject_lte + self.reject_phase + self.reject_newton
    }
}

/// Kernel slots of [`KernelProf`], in stamp order.
const K_RESTAMP: usize = 0;
const K_STAMP: usize = 1;
const K_JJ_STAMP_RHS: usize = 2;
const K_LU_FACTOR: usize = 3;
const K_LU_SOLVE: usize = 4;
const K_DENSE_SOLVE: usize = 5;
const K_NEWTON: usize = 6;
const K_LTE: usize = 7;
const K_COMMIT: usize = 8;
const K_SLOTS: usize = 9;

/// Per-run kernel-time accumulators for the hierarchical profiler,
/// merged under the open `jjsim.solver.run` frame in one batch when the run
/// ends — the same local-accumulate/flush-once pattern as
/// [`Counters`], so the per-iteration cost with profiling off is a
/// branch on a cached bool. Sections share boundary timestamps
/// ([`KernelProf::lap`] ends one section and starts the next with a
/// single clock read), so consecutive kernels leave no unattributed
/// gap between them — that is what keeps profiled self-time coverage
/// of `jjsim.solver.run` above the bench gate's floor.
struct KernelProf {
    on: bool,
    mark: Instant,
    ns: [u64; K_SLOTS],
}

impl KernelProf {
    fn start() -> Self {
        KernelProf {
            on: sfq_obs::prof::enabled(),
            mark: Instant::now(),
            ns: [0; K_SLOTS],
        }
    }

    /// Start a section at the current time.
    #[inline]
    fn mark(&mut self) {
        if self.on {
            self.mark = Instant::now();
        }
    }

    /// Close the current section into `slot` and start the next one.
    #[inline]
    fn lap(&mut self, slot: usize) {
        if self.on {
            let now = Instant::now();
            #[allow(clippy::cast_possible_truncation)]
            {
                self.ns[slot] += (now - self.mark).as_nanos() as u64;
            }
            self.mark = now;
        }
    }

    /// Merge the accumulated kernel times under the innermost open
    /// profile frame (`jjsim.solver.run`) and attach the run's unit
    /// counters. `newton`'s children carry their own self time, so its
    /// own self is only the convergence-check remainder.
    fn flush(&self, m: &Counters) {
        if !self.on {
            return;
        }
        use sfq_obs::prof;
        let attempts = m.steps + m.rejected();
        let newton_children = self.ns[K_JJ_STAMP_RHS]
            + self.ns[K_LU_FACTOR]
            + self.ns[K_LU_SOLVE]
            + self.ns[K_DENSE_SOLVE];
        let merge = |path: &[&str], calls: u64, slot: usize| {
            if calls > 0 || self.ns[slot] > 0 {
                prof::record_path(path, calls, self.ns[slot], self.ns[slot]);
            }
        };
        merge(&["restamp"], m.restamps, K_RESTAMP);
        merge(&["stamp"], attempts, K_STAMP);
        if m.newton_iters > 0 || newton_children + self.ns[K_NEWTON] > 0 {
            prof::record_path(
                &["newton"],
                m.newton_iters,
                newton_children + self.ns[K_NEWTON],
                self.ns[K_NEWTON],
            );
        }
        merge(&["newton", "jj_stamp_rhs"], m.newton_iters, K_JJ_STAMP_RHS);
        merge(&["newton", "lu_factor"], m.lu_factor, K_LU_FACTOR);
        merge(
            &["newton", "lu_solve"],
            m.lu_factor + m.lu_reuse,
            K_LU_SOLVE,
        );
        merge(&["newton", "dense_solve"], m.dense_solves, K_DENSE_SOLVE);
        merge(&["lte_control"], attempts, K_LTE);
        merge(&["commit"], m.steps, K_COMMIT);
        prof::count("steps", m.steps);
        prof::count("newton_iters", m.newton_iters);
        prof::count("lu_factor", m.lu_factor);
        prof::count("lu_reuse", m.lu_reuse);
        prof::count("steps_rejected", m.rejected());
    }
}

/// Why a lane left the run before `t_end`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Retire {
    /// Newton failed to converge at `dt_min` (or in fixed mode) on the
    /// step ending at `time`, or a test hook fired at `time`.
    Newton { time: f64 },
    /// The lane's matrix was singular on the step ending at `time`.
    Singular { time: f64 },
    /// The ambient execution budget stopped the run at `time`.
    Budget {
        stop: sfq_guard::BudgetStop,
        time: f64,
    },
}

/// All mutable per-lane state of a run, gathered so retirement can
/// mirror one lane onto another in a single place.
pub(crate) struct LaneState<const N: usize> {
    /// Node voltages, index 0 = ground (always zero in every lane).
    pub(crate) v: Vec<Lane<N>>,
    pub(crate) v_prev: Vec<Lane<N>>,
    pub(crate) v_iter: Vec<Lane<N>>,
    pub(crate) phase: Vec<Lane<N>>,
    /// Committed-phase sine/cosine, for policies that rotate them.
    pub(crate) sin_ph: Vec<Lane<N>>,
    pub(crate) cos_ph: Vec<Lane<N>>,
    pub(crate) i_cap: Vec<Lane<N>>,
    pub(crate) i_jj_cap: Vec<Lane<N>>,
    pub(crate) i_ind: Vec<Lane<N>>,
    pub(crate) vbar_prev: Vec<Lane<N>>,
    pub(crate) vbar_prev2: Vec<Lane<N>>,
    pub(crate) vbar_new: Vec<Lane<N>>,
    /// Per-lane element values: resistor conductance and resistance,
    /// capacitance, inductance, junction critical current, shunt
    /// resistance and conductance, capacitance.
    pub(crate) g_res: Vec<Lane<N>>,
    pub(crate) res_r: Vec<Lane<N>>,
    pub(crate) cap_c: Vec<Lane<N>>,
    pub(crate) ind_l: Vec<Lane<N>>,
    pub(crate) jj_ic: Vec<Lane<N>>,
    pub(crate) jj_r: Vec<Lane<N>>,
    pub(crate) jj_g_shunt: Vec<Lane<N>>,
    pub(crate) jj_c: Vec<Lane<N>>,
    /// Per-plateau companions: capacitor 2C/h, inductor h/2L and the
    /// junction's capacitive 2Cj/h.
    pub(crate) g_cap_lin: Vec<Lane<N>>,
    pub(crate) g_ind: Vec<Lane<N>>,
    pub(crate) g_jjcap: Vec<Lane<N>>,
    /// Newton work: each junction's linearized conductance, current at
    /// the iterate, branch voltage and history current.
    pub(crate) g_now: Vec<Lane<N>>,
    pub(crate) i_at_vk: Vec<Lane<N>>,
    pub(crate) vb_k: Vec<Lane<N>>,
    pub(crate) ihist: Vec<Lane<N>>,
}

impl<const N: usize> LaneState<N> {
    /// Zero state for `ckts`; lane `l` carries the element values of
    /// `ckts[min(l, len − 1)]`.
    fn new(ckts: &[Circuit]) -> Self {
        let topo = &ckts[0];
        let gather = |n: usize, f: &dyn Fn(&Circuit, usize) -> f64| -> Vec<Lane<N>> {
            (0..n)
                .map(|e| std::array::from_fn(|l| f(&ckts[l.min(ckts.len() - 1)], e)))
                .collect()
        };
        let zeros = |n: usize| vec![[0.0; N]; n];
        let (nodes, n_jj) = (topo.node_count, topo.jjs.len());
        let (n_res, n_cap, n_ind) = (
            topo.resistors.len(),
            topo.capacitors.len(),
            topo.inductors.len(),
        );
        LaneState {
            v: zeros(nodes),
            v_prev: zeros(nodes),
            v_iter: zeros(nodes),
            phase: zeros(n_jj),
            sin_ph: zeros(n_jj),
            cos_ph: vec![[1.0; N]; n_jj],
            i_cap: zeros(n_cap),
            i_jj_cap: zeros(n_jj),
            i_ind: zeros(n_ind),
            vbar_prev: zeros(nodes),
            vbar_prev2: zeros(nodes),
            vbar_new: zeros(nodes),
            g_res: gather(n_res, &|c, e| 1.0 / c.resistors[e].value),
            res_r: gather(n_res, &|c, e| c.resistors[e].value),
            cap_c: gather(n_cap, &|c, e| c.capacitors[e].value),
            ind_l: gather(n_ind, &|c, e| c.inductors[e].value),
            jj_ic: gather(n_jj, &|c, e| c.jjs[e].p.ic),
            jj_r: gather(n_jj, &|c, e| c.jjs[e].p.r),
            jj_g_shunt: gather(n_jj, &|c, e| 1.0 / c.jjs[e].p.r),
            jj_c: gather(n_jj, &|c, e| c.jjs[e].p.c),
            g_cap_lin: zeros(n_cap),
            g_ind: zeros(n_ind),
            g_jjcap: zeros(n_jj),
            g_now: zeros(n_jj),
            i_at_vk: zeros(n_jj),
            vb_k: zeros(n_jj),
            ihist: zeros(n_jj),
        }
    }

    /// Overwrite lane `dst` with lane `src` in every per-lane array.
    fn mirror(&mut self, dst: usize, src: usize) {
        for v in [
            &mut self.v,
            &mut self.v_prev,
            &mut self.v_iter,
            &mut self.phase,
            &mut self.sin_ph,
            &mut self.cos_ph,
            &mut self.i_cap,
            &mut self.i_jj_cap,
            &mut self.i_ind,
            &mut self.vbar_prev,
            &mut self.vbar_prev2,
            &mut self.vbar_new,
            &mut self.g_res,
            &mut self.res_r,
            &mut self.cap_c,
            &mut self.ind_l,
            &mut self.jj_ic,
            &mut self.jj_r,
            &mut self.jj_g_shunt,
            &mut self.jj_c,
            &mut self.g_cap_lin,
            &mut self.g_ind,
            &mut self.g_jjcap,
            &mut self.g_now,
            &mut self.i_at_vk,
            &mut self.vb_k,
            &mut self.ihist,
        ] {
            for lane in v.iter_mut() {
                lane[dst] = lane[src];
            }
        }
    }
}

/// Which lanes still count toward the shared schedule and results.
/// Lanes past the circuit count are ghost copies of the last circuit:
/// they keep the lane kernels full and never count.
struct LaneSet<const N: usize> {
    counted: [bool; N],
    retired: [Option<Retire>; N],
}

impl<const N: usize> LaneSet<N> {
    fn new(k: usize) -> Self {
        LaneSet {
            counted: std::array::from_fn(|l| l < k),
            retired: [None; N],
        }
    }

    /// Retire the counted lanes in `mask` for `why` and mirror the
    /// first surviving lane onto every retired lane. False when no
    /// counted lane survives.
    fn retire(
        &mut self,
        st: &mut LaneState<N>,
        m: &mut Counters,
        mask: [bool; N],
        why: Retire,
    ) -> bool {
        let mut newly = 0;
        for (l, &hit) in mask.iter().enumerate() {
            if hit && self.counted[l] {
                self.retired[l] = Some(why);
                self.counted[l] = false;
                newly += 1;
            }
        }
        match why {
            Retire::Newton { .. } => m.retired_newton += newly,
            Retire::Singular { .. } => m.retired_singular += newly,
            Retire::Budget { .. } => {}
        }
        let Some(src) = self.counted.iter().position(|&c| c) else {
            return false;
        };
        if newly > 0 {
            for l in 0..N {
                if self.retired[l].is_some() {
                    st.mirror(l, src);
                }
            }
        }
        true
    }
}

/// What one run leaves behind.
pub(crate) struct Outcome {
    /// Per circuit, in input order: its result, or why it retired.
    pub(crate) results: Vec<Result<SimResult, Retire>>,
    pub(crate) counters: Counters,
    /// Lanes still counted at the end.
    pub(crate) live: u64,
}

/// Advance `ckts` (1 ≤ len ≤ `N`, one topology) from t = 0 to `t_end`
/// in lockstep, under one `jjsim.solver.run` region. `faults` are
/// test-hook `(circuit, t_after)` pairs that retire that circuit's
/// lane at the first step boundary at or past `t_after`.
pub(crate) fn run<const N: usize, P: Policy<N>>(
    ckts: &[Circuit],
    opts: &SimOptions,
    t_end: f64,
    faults: &[(usize, f64)],
) -> Outcome {
    let k = ckts.len();
    debug_assert!((1..=N).contains(&k));
    for _ in 0..k {
        transient_counter().inc();
    }
    let mut m = Counters::default();
    // The per-step accept/reject/restamp markers are only recorded
    // under the SUPERNPU_TRACE_DETAIL verbosity knob, resolved once
    // per run; the dt histogram is resolved once so the hot loop pays
    // a pointer deref, not a registry lookup.
    let trace_detail = P::STEP_EVENTS && sfq_obs::trace::detail_enabled();
    // One region per run: a wall-clock slice, the `run_ms` histogram
    // and the profile frame that kernel-level attribution merges
    // under. `kprof` accumulates section times in locals and merges
    // them under this frame at the end, so the frame's self time is
    // only the un-kerneled loop control.
    let prof_run = sfq_obs::region("jjsim.solver.run");
    let mut kprof = KernelProf::start();
    let dt_hist =
        (P::STEP_EVENTS && sfq_obs::enabled()).then(|| sfq_obs::histogram("jjsim.solver.dt_ps"));

    let topo = &ckts[0];
    let n_unknown = topo.node_count - 1; // ground excluded
    let node_count = topo.node_count;
    let n_jj = topo.jjs.len();
    let lane_ckt = |l: usize| &ckts[l.min(k - 1)];

    let h = opts.dt;
    let (adaptive, dt_min, dt_max, lte_tol) = match opts.step {
        StepControl::Fixed => (false, h, h, f64::INFINITY),
        StepControl::Adaptive {
            dt_min,
            dt_max,
            lte_tol,
        } => (true, dt_min, dt_max, lte_tol),
    };
    // Ambient execution guard (one relaxed load when never used): an
    // optional budget polled once per step attempt.
    let budget = sfq_guard::active().filter(|b| !b.is_unlimited());
    // Fixed-mode step count; also the trace capacity hint.
    let fixed_steps = (t_end / h).ceil() as usize;
    let steps_hint = if adaptive {
        (t_end / dt_max).ceil() as usize
    } else {
        fixed_steps
    };

    let mut st = LaneState::<N>::new(ckts);
    let mut lanes = LaneSet::<N>::new(k);

    // Per-circuit result accumulators.
    let mut pulse_count = vec![[0usize; N]; n_jj];
    let mut pulse_times: Vec<Vec<Vec<f64>>> = (0..k).map(|_| vec![Vec::new(); n_jj]).collect();
    let mut dissipated = [0.0f64; N];
    let mut jj_dissipated = vec![[0.0f64; N]; n_jj];
    let record = !opts.record_nodes.is_empty();
    let mut traces: Vec<Vec<Vec<f64>>> = (0..k)
        .map(|_| {
            opts.record_nodes
                .iter()
                .map(|_| Vec::with_capacity(steps_hint))
                .collect()
        })
        .collect();
    let mut trace_times: Vec<f64> = Vec::with_capacity(if record { steps_hint } else { 0 });

    // Element terminal pairs; linear elements in stamp order
    // (resistors, capacitors, inductors).
    let pairs =
        |es: &[TwoTerminal]| -> Vec<(usize, usize)> { es.iter().map(|e| (e.a, e.b)).collect() };
    let (res_ab, cap_ab, ind_ab) = (
        pairs(&topo.resistors),
        pairs(&topo.capacitors),
        pairs(&topo.inductors),
    );
    let lin_ab: Vec<(usize, usize)> = res_ab
        .iter()
        .chain(&cap_ab)
        .chain(&ind_ab)
        .copied()
        .collect();
    let jj_ab: Vec<(usize, usize)> = topo.jjs.iter().map(|e| (e.a, e.b)).collect();

    // Half-bandwidth of the conductance matrix in node-creation order;
    // chain-structured circuits (JTLs, shift registers) are
    // narrow-banded, letting the O(n·bw²) band LU replace the O(n³)
    // dense elimination where the policy says so.
    let bandwidth = lin_ab
        .iter()
        .chain(&jj_ab)
        .filter(|&&(a, b)| a > 0 && b > 0)
        .map(|&(a, b)| a.abs_diff(b))
        .max()
        .unwrap_or(0);
    let banded = P::banded(n_unknown, bandwidth);
    let band_w = band_width(bandwidth);

    // Stamp plan: every element's matrix positions are fixed for the
    // whole run, so resolve them once — in packed-band layout on the
    // banded path, dense row-major otherwise, plus a dense copy for the
    // banded path's pivoting fallback.
    let plan = |in_band: bool| {
        let pos = |i: usize, j: usize| {
            if in_band {
                i * band_w + (bandwidth + j) - i
            } else {
                i * n_unknown + j
            }
        };
        let idx = |&(a, b): &(usize, usize)| StampIdx {
            da: if a > 0 { pos(a - 1, a - 1) } else { usize::MAX },
            db: if b > 0 { pos(b - 1, b - 1) } else { usize::MAX },
            ab: if a > 0 && b > 0 {
                pos(a - 1, b - 1)
            } else {
                usize::MAX
            },
            ba: if a > 0 && b > 0 {
                pos(b - 1, a - 1)
            } else {
                usize::MAX
            },
        };
        let lin: Vec<StampIdx> = lin_ab.iter().map(idx).collect();
        let jj: Vec<StampIdx> = jj_ab.iter().map(idx).collect();
        (lin, jj)
    };
    let (lin_idx, jj_idx) = plan(banded);
    let (lin_dense, jj_dense) = plan(false);
    // Each source's waveform in every lane, with its terminals.
    let sources: Vec<([&Waveform; N], usize, usize)> = topo
        .sources
        .iter()
        .enumerate()
        .map(|(s, src)| {
            let waves = std::array::from_fn(|l| &lane_ckt(l).sources[s].waveform);
            (waves, src.into, src.from)
        })
        .collect();

    // The linear elements' conductances (R, C, L companions) do not
    // depend on time or on the Newton iterate — only on the step size.
    // Stamp them once per dt *plateau* into `a_lin` and start every
    // Newton assembly from it; the stamp (and the LU built on top of
    // it) is invalidated only when dt actually changes.
    let mut a_lin = vec![
        [0.0f64; N];
        if banded {
            n_unknown * band_w
        } else {
            n_unknown * n_unknown
        }
    ];
    let mut h_stamped = f64::NAN;
    let mut phi_coef = 0.0f64;
    // Reusable band LU: while every counted lane's junction
    // conductances stay within `P::REUSE_RTOL` of the factored ones,
    // the factorization serves Newton iterations AND timesteps,
    // turning the per-iteration O(n·bw²) elimination into an O(n·bw)
    // pair of triangular solves (chord Newton / SPICE LU reuse).
    let mut lu = vec![[0.0f64; N]; if banded { n_unknown * band_w } else { 0 }];
    let mut lu_g = vec![[0.0f64; N]; n_jj];
    let mut lu_valid = false;
    // Dense pivoting work space, one lane at a time.
    let dense = !banded || !P::RETIRE_ON_TINY_PIVOT;
    let mut a_mat = vec![[0.0f64]; if dense { n_unknown * n_unknown } else { 0 }];
    let mut rhs_lane = vec![0.0f64; if dense { n_unknown } else { 0 }];
    let mut rhs_base = vec![[0.0f64; N]; n_unknown];
    let mut rhs = vec![[0.0f64; N]; n_unknown];

    // Adaptive controller state. `h_cur` is the plateau step; the
    // per-step `h_step` may be temporarily smaller (window caps,
    // landing on a window start or on t_end).
    //
    // The LTE predictor extrapolates the *trapezoid-filtered* voltage
    // v̄ₙ = (vₙ + vₙ₋₁)/2 (midpoint samples at tₙ − h/2) rather than the
    // raw node voltage: the trapezoidal rule is only marginally stable
    // on stiff modes, so a switching event leaves behind an undamped
    // period-2 (+a, −a, …) numerical ringing of a few µV on
    // storage-loop nodes. The raw-voltage LTE would see that ringing as
    // a permanent error and pin dt at dt_min forever; the two-sample
    // average cancels the alternating mode exactly while representing
    // the smooth solution to the same O(h²). (The phase-rate guard uses
    // vb_new + vb_prev and is ring-immune for the same reason.)
    let windows = if adaptive {
        merge_windows(ckts)
    } else {
        Vec::new()
    };
    let mut win_idx = 0usize;
    let mut h_cur = if adaptive { dt_min } else { h };
    let mut tbar_prev = 0.0f64;
    let mut tbar_prev2 = -dt_min;
    let mut good_streak = 0u32;
    let mut t = 0.0f64; // last accepted time
    let mut step_idx = 0usize; // accepted steps
    let mut fault_armed: Vec<(usize, f64)> = faults.to_vec();

    'time: loop {
        // Termination.
        if adaptive {
            if t_end - t < 1e-18 {
                break;
            }
        } else if step_idx >= fixed_steps {
            break;
        }

        // Execution guard: poll the ambient budget once per step
        // *attempt* (accepted or rejected, so a runaway reject loop is
        // still bounded). No ambient budget → no cost.
        if let Some(b) = budget.as_ref() {
            if let Some(stop) = b.poll(m.steps + m.rejected(), m.newton_iters) {
                lanes.retire(&mut st, &mut m, [true; N], Retire::Budget { stop, time: t });
                break 'time;
            }
        }

        // Test-hook retirements at step boundaries.
        if !fault_armed.is_empty() {
            let mut hit = [false; N];
            fault_armed.retain(|&(lane, t_after)| {
                if t >= t_after && lanes.counted[lane] {
                    hit[lane] = true;
                    false
                } else {
                    t < t_after
                }
            });
            if hit.contains(&true)
                && !lanes.retire(&mut st, &mut m, hit, Retire::Newton { time: t })
            {
                break 'time;
            }
        }

        // Effective step for this attempt.
        let h_step = if adaptive {
            while win_idx < windows.len() && windows[win_idx].end <= t {
                win_idx += 1;
            }
            let mut hh = h_cur;
            if let Some(w) = windows.get(win_idx) {
                if t >= w.start {
                    // Inside a source-event window: cap the step so
                    // the waveform edge is resolved.
                    if hh > w.cap {
                        hh = w.cap;
                        m.refine_source += 1;
                    }
                } else if hh > w.start - t {
                    // Land on the window start instead of stepping
                    // across the event.
                    hh = w.start - t;
                    m.refine_source += 1;
                }
            }
            // A window-boundary truncation may go degenerate from
            // floating-point dust; overshooting a window start by less
            // than dt_min is harmless (windows carry slack).
            hh.max(dt_min).min(t_end - t)
        } else {
            h
        };
        let t_next = if adaptive {
            t + h_step
        } else {
            (step_idx + 1) as f64 * h
        };

        // Refresh the per-plateau companions (phase coefficient π·h/Φ₀,
        // capacitor 2C/h, inductor h/2L, junction 2Cj/h) and re-stamp
        // the linear-element matrix only when dt actually changed; this
        // also invalidates the band LU (its values embed the companion
        // conductances of the old step).
        if h_step != h_stamped {
            kprof.mark();
            phi_coef = PI * h_step / PHI0;
            for (g, c) in st
                .g_cap_lin
                .iter_mut()
                .flatten()
                .zip(st.cap_c.iter().flatten())
            {
                *g = 2.0 * c / h_step;
            }
            for (g, l) in st.g_ind.iter_mut().flatten().zip(st.ind_l.iter().flatten()) {
                *g = h_step / (2.0 * l);
            }
            for (g, c) in st
                .g_jjcap
                .iter_mut()
                .flatten()
                .zip(st.jj_c.iter().flatten())
            {
                *g = 2.0 * c / h_step;
            }
            a_lin.fill([0.0; N]);
            let lin_g = st.g_res.iter().chain(&st.g_cap_lin).chain(&st.g_ind);
            for (s, g) in lin_idx.iter().zip(lin_g) {
                apply_stamp(&mut a_lin, *s, *g);
            }
            h_stamped = h_step;
            lu_valid = false;
            m.restamps += 1;
            kprof.lap(K_RESTAMP);
            if trace_detail {
                sfq_obs::trace::instant("jjsim", "restamp");
            }
        }

        st.v_prev.copy_from_slice(&st.v);
        st.v_iter.copy_from_slice(&st.v);

        // Per-step rhs: C/L history currents (fixed within the step's
        // Newton loop) and the source currents at t_next.
        kprof.mark();
        rhs_base.fill([0.0; N]);
        for ((&(a, b), g), i_cap) in cap_ab.iter().zip(&st.g_cap_lin).zip(&st.i_cap) {
            let mut i_hist = [0.0; N];
            for (l, ih) in i_hist.iter_mut().enumerate() {
                let vb = st.v_prev[a][l] - st.v_prev[b][l];
                *ih = -g[l] * vb - i_cap[l];
            }
            stamp_i(&mut rhs_base, a, b, i_hist);
        }
        for ((&(a, b), g), i_ind) in ind_ab.iter().zip(&st.g_ind).zip(&st.i_ind) {
            let mut i_hist = [0.0; N];
            for (l, ih) in i_hist.iter_mut().enumerate() {
                let vb = st.v_prev[a][l] - st.v_prev[b][l];
                *ih = i_ind[l] + g[l] * vb;
            }
            stamp_i(&mut rhs_base, a, b, i_hist);
        }
        for &(waves, into, from) in &sources {
            let iv: Lane<N> = std::array::from_fn(|l| waves[l].value(t_next));
            if into > 0 {
                for l in 0..N {
                    rhs_base[into - 1][l] += iv[l];
                }
            }
            if from > 0 {
                for l in 0..N {
                    rhs_base[from - 1][l] -= iv[l];
                }
            }
        }
        kprof.lap(K_STAMP);

        // Newton iteration on node voltages at t_next, until every
        // counted lane converges.
        let mut conv = [false; N];
        let mut converged = false;
        for _ in 0..opts.max_newton {
            m.newton_iters += 1;
            kprof.mark();
            // Linearize every junction around v_iter and decide whether
            // the existing factorization still applies.
            let mut reuse = lu_valid;
            for (e, &(a, b)) in jj_ab.iter().enumerate() {
                let mut vb_k = [0.0; N];
                let mut vb_prev = [0.0; N];
                for l in 0..N {
                    vb_prev[l] = st.v_prev[a][l] - st.v_prev[b][l];
                    vb_k[l] = st.v_iter[a][l] - st.v_iter[b][l];
                }
                let (i_at, g) = P::linearize(&st, e, vb_k, vb_prev, phi_coef);
                if reuse {
                    for l in 0..N {
                        if lanes.counted[l]
                            && (g[l] - lu_g[e][l]).abs() > P::REUSE_RTOL * lu_g[e][l].abs()
                        {
                            reuse = false;
                        }
                    }
                }
                // The history current against the conductance this
                // junction will solve with (the factored one on reuse)
                // keeps a converged iterate exact under KCL.
                let g_mat = if reuse { lu_g[e] } else { g };
                for l in 0..N {
                    st.ihist[e][l] = i_at[l] - g_mat[l] * vb_k[l];
                }
                st.g_now[e] = g;
                if lu_valid {
                    st.i_at_vk[e] = i_at;
                    st.vb_k[e] = vb_k;
                }
            }
            // A junction after the first may have vetoed reuse:
            // recompute the earlier history currents against the fresh
            // conductances so matrix and rhs agree.
            if lu_valid && !reuse {
                for (((ih, i_at), vb), g) in st
                    .ihist
                    .iter_mut()
                    .zip(&st.i_at_vk)
                    .zip(&st.vb_k)
                    .zip(&st.g_now)
                {
                    for l in 0..N {
                        ih[l] = i_at[l] - g[l] * vb[l];
                    }
                }
            }
            kprof.lap(K_JJ_STAMP_RHS);

            if banded && !reuse {
                // Fused stamp+RHS pass: one sweep over the junctions
                // lands each conductance in the band and its history
                // current in the rhs, then factor. A tiny pivot either
                // drops to the dense fallback or retires that lane
                // (mirrored from a healthy sibling) and refactors —
                // bounded by the lane count.
                loop {
                    m.lu_factor += 1;
                    lu.copy_from_slice(&a_lin);
                    rhs.copy_from_slice(&rhs_base);
                    for (e, &(a, b)) in jj_ab.iter().enumerate() {
                        apply_stamp(&mut lu, jj_idx[e], st.g_now[e]);
                        stamp_i(&mut rhs, a, b, st.ihist[e]);
                    }
                    let ok = P::factor(&mut lu, n_unknown, bandwidth);
                    let failed: [bool; N] = std::array::from_fn(|l| lanes.counted[l] && !ok[l]);
                    if !failed.contains(&true) {
                        lu_g.copy_from_slice(&st.g_now);
                        lu_valid = true;
                        break;
                    }
                    lu_valid = false;
                    if !P::RETIRE_ON_TINY_PIVOT {
                        break;
                    }
                    if !lanes.retire(&mut st, &mut m, failed, Retire::Singular { time: t_next }) {
                        kprof.lap(K_LU_FACTOR);
                        break 'time;
                    }
                }
                kprof.lap(K_LU_FACTOR);
            } else {
                if reuse {
                    m.lu_reuse += 1;
                }
                rhs.copy_from_slice(&rhs_base);
                for (e, &(a, b)) in jj_ab.iter().enumerate() {
                    stamp_i(&mut rhs, a, b, st.ihist[e]);
                }
                kprof.lap(K_JJ_STAMP_RHS);
            }
            if lu_valid {
                solve_band(&lu, &mut rhs, n_unknown, bandwidth);
                kprof.lap(K_LU_SOLVE);
            } else {
                // Dense elimination with pivoting, lane by lane: small
                // circuits, and the fallback when the no-pivot band
                // factorization hits a tiny pivot. The dense matrix is
                // the linear stamp plus the junctions in element order
                // (resistors, capacitors, inductors, junctions).
                m.dense_solves += 1;
                let mut singular = [false; N];
                for l in 0..N {
                    if banded {
                        a_mat.fill([0.0]);
                        let lin_g = st.g_res.iter().chain(&st.g_cap_lin).chain(&st.g_ind);
                        for (s, g) in lin_dense.iter().zip(lin_g) {
                            apply_stamp(&mut a_mat, *s, [g[l]]);
                        }
                    } else {
                        for (d, s) in a_mat.iter_mut().zip(&a_lin) {
                            *d = [s[l]];
                        }
                    }
                    for (s, g) in jj_dense.iter().zip(&st.g_now) {
                        apply_stamp(&mut a_mat, *s, [g[l]]);
                    }
                    for (x, r) in rhs_lane.iter_mut().zip(&rhs) {
                        *x = r[l];
                    }
                    if solve_dense(a_mat.as_flattened_mut(), &mut rhs_lane, n_unknown) {
                        for (r, x) in rhs.iter_mut().zip(&rhs_lane) {
                            r[l] = *x;
                        }
                    } else {
                        singular[l] = true;
                    }
                }
                kprof.lap(K_DENSE_SOLVE);
                if singular.contains(&true)
                    && !lanes.retire(&mut st, &mut m, singular, Retire::Singular { time: t_next })
                {
                    break 'time;
                }
            }

            // Per-lane update and convergence (over counted lanes; a
            // NaN never satisfies `< tol`).
            let mut max_dv = [0.0f64; N];
            for (i, s) in rhs.iter().enumerate() {
                for l in 0..N {
                    let dv = (s[l] - st.v_iter[i + 1][l]).abs();
                    if dv > max_dv[l] {
                        max_dv[l] = dv;
                    }
                    st.v_iter[i + 1][l] = s[l];
                }
            }
            let mut all = true;
            for l in 0..N {
                conv[l] = max_dv[l] < opts.tol_v;
                if lanes.counted[l] && !conv[l] {
                    all = false;
                }
            }
            kprof.lap(K_NEWTON);
            if all {
                converged = true;
                break;
            }
        }
        if !converged {
            // Adaptive mode treats a Newton failure as one more reason
            // to refine: nothing was committed, so halving and retrying
            // is a clean rollback.
            if adaptive && h_step > dt_min {
                m.reject_newton += 1;
                if trace_detail {
                    sfq_obs::trace::instant("jjsim", "reject (newton)");
                }
                h_cur = (h_step * 0.5).max(dt_min);
                good_streak = 0;
                continue;
            }
            // At dt_min (or in fixed mode): retire the unconverged
            // lanes; converged siblings carry on.
            let failed = conv.map(|c| !c);
            if !lanes.retire(&mut st, &mut m, failed, Retire::Newton { time: t_next }) {
                break 'time;
            }
        }

        // Accept/reject the converged step on the counted-lane maxima
        // (adaptive only; nothing has been committed yet, so a reject
        // is a pure retry).
        kprof.mark();
        if adaptive {
            let mut dphi_l = [0.0f64; N];
            for &(a, b) in &jj_ab {
                for (l, dp) in dphi_l.iter_mut().enumerate() {
                    let vb_prev = st.v_prev[a][l] - st.v_prev[b][l];
                    let vb_new = st.v_iter[a][l] - st.v_iter[b][l];
                    let dphi = (phi_coef * (vb_new + vb_prev)).abs();
                    if dphi > *dp {
                        *dp = dphi;
                    }
                }
            }
            // LTE estimate: deviation of the trapezoid-filtered voltage
            // from the linear extrapolation of its two previous
            // accepted samples. Exact for any linearly-evolving
            // interval (bias ramps) and blind to the period-2
            // trapezoidal ringing mode; ~h²·|v″| on real dynamics.
            let tbar_new = t + 0.5 * h_step;
            let span = tbar_prev - tbar_prev2;
            let scale = if span > 0.0 {
                (tbar_new - tbar_prev) / span
            } else {
                1.0
            };
            let mut lte_l = [0.0f64; N];
            for i in 1..node_count {
                for (l, le) in lte_l.iter_mut().enumerate() {
                    st.vbar_new[i][l] = 0.5 * (st.v_iter[i][l] + st.v_prev[i][l]);
                    let pred =
                        st.vbar_prev[i][l] + (st.vbar_prev[i][l] - st.vbar_prev2[i][l]) * scale;
                    let e = (st.vbar_new[i][l] - pred).abs();
                    if e > *le {
                        *le = e;
                    }
                }
            }
            let mut lte = 0.0f64;
            let mut dphi_max = 0.0f64;
            for l in 0..N {
                if lanes.counted[l] {
                    if lte_l[l] > lte {
                        lte = lte_l[l];
                    }
                    if dphi_l[l] > dphi_max {
                        dphi_max = dphi_l[l];
                    }
                }
            }
            if h_step > dt_min && (lte > lte_tol || dphi_max > PHASE_MAX_STEP) {
                if lte > lte_tol {
                    m.reject_lte += 1;
                    if trace_detail {
                        sfq_obs::trace::instant("jjsim", "reject (lte)");
                    }
                } else {
                    m.reject_phase += 1;
                    if trace_detail {
                        sfq_obs::trace::instant("jjsim", "reject (phase)");
                    }
                }
                h_cur = (h_step * 0.5).max(dt_min);
                good_streak = 0;
                kprof.lap(K_LTE);
                continue;
            }
            // Plateau growth: double only after a streak of steps that
            // were quiet on both criteria, so the LU refactorization a
            // dt change forces is amortized.
            if lte < GROW_MARGIN * lte_tol && dphi_max < PHASE_SLOW {
                good_streak += 1;
                if good_streak >= GROW_AFTER && h_cur < dt_max {
                    h_cur = (h_cur * 2.0).min(dt_max);
                    good_streak = 0;
                }
            } else {
                good_streak = 0;
            }
        }
        kprof.lap(K_LTE);

        // Commit state updates.
        m.steps += 1;
        if trace_detail {
            sfq_obs::trace::instant("jjsim", "accept");
        }
        for (e, &(a, b)) in jj_ab.iter().enumerate() {
            let mut vb_new = [0.0; N];
            let mut vb_prev = [0.0; N];
            let mut d = [0.0; N];
            let mut new_phase = [0.0; N];
            for l in 0..N {
                vb_prev[l] = st.v_prev[a][l] - st.v_prev[b][l];
                vb_new[l] = st.v_iter[a][l] - st.v_iter[b][l];
                d[l] = phi_coef * (vb_new[l] + vb_prev[l]);
                new_phase[l] = st.phase[e][l] + d[l];
            }
            // Forward 2π slips, per counted circuit: a pulse is
            // recorded when the phase passes (2k+1)π going up. Fixed
            // mode stamps the end of the crossing step; adaptive mode
            // interpolates the crossing inside the step for sub-step
            // timing accuracy.
            for (inst, times) in pulse_times.iter_mut().enumerate() {
                if !lanes.counted[inst] {
                    continue;
                }
                let old_phase = st.phase[e][inst];
                let np = new_phase[inst];
                while np > (2 * pulse_count[e][inst] + 1) as f64 * PI {
                    let threshold = (2 * pulse_count[e][inst] + 1) as f64 * PI;
                    let t_pulse = if adaptive && np > old_phase {
                        t + h_step * ((threshold - old_phase) / (np - old_phase))
                    } else {
                        t_next
                    };
                    times[e].push(t_pulse);
                    pulse_count[e][inst] += 1;
                }
            }
            P::commit_phase(&mut st, e, d, new_phase, step_idx);
            for (l, diss) in dissipated.iter_mut().enumerate() {
                st.phase[e][l] = new_phase[l];
                st.i_jj_cap[e][l] = st.g_jjcap[e][l] * (vb_new[l] - vb_prev[l]) - st.i_jj_cap[e][l];
                let p_shunt = vb_new[l] * vb_new[l] / st.jj_r[e][l];
                jj_dissipated[e][l] += p_shunt * h_step;
                *diss += p_shunt * h_step;
            }
        }
        for ((&(a, b), i_cap), g) in cap_ab.iter().zip(&mut st.i_cap).zip(&st.g_cap_lin) {
            for l in 0..N {
                let d = (st.v_iter[a][l] - st.v_iter[b][l]) - (st.v_prev[a][l] - st.v_prev[b][l]);
                i_cap[l] = g[l] * d - i_cap[l];
            }
        }
        for ((&(a, b), i_ind), g) in ind_ab.iter().zip(&mut st.i_ind).zip(&st.g_ind) {
            for l in 0..N {
                let s = (st.v_iter[a][l] - st.v_iter[b][l]) + (st.v_prev[a][l] - st.v_prev[b][l]);
                i_ind[l] += g[l] * s;
            }
        }
        for (&(a, b), r) in res_ab.iter().zip(&st.res_r) {
            for (l, diss) in dissipated.iter_mut().enumerate() {
                let vb = st.v_iter[a][l] - st.v_iter[b][l];
                *diss += vb * vb / r[l] * h_step;
            }
        }
        if adaptive {
            std::mem::swap(&mut st.vbar_prev2, &mut st.vbar_prev);
            std::mem::swap(&mut st.vbar_prev, &mut st.vbar_new);
            tbar_prev2 = tbar_prev;
            tbar_prev = t + 0.5 * h_step;
        }
        st.v.copy_from_slice(&st.v_iter);
        t = t_next;
        step_idx += 1;
        if let Some(hist) = dt_hist {
            hist.observe(h_step * 1e12);
        }
        if record {
            trace_times.push(t_next);
            for (inst, tr) in traces.iter_mut().enumerate() {
                for (slot, node) in opts.record_nodes.iter().enumerate() {
                    tr[slot].push(st.v[node.index()][inst]);
                }
            }
        }
        kprof.lap(K_COMMIT);
    }

    kprof.flush(&m);
    drop(prof_run);

    let results = (0..k)
        .map(|inst| {
            if let Some(why) = lanes.retired[inst] {
                return Err(why);
            }
            Ok(SimResult {
                dt: dt_min,
                t_end,
                pulse_times: std::mem::take(&mut pulse_times[inst]),
                final_phases: st.phase.iter().map(|p| p[inst]).collect(),
                dissipated_j: dissipated[inst],
                jj_dissipated_j: jj_dissipated.iter().map(|p| p[inst]).collect(),
                traces: std::mem::take(&mut traces[inst]),
                trace_times: if inst + 1 == k {
                    std::mem::take(&mut trace_times)
                } else {
                    trace_times.clone()
                },
                accepted_steps: m.steps,
                rejected_steps: m.rejected(),
            })
        })
        .collect();
    Outcome {
        results,
        live: lanes.counted.iter().filter(|&&c| c).count() as u64,
        counters: m,
    }
}
