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
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use jjsim::extract::{
    and_clock_to_q, and_cycle_energy, dff_clock_to_q, dff_cycle_energy, jtl_characteristics,
    max_shift_frequency, splitter_delay,
};
use jjsim::stdlib::{AndParams, DffParams, JtlParams};
use jjsim::SimError;
use parking_lot::RwLock;
use sfq_cells::{CellLibrary, DeviceParams, GateKind, GateParams};
use sfq_guard::{CancelToken, RunBudget};

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
/// scalars plus the ambient solver-relaxation level (a relaxed retry
/// solves with different adaptive bounds, so its results must never
/// share a cache slot with nominal ones). Two keys are equal iff the
/// transient runs would be bit-identical, so a cache hit can never
/// change a result.
type MeasureKey = [u64; 22];

fn measure_key(jtl: &JtlParams, dff: &DffParams, and: &AndParams) -> MeasureKey {
    [
        u64::from(sfq_guard::relax_level()),
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

/// Process-wide memo of completed measurement runs. A linear scan is
/// fine: there is one key per distinct parameter set, a handful per
/// process at most.
static MEASURE_CACHE: RwLock<Vec<(MeasureKey, Measurements)>> = RwLock::new(Vec::new());

// ------------------------------------------------ per-testbench memoization
//
// A sweep that perturbs one cell family's parameters (a margins probe,
// a Fig. 21/22 design point) used to re-run *every* testbench because
// the monolithic `MeasureKey` fingerprints all three parameter sets at
// once. The measurement is therefore split along testbench boundaries
// — the JTL benches depend only on `JtlParams`, the DFF benches only
// on `DffParams`, the AND benches only on `AndParams` — each with its
// own bit-exact key and memo, generalizing the margins probe memo of
// `jjsim::margins` to the whole characterization layer. Only the
// testbenches whose parameters actually changed between sweep points
// re-run their transients (observable via [`jjsim::transient_runs`]).

/// JTL-family raw measurements (JTL chain + splitter testbenches).
#[derive(Debug, Clone, Copy)]
struct JtlMeas {
    jtl_delay_ps: f64,
    jtl_energy_aj: f64,
    splitter_delay_ps: f64,
}

/// DFF-family raw measurements (clock-to-Q, cycle energy, and the
/// shift-register frequency bisection, which is built from DFFs).
#[derive(Debug, Clone, Copy)]
struct DffMeas {
    dff_delay_ps: f64,
    dff_energy_aj: f64,
    sr_max_ghz: f64,
}

/// Clocked-AND raw measurements.
#[derive(Debug, Clone, Copy)]
struct AndMeas {
    and_delay_ps: f64,
    and_energy_aj: f64,
}

// Like `MeasureKey`, each per-family key leads with the ambient
// solver-relaxation level: relaxed-retry results live in their own
// slots.
type JtlKey = [u64; 7];
type DffKey = [u64; 9];
type AndKey = [u64; 8];

fn jtl_bench_key(p: &JtlParams) -> JtlKey {
    [
        u64::from(sfq_guard::relax_level()),
        p.ic.to_bits(),
        p.bias_frac.to_bits(),
        p.l.to_bits(),
        p.input_amplitude.to_bits(),
        p.input_time.to_bits(),
        JTL_STAGES as u64,
    ]
}

fn dff_bench_key(p: &DffParams) -> DffKey {
    [
        u64::from(sfq_guard::relax_level()),
        p.ic_in.to_bits(),
        p.ic_out.to_bits(),
        p.l_store.to_bits(),
        p.bias_store.to_bits(),
        p.bias_out.to_bits(),
        p.pulse_amplitude.to_bits(),
        SR_BISECT_LO_PS.to_bits(),
        SR_BISECT_HI_PS.to_bits(),
    ]
}

fn and_bench_key(p: &AndParams) -> AndKey {
    [
        u64::from(sfq_guard::relax_level()),
        p.ic_store.to_bits(),
        p.ic_out.to_bits(),
        p.l_store.to_bits(),
        p.bias_store.to_bits(),
        p.bias_out.to_bits(),
        p.pulse_amplitude.to_bits(),
        p.clock_amplitude.to_bits(),
    ]
}

static JTL_BENCH_CACHE: RwLock<Vec<(JtlKey, JtlMeas)>> = RwLock::new(Vec::new());
static DFF_BENCH_CACHE: RwLock<Vec<(DffKey, DffMeas)>> = RwLock::new(Vec::new());
static AND_BENCH_CACHE: RwLock<Vec<(AndKey, AndMeas)>> = RwLock::new(Vec::new());

fn bench_cache_hit() {
    sfq_obs::inc("chars.bench.cache_hit");
}

fn bench_cache_miss() {
    sfq_obs::inc("chars.bench.cache_miss");
}

fn jtl_measurements(p: &JtlParams) -> Result<JtlMeas, SimError> {
    let key = jtl_bench_key(p);
    if let Some((_, m)) = JTL_BENCH_CACHE.read().iter().find(|(k, _)| *k == key) {
        bench_cache_hit();
        sfq_obs::prof::count("bench_cache_hit", 1);
        return Ok(*m);
    }
    bench_cache_miss();
    let _pf = sfq_obs::prof::frame("jtl_bench");
    let jtl = jtl_characteristics(JTL_STAGES, p)?;
    let m = JtlMeas {
        jtl_delay_ps: jtl.delay_s * 1e12,
        jtl_energy_aj: jtl.energy_j * 1e18,
        splitter_delay_ps: splitter_delay(p)? * 1e12,
    };
    let mut cache = JTL_BENCH_CACHE.write();
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, m));
    }
    Ok(m)
}

fn dff_measurements(p: &DffParams) -> Result<DffMeas, SimError> {
    let key = dff_bench_key(p);
    if let Some((_, m)) = DFF_BENCH_CACHE.read().iter().find(|(k, _)| *k == key) {
        bench_cache_hit();
        sfq_obs::prof::count("bench_cache_hit", 1);
        return Ok(*m);
    }
    bench_cache_miss();
    let _pf = sfq_obs::prof::frame("dff_bench");
    let m = DffMeas {
        dff_delay_ps: dff_clock_to_q(p)? * 1e12,
        dff_energy_aj: dff_cycle_energy(p)? * 1e18,
        sr_max_ghz: max_shift_frequency(p, SR_BISECT_LO_PS, SR_BISECT_HI_PS)? / 1e9,
    };
    let mut cache = DFF_BENCH_CACHE.write();
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, m));
    }
    Ok(m)
}

fn and_measurements(p: &AndParams) -> Result<AndMeas, SimError> {
    let key = and_bench_key(p);
    if let Some((_, m)) = AND_BENCH_CACHE.read().iter().find(|(k, _)| *k == key) {
        bench_cache_hit();
        sfq_obs::prof::count("bench_cache_hit", 1);
        return Ok(*m);
    }
    bench_cache_miss();
    let _pf = sfq_obs::prof::frame("and_bench");
    let m = AndMeas {
        and_delay_ps: and_clock_to_q(p)? * 1e12,
        and_energy_aj: and_cycle_energy(p)? * 1e18,
    };
    let mut cache = AND_BENCH_CACHE.write();
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, m));
    }
    Ok(m)
}

/// Always-on `chars.measure.cache_hit` / `chars.measure.cache_miss`
/// counters in the [`sfq_obs`] registry (the former ad-hoc statics):
/// they record whether or not `SUPERNPU_METRICS` is set, so the
/// [`measure_cache_stats`] alias keeps its pre-registry behavior.
fn cache_counters() -> (&'static sfq_obs::Counter, &'static sfq_obs::Counter) {
    static C: OnceLock<(&'static sfq_obs::Counter, &'static sfq_obs::Counter)> = OnceLock::new();
    *C.get_or_init(|| {
        (
            sfq_obs::counter("chars.measure.cache_hit"),
            sfq_obs::counter("chars.measure.cache_miss"),
        )
    })
}

/// `(hits, misses)` of the measurement cache since process start (or
/// the last [`clear_measure_cache`]).
///
/// Deprecated alias: thin wrapper over the `chars.measure.cache_hit` /
/// `chars.measure.cache_miss` counters in the [`sfq_obs`] registry;
/// prefer reading those (or [`sfq_obs::snapshot`]) in new code.
pub fn measure_cache_stats() -> (u64, u64) {
    let (hits, misses) = cache_counters();
    (hits.get(), misses.get())
}

/// Drop all cached measurements (the assembled-measurement memo, every
/// per-testbench memo and the `jjsim::extract` transient memo beneath
/// them) and reset the hit/miss counters, so the next measurement runs
/// its transients again.
pub fn clear_measure_cache() {
    MEASURE_CACHE.write().clear();
    JTL_BENCH_CACHE.write().clear();
    DFF_BENCH_CACHE.write().clear();
    AND_BENCH_CACHE.write().clear();
    jjsim::extract::clear_extract_cache();
    let (hits, misses) = cache_counters();
    hits.reset();
    misses.reset();
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
/// Memoization is two-level: an outer memo on the full parameter
/// fingerprint returns an assembled [`Measurements`] without touching
/// any testbench, and on an outer miss each testbench family (JTL,
/// DFF, clocked AND) consults its own memo keyed only on the
/// parameters that feed it. A sweep point that perturbs, say, the AND
/// parameters re-runs *only* the AND transients; the JTL and DFF
/// numbers are reused bit-identically from the previous point.
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

    let _pf = sfq_obs::prof::frame("chars.measure");
    let (cache_hits, cache_misses) = cache_counters();
    if let Some((_, m)) = MEASURE_CACHE.read().iter().find(|(k, _)| *k == key) {
        cache_hits.inc();
        sfq_obs::prof::count("cache_hit", 1);
        return Ok(*m);
    }
    cache_misses.inc();
    sfq_obs::prof::count("cache_miss", 1);
    let fill_started = sfq_obs::enabled().then(Instant::now);
    let fill_frame = sfq_obs::prof::frame("fill");

    let jtl = jtl_measurements(jtl_p)?;
    let dff = dff_measurements(dff_p)?;
    let and = and_measurements(and_p)?;
    let m = Measurements {
        jtl_delay_ps: jtl.jtl_delay_ps,
        jtl_energy_aj: jtl.jtl_energy_aj,
        splitter_delay_ps: jtl.splitter_delay_ps,
        dff_delay_ps: dff.dff_delay_ps,
        dff_energy_aj: dff.dff_energy_aj,
        and_delay_ps: and.and_delay_ps,
        and_energy_aj: and.and_energy_aj,
        sr_max_ghz: dff.sr_max_ghz,
    };
    drop(fill_frame);
    if let Some(t0) = fill_started {
        sfq_obs::observe("chars.measure.fill_ms", t0.elapsed().as_secs_f64() * 1e3);
    }

    let mut cache = MEASURE_CACHE.write();
    if !cache.iter().any(|(k, _)| *k == key) {
        cache.push((key, m));
    }
    Ok(m)
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
/// [`measure_with`]'s incremental per-testbench memoization.
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

// ------------------------------------------------- guarded measurement

/// How a [`measure_resilient`] result was obtained — the rung of the
/// degradation ladder that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeasureSource {
    /// First-attempt transient measurement under nominal solver
    /// options — the golden path.
    Transient,
    /// The transient succeeded on retry number `.0` (1-based) with
    /// relaxed adaptive bounds (`dt_min` tightened, `lte_tol`
    /// loosened by 4^attempt).
    Retried(u32),
    /// Every transient attempt blew its budget; the reference
    /// (closed-form) measurements were substituted. The point is
    /// *degraded*, not lost.
    Fallback,
}

/// A value labeled with the ladder rung that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guarded<T> {
    /// The measurement or library.
    pub value: T,
    /// Which ladder rung produced it.
    pub source: MeasureSource,
}

impl<T> Guarded<T> {
    /// True when the value did not come from the nominal first
    /// attempt (retried or fallback).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.source != MeasureSource::Transient
    }
}

/// Budget/retry policy for [`measure_resilient`].
#[derive(Debug, Clone, Default)]
pub struct GuardPolicy {
    /// Wall-clock budget per attempt (`None` = no deadline). Retry
    /// `k` gets `(k + 1) ×` this budget — later rungs are both
    /// cheaper (relaxed bounds) and given more room.
    pub attempt_timeout: Option<Duration>,
    /// How many relaxed retries before degrading to the reference
    /// measurements.
    pub retries: u32,
    /// Optional cooperative cancel shared with the caller's sweep.
    pub cancel: Option<CancelToken>,
}

impl GuardPolicy {
    /// Policy from the environment: `SUPERNPU_DEADLINE_MS` (per
    /// attempt) and `SUPERNPU_RETRIES`.
    #[must_use]
    pub fn from_env() -> Self {
        GuardPolicy {
            attempt_timeout: sfq_guard::deadline_ms_env().map(Duration::from_millis),
            retries: sfq_guard::retries_env(),
            cancel: None,
        }
    }

    /// Builder: attach a cancel token.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    fn attempt_budget(&self, attempt: u32, cancel: Option<&CancelToken>) -> RunBudget {
        let mut b = RunBudget::unlimited();
        if let Some(t) = self.attempt_timeout {
            b = b.with_deadline(t.saturating_mul(attempt + 1));
        }
        if let Some(c) = cancel {
            b = b.with_cancel(c.clone());
        }
        b
    }
}

/// Reference measurements derived from the shipped
/// [`CellLibrary::aist_10um`] rows by inverting [`library_from`]'s
/// energy corrections and shift-register window formula — the bottom
/// rung of the degradation ladder. `library_from(&reference_measurements())`
/// reproduces the reference library's measured rows, so a degraded
/// design point is evaluated closed-form on the shipped library
/// instead of being dropped.
#[must_use]
pub fn reference_measurements() -> Measurements {
    let reference = CellLibrary::aist_10um();
    let jtl = reference.gate(GateKind::Jtl);
    let split = reference.gate(GateKind::Splitter);
    let dff = reference.gate(GateKind::Dff);
    let and = reference.gate(GateKind::And);
    let jtl_delay_ps = jtl.delay_ps;
    let dff_delay_ps = dff.delay_ps;
    // Invert the SR window relation used by `library_from`:
    // window = 1000/sr_max − dff_delay − jtl_delay/2.
    let sr_cct_ps = dff.setup_ps + dff.hold_ps + dff_delay_ps + 0.5 * jtl_delay_ps;
    Measurements {
        jtl_delay_ps,
        jtl_energy_aj: (jtl.energy_aj / 2.0 - bias_recharge_aj(0.7e-4)).max(0.01),
        splitter_delay_ps: split.delay_ps,
        dff_delay_ps,
        dff_energy_aj: (2.0 * dff.energy_aj - bias_recharge_aj(1.0e-4)).max(0.01),
        and_delay_ps: and.delay_ps,
        and_energy_aj: (and.energy_aj - bias_recharge_aj(1.5e-4)).max(0.01),
        sr_max_ghz: 1000.0 / sr_cct_ps,
    }
}

/// Budget-aware [`measure_with`]: the degradation ladder.
///
/// 1. **Transient** — nominal measurement under the policy's
///    per-attempt deadline.
/// 2. **Relaxed retries** — on a budget stop or convergence failure,
///    retry under exponential backoff with the ambient relaxation
///    level raised (the solver tightens `dt_min` and loosens
///    `lte_tol` by 4^attempt; results cache under their own
///    relax-fingerprinted keys, so nominal cache entries stay pure).
/// 3. **Fallback** — after the last retry, substitute
///    [`reference_measurements`] and label the point
///    [`MeasureSource::Fallback`] rather than losing it.
///
/// Cache consistency under interruption is structural: every memo
/// inserts only *complete* entries after a successful solve, so a
/// deadline or cancellation mid-measure leaves the caches exactly as
/// they were before the failed attempt.
///
/// # Errors
///
/// [`SimError::Cancelled`] propagates (the caller asked everything to
/// stop — no retry, no fallback), as do structural errors
/// ([`SimError::InvalidParameter`] and friends) that no retry can fix.
pub fn measure_resilient(
    jtl_p: &JtlParams,
    dff_p: &DffParams,
    and_p: &AndParams,
    policy: &GuardPolicy,
) -> Result<Guarded<Measurements>, SimError> {
    // Inherit the sweep's cancel token when the policy has none: the
    // attempt scope shadows any ambient budget, and a cancelled sweep
    // must still cancel the measurement inside.
    let ambient_cancel = sfq_guard::active().and_then(|b| b.cancel_token().cloned());
    let cancel = policy.cancel.clone().or(ambient_cancel);
    for attempt in 0..=policy.retries {
        if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(SimError::Cancelled { time: 0.0 });
        }
        let budget = policy.attempt_budget(attempt, cancel.as_ref());
        let result = sfq_guard::scope(&budget, || {
            sfq_guard::with_relax(attempt, || measure_with(jtl_p, dff_p, and_p))
        });
        match result {
            Ok(m) => {
                let source = if attempt == 0 {
                    MeasureSource::Transient
                } else {
                    sfq_obs::inc("guard.measure.retried");
                    MeasureSource::Retried(attempt)
                };
                return Ok(Guarded { value: m, source });
            }
            Err(e) if e.is_cancelled() => return Err(e),
            Err(e)
                if e.is_budget()
                    || matches!(
                        e,
                        SimError::NoConvergence { .. }
                            | SimError::SingularMatrix { .. }
                            | SimError::NonConvergent { .. }
                    ) =>
            {
                if attempt < policy.retries {
                    sfq_guard::sleep_backoff(attempt + 1);
                }
            }
            Err(e) => return Err(e),
        }
    }
    sfq_obs::inc("guard.measure.degraded");
    Ok(Guarded {
        value: reference_measurements(),
        source: MeasureSource::Fallback,
    })
}

/// [`characterize_with`] through the [`measure_resilient`] ladder: a
/// library is always produced (degraded to the reference rows at
/// worst) unless the run is cancelled or structurally invalid.
///
/// # Errors
///
/// Same as [`measure_resilient`].
pub fn characterize_resilient(
    jtl_p: &JtlParams,
    dff_p: &DffParams,
    and_p: &AndParams,
    policy: &GuardPolicy,
) -> Result<Guarded<CellLibrary>, SimError> {
    let m = measure_resilient(jtl_p, dff_p, and_p, policy)?;
    Ok(Guarded {
        value: library_from(&m.value),
        source: m.source,
    })
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
