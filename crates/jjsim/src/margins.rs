//! Operating-margin analysis.
//!
//! Standard SFQ design methodology (and the workflow behind cell
//! libraries like the paper's): sweep one parameter of a circuit up
//! and down from its nominal value until functionality breaks, and
//! report the working interval as a ± percentage. Cells with margins
//! below ±20–30% are considered fragile and get redesigned.
//!
//! The cell searches below solve every probe through the
//! [`crate::extract`] transient memo, keyed on the exact circuit and
//! horizon, so repeating a search runs no transient.

use crate::extract::run;
use crate::SimError;

/// The measured operating interval of one parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Margin {
    /// Nominal parameter value (in whatever unit the circuit uses).
    pub nominal: f64,
    /// Smallest working value found.
    pub low: f64,
    /// Largest working value found.
    pub high: f64,
}

impl Margin {
    /// Lower margin as a negative fraction of nominal (e.g. −0.35).
    pub fn low_fraction(&self) -> f64 {
        self.low / self.nominal - 1.0
    }

    /// Upper margin as a positive fraction of nominal (e.g. +0.25).
    pub fn high_fraction(&self) -> f64 {
        self.high / self.nominal - 1.0
    }

    /// The smaller of the two margins' magnitudes — the figure of
    /// merit quoted for a cell.
    pub fn critical_fraction(&self) -> f64 {
        self.low_fraction().abs().min(self.high_fraction())
    }
}

/// Find the operating margin of a parameter by bisection.
///
/// `works(value)` must run the circuit at the given parameter value
/// and report functional correctness. The search explores
/// `[nominal × (1 − span), nominal × (1 + span)]` and bisects each
/// side `iters` times.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] when `nominal`, `span` or
/// `iters` are degenerate, [`SimError::NonConvergent`] when the
/// circuit fails *at nominal* (no margin to measure), and propagates
/// any error of a trial run itself.
pub fn find_margin<F>(nominal: f64, span: f64, iters: u32, mut works: F) -> Result<Margin, SimError>
where
    F: FnMut(f64) -> Result<bool, SimError>,
{
    if !(nominal.is_finite() && nominal > 0.0) {
        return Err(SimError::InvalidParameter {
            element: "margin",
            field: "nominal",
            value: nominal,
        });
    }
    if !(span > 0.0 && span < 1.0) {
        return Err(SimError::InvalidParameter {
            element: "margin",
            field: "span",
            value: span,
        });
    }
    if iters == 0 {
        return Err(SimError::InvalidParameter {
            element: "margin",
            field: "iters",
            value: 0.0,
        });
    }

    if !works(nominal)? {
        return Err(SimError::NonConvergent {
            what: "margin probe fails at its nominal point",
        });
    }

    let mut bisect = |mut good: f64, mut bad: f64| -> Result<f64, SimError> {
        if works(bad)? {
            return Ok(bad); // margin extends past the search span
        }
        for _ in 0..iters {
            let mid = 0.5 * (good + bad);
            if works(mid)? {
                good = mid;
            } else {
                bad = mid;
            }
        }
        Ok(good)
    };

    let low = bisect(nominal, nominal * (1.0 - span))?;
    let high = bisect(nominal, nominal * (1.0 + span))?;
    Ok(Margin { nominal, low, high })
}

/// Bias-current margin of the default JTL cell: the interval of bias
/// fractions over which a single pulse still propagates one-for-one.
///
/// # Errors
///
/// Propagates transient-solver failures.
pub fn jtl_bias_margin() -> Result<Margin, SimError> {
    use crate::stdlib::{jtl_chain, JtlParams};
    find_margin(0.72, 0.5, 6, |bias| {
        let p = JtlParams {
            bias_frac: bias,
            ..Default::default()
        };
        let (ckt, stages) = jtl_chain(4, &p);
        let out = run(ckt, 200e-12)?;
        Ok(stages.iter().all(|j| out.pulse_count(*j) == 1))
    })
}

/// Readout-bias margin of the default DFF cell: store-then-release
/// must work and a clock without data must stay silent.
///
/// # Errors
///
/// Propagates transient-solver failures.
pub fn dff_bias_margin() -> Result<Margin, SimError> {
    use crate::stdlib::{dff, DffParams};
    find_margin(0.5e-4, 0.6, 6, |bias| {
        let p = DffParams {
            bias_out: bias,
            ..Default::default()
        };
        let (ckt, probes) = dff(&[60e-12], &[100e-12], &p);
        let out = run(ckt, 160e-12)?;
        let stores = out.pulse_count(probes.input) == 1 && out.pulse_count(probes.output) == 1;
        let (ckt, probes) = dff(&[], &[100e-12], &p);
        let out = run(ckt, 160e-12)?;
        let quiet = out.pulse_count(probes.output) == 0;
        Ok(stores && quiet)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_margin_bisection() {
        // works iff value in [0.8, 1.3].
        let m = find_margin(1.0, 0.5, 12, |v| Ok((0.8..=1.3).contains(&v))).unwrap();
        assert!((m.low - 0.8).abs() < 0.01, "low {}", m.low);
        assert!((m.high - 1.3).abs() < 0.01, "high {}", m.high);
        assert!((m.low_fraction() + 0.2).abs() < 0.02);
        assert!((m.high_fraction() - 0.3).abs() < 0.02);
        assert!((m.critical_fraction() - 0.2).abs() < 0.02);
    }

    #[test]
    fn margin_clamps_to_span() {
        // Always works: the margin reports the search bounds.
        let m = find_margin(1.0, 0.4, 6, |_| Ok(true)).unwrap();
        assert!((m.low - 0.6).abs() < 1e-9);
        assert!((m.high - 1.4).abs() < 1e-9);
    }

    #[test]
    fn failing_at_nominal_is_an_error() {
        assert_eq!(
            find_margin(1.0, 0.4, 6, |_| Ok(false)).unwrap_err(),
            SimError::NonConvergent {
                what: "margin probe fails at its nominal point"
            }
        );
    }

    #[test]
    fn degenerate_arguments_are_typed_errors_not_panics() {
        for (nominal, span, iters) in [
            (0.0, 0.4, 6),
            (-1.0, 0.4, 6),
            (f64::NAN, 0.4, 6),
            (1.0, 0.0, 6),
            (1.0, 1.0, 6),
            (1.0, 0.4, 0),
        ] {
            let e = find_margin(nominal, span, iters, |_| Ok(true)).unwrap_err();
            assert!(
                matches!(
                    e,
                    SimError::InvalidParameter {
                        element: "margin",
                        ..
                    }
                ),
                "{e}"
            );
        }
    }

    #[test]
    fn jtl_has_double_digit_margins() {
        let m = jtl_bias_margin().expect("transient converges");
        // Measured earlier: the cell works from ~0.63·Ic upward.
        assert!(
            m.critical_fraction() > 0.1,
            "JTL critical margin {:.0}%",
            100.0 * m.critical_fraction()
        );
        // The scalar bisection's exact result.
        assert_eq!(
            (m.low.to_bits(), m.high.to_bits()),
            (0x3fe4_28f5_c28f_5c29, 0x3fef_8000_0000_0000)
        );
    }

    #[test]
    fn repeated_margin_search_is_memoized() {
        let m1 = jtl_bias_margin().expect("transient converges");
        let runs = crate::transient_runs();
        let m2 = jtl_bias_margin().expect("transient converges");
        assert_eq!(m1, m2);
        assert_eq!(
            crate::transient_runs(),
            runs,
            "a repeated margin search must be served from the transient memo"
        );
    }

    #[test]
    fn dff_readout_bias_has_margin() {
        let m = dff_bias_margin().expect("transient converges");
        assert!(
            m.critical_fraction() > 0.1,
            "DFF critical margin {:.0}%",
            100.0 * m.critical_fraction()
        );
        assert!(m.low < m.nominal && m.nominal < m.high);
        // The scalar bisection's exact result: both ends of the ±60%
        // search span work.
        assert_eq!(
            (m.low.to_bits(), m.high.to_bits()),
            (0x3ef4_f8b5_88e3_68f1, 0x3f14_f8b5_88e3_68f1)
        );
    }
}
