//! Source waveforms.

use serde::{Deserialize, Serialize};

/// A time-dependent current waveform for sources, in amperes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Waveform {
    /// Constant (bias) current.
    Dc(f64),
    /// A single Gaussian pulse centered at `t0` with standard
    /// deviation `sigma` and peak `amplitude` — the standard way this
    /// crate injects an SFQ trigger.
    Gaussian {
        /// Center time in seconds.
        t0: f64,
        /// Standard deviation in seconds.
        sigma: f64,
        /// Peak current in amperes.
        amplitude: f64,
    },
    /// A train of Gaussian pulses (e.g., a clock).
    Train {
        /// Pulse center times in seconds.
        times: Vec<f64>,
        /// Standard deviation in seconds.
        sigma: f64,
        /// Peak current in amperes.
        amplitude: f64,
    },
    /// A linear ramp from zero at `t0` to `amplitude` at `t0 + rise`,
    /// then constant (used for soft-starting bias currents).
    Ramp {
        /// Start time in seconds.
        t0: f64,
        /// Rise duration in seconds.
        rise: f64,
        /// Final current in amperes.
        amplitude: f64,
    },
}

impl Waveform {
    /// Evaluate the waveform at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(a) => *a,
            Waveform::Gaussian {
                t0,
                sigma,
                amplitude,
            } => gaussian(t, *t0, *sigma) * amplitude,
            Waveform::Train {
                times,
                sigma,
                amplitude,
            } => {
                let mut sum = 0.0;
                for &t0 in times {
                    // Only nearby pulses contribute meaningfully.
                    if (t - t0).abs() < 8.0 * sigma {
                        sum += gaussian(t, t0, *sigma);
                    }
                }
                sum * amplitude
            }
            Waveform::Ramp {
                t0,
                rise,
                amplitude,
            } => {
                if t <= *t0 {
                    0.0
                } else if t >= t0 + rise {
                    *amplitude
                } else {
                    amplitude * (t - t0) / rise
                }
            }
        }
    }

    /// Time intervals in which an adaptive-step solver must refine,
    /// as `(start, end, dt_cap)` tuples: while `start ≤ t < end` the
    /// step must not exceed `dt_cap`, and a quiescent step must not
    /// jump across `start`. Gaussian pulses refine over t0 ± 4σ at a
    /// σ/2 cap; ramps refine around both corners (an LTE estimator
    /// based on linear extrapolation cannot see a slope
    /// discontinuity coming). DC sources and zero-amplitude pulses
    /// contribute nothing.
    pub fn refinement_windows(&self) -> Vec<(f64, f64, f64)> {
        match self {
            Waveform::Dc(_) => Vec::new(),
            Waveform::Gaussian {
                t0,
                sigma,
                amplitude,
            } => {
                if *amplitude == 0.0 {
                    Vec::new()
                } else {
                    vec![(t0 - 4.0 * sigma, t0 + 4.0 * sigma, sigma / 2.0)]
                }
            }
            Waveform::Train {
                times,
                sigma,
                amplitude,
            } => {
                if *amplitude == 0.0 {
                    Vec::new()
                } else {
                    times
                        .iter()
                        .map(|t0| (t0 - 4.0 * sigma, t0 + 4.0 * sigma, sigma / 2.0))
                        .collect()
                }
            }
            Waveform::Ramp {
                t0,
                rise,
                amplitude,
            } => {
                if *amplitude == 0.0 {
                    Vec::new()
                } else {
                    let corner = 1.0e-12;
                    vec![
                        (t0 - corner, t0 + corner, 0.5e-12),
                        (t0 + rise - corner, t0 + rise + corner, 0.5e-12),
                    ]
                }
            }
        }
    }

    /// Append a bit-exact fingerprint of the waveform to `fp`: a
    /// variant tag, then every parameter's `f64::to_bits` (a train
    /// leads with its pulse count).
    pub(crate) fn fingerprint_into(&self, fp: &mut Vec<u64>) {
        match self {
            Waveform::Dc(a) => fp.extend([0, a.to_bits()]),
            Waveform::Gaussian {
                t0,
                sigma,
                amplitude,
            } => fp.extend([1, t0.to_bits(), sigma.to_bits(), amplitude.to_bits()]),
            Waveform::Train {
                times,
                sigma,
                amplitude,
            } => {
                fp.extend([2, times.len() as u64, sigma.to_bits(), amplitude.to_bits()]);
                fp.extend(times.iter().map(|t| t.to_bits()));
            }
            Waveform::Ramp {
                t0,
                rise,
                amplitude,
            } => fp.extend([3, t0.to_bits(), rise.to_bits(), amplitude.to_bits()]),
        }
    }

    /// A standard SFQ trigger pulse at `t0`: 1 ps sigma, amplitude in
    /// amperes chosen by the caller (usually ≈0.8·I_c of the target
    /// junction).
    pub fn sfq_pulse(t0: f64, amplitude: f64) -> Self {
        Waveform::Gaussian {
            t0,
            sigma: 1.0e-12,
            amplitude,
        }
    }

    /// A clock train with the given period starting at `t_start`, `n`
    /// pulses, 1 ps sigma.
    pub fn clock(t_start: f64, period: f64, n: usize, amplitude: f64) -> Self {
        Waveform::Train {
            times: (0..n).map(|i| t_start + period * i as f64).collect(),
            sigma: 1.0e-12,
            amplitude,
        }
    }
}

fn gaussian(t: f64, t0: f64, sigma: f64) -> f64 {
    let x = (t - t0) / sigma;
    (-0.5 * x * x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::Dc(1e-4);
        assert_eq!(w.value(0.0), 1e-4);
        assert_eq!(w.value(1.0), 1e-4);
    }

    #[test]
    fn gaussian_peaks_at_center() {
        let w = Waveform::sfq_pulse(10e-12, 1e-4);
        assert!((w.value(10e-12) - 1e-4).abs() < 1e-12);
        assert!(w.value(0.0) < 1e-8);
        // symmetric
        assert!((w.value(9e-12) - w.value(11e-12)).abs() < 1e-15);
    }

    #[test]
    fn train_sums_pulses() {
        let w = Waveform::clock(10e-12, 20e-12, 3, 1e-4);
        assert!((w.value(10e-12) - 1e-4).abs() < 1e-9);
        assert!((w.value(30e-12) - 1e-4).abs() < 1e-9);
        assert!((w.value(50e-12) - 1e-4).abs() < 1e-9);
        assert!(w.value(70e-12) < 1e-8);
    }

    #[test]
    fn refinement_windows_cover_events() {
        // Gaussian: one window straddling t0.
        let w = Waveform::sfq_pulse(60e-12, 1e-4);
        let ws = w.refinement_windows();
        assert_eq!(ws.len(), 1);
        let (s, e, cap) = ws[0];
        assert!(s < 60e-12 && e > 60e-12);
        assert!(cap <= 1e-12);
        // Zero amplitude: no windows.
        assert!(Waveform::sfq_pulse(60e-12, 0.0)
            .refinement_windows()
            .is_empty());
        // DC: no windows.
        assert!(Waveform::Dc(1e-4).refinement_windows().is_empty());
        // Train: one per pulse.
        let w = Waveform::clock(10e-12, 20e-12, 3, 1e-4);
        assert_eq!(w.refinement_windows().len(), 3);
        // Ramp: both corners.
        let w = Waveform::Ramp {
            t0: 0.0,
            rise: 20e-12,
            amplitude: 1e-4,
        };
        let ws = w.refinement_windows();
        assert_eq!(ws.len(), 2);
        assert!(ws[0].0 <= 0.0 && ws[0].1 >= 0.0);
        assert!(ws[1].0 <= 20e-12 && ws[1].1 >= 20e-12);
    }

    #[test]
    fn ramp_saturates() {
        let w = Waveform::Ramp {
            t0: 0.0,
            rise: 10e-12,
            amplitude: 2e-4,
        };
        assert_eq!(w.value(-1e-12), 0.0);
        assert!((w.value(5e-12) - 1e-4).abs() < 1e-12);
        assert_eq!(w.value(20e-12), 2e-4);
    }
}
