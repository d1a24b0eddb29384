//! # jjsim
//!
//! A transient circuit simulator for superconducting single-flux-
//! quantum (SFQ) logic — this workspace's stand-in for JSIM, the
//! Josephson integrated-circuit simulator the SuperNPU paper uses to
//! characterize its cell library (§IV-A.1) and to compare network and
//! clocking alternatives (Figs. 5 and 7).
//!
//! Josephson junctions follow the resistively-and-capacitively-shunted
//! junction (RCSJ) model:
//!
//! ```text
//! i = I_c·sin(φ) + v/R + C·dv/dt,     dφ/dt = 2π·v/Φ₀
//! ```
//!
//! The solver performs modified nodal analysis with trapezoidal
//! integration and Newton iteration per timestep; inductors and
//! capacitors use standard companion models, so the whole system stays
//! a node-voltage problem. Cell-scale circuits are solved by dense
//! Gaussian elimination with partial pivoting; chains of more than 24
//! unknowns with a narrow band (JTLs, shift registers) by an LU on
//! packed band storage that is reused across Newton iterations while
//! the junction linearization holds still. One step loop serves both
//! [`Solver`] (one circuit) and [`BatchedTransient`] (up to [`LANES`]
//! perturbed copies of one netlist, advanced in SIMD lanes).
//!
//! An SFQ pulse is a 2π phase slip of a junction; [`SimResult`]
//! exposes per-junction phase-slip (pulse) times, which is how delays
//! and clock-rate limits are extracted.
//!
//! # Example: pulse propagation down a JTL
//!
//! ```
//! use jjsim::stdlib::{jtl_chain, JtlParams};
//! use jjsim::{Solver, SimOptions};
//!
//! let (circuit, probes) = jtl_chain(8, &JtlParams::default());
//! let result = Solver::new(circuit, SimOptions::default())
//!     .expect("valid circuit")
//!     .run(200e-12);
//! // The input pulse reaches the far end of the line:
//! assert_eq!(result.pulse_times(*probes.last().unwrap()).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod circuit;
mod engine;
mod error;
pub mod extract;
mod linalg;
pub mod margins;
pub mod netlist;
mod solver;
pub mod stdlib;
mod waveform;

pub use batch::{batch_width, set_batch_width, BatchedTransient, LANES};
pub use circuit::{Circuit, ElementId, JjParams, NodeId};
pub use error::SimError;
pub use netlist::{parse_netlist, NetlistError, ParsedNetlist};
pub use solver::{transient_runs, SimOptions, SimResult, Solver, StepControl};
pub use waveform::Waveform;

/// Magnetic flux quantum Φ₀ in webers.
pub const PHI0: f64 = 2.067_833_848e-15;
