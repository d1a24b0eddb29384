//! # sfq-estimator
//!
//! The architecture-modeling half of the SuperNPU framework: given a
//! characterized cell library ([`sfq_cells::CellLibrary`]) and an NPU
//! configuration, estimate clock frequency, static power, per-access
//! switching energy and chip area at three abstraction levels, exactly
//! as the paper's *SFQ-NPU estimator* does (§IV-A):
//!
//! 1. **gate level** — per-cell timing/power/area from the library,
//! 2. **microarchitecture level** — structure models of the PE, the
//!    on-chip network unit, the data-alignment unit (DAU) and the
//!    shift-register buffers produce gate counts and intra-unit gate
//!    pairs; the pair with the slowest clock-cycle time
//!    `CCT = SetupTime + max(HoldTime, δt)` (paper Eq. 1) sets the
//!    unit frequency,
//! 3. **architecture level** — unit counts plus inter-unit pairs give
//!    the NPU frequency, power and area ([`NpuEstimate`]).
//!
//! The crate also carries the paper's two design studies that sit at
//! this level: the on-chip network comparison of Fig. 5
//! ([`netdesign`]) and the feedback/clocking frequency comparison of
//! Fig. 7(c) ([`clocking::feedback_comparison`]).
//!
//! # Example
//!
//! ```
//! use sfq_cells::CellLibrary;
//! use sfq_estimator::{NpuConfig, estimate};
//!
//! let lib = CellLibrary::aist_10um();
//! let est = estimate(&NpuConfig::paper_baseline(), &lib);
//! // The paper's Table I reports 52.6 GHz for this configuration.
//! assert!(est.frequency_ghz > 45.0 && est.frequency_ghz < 60.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clocking;
pub mod clocktree;
pub mod floorplan;
pub mod netdesign;
mod npu;
mod structure;
pub mod units;

pub use npu::{
    clear_estimate_cache, estimate, estimate_uncached, NpuConfig, NpuEstimate, UnitBreakdown,
};
pub use structure::{GateCounts, GatePair, UnitModel};
