//! # supernpu
//!
//! A complete reproduction of *SuperNPU: An Extremely Fast Neural
//! Processing Unit Using Superconducting Logic Devices* (MICRO 2020):
//! the SFQ-NPU modeling framework, the cycle simulator, the CMOS TPU
//! comparator, and every experiment in the paper's analysis and
//! evaluation sections.
//!
//! The heavy lifting lives in the substrate crates; this crate is the
//! public face:
//!
//! * [`designs`] — the named design points of Table I (TPU, Baseline,
//!   Buffer opt., Resource opt., SuperNPU),
//! * [`evaluator`] — one function per paper table/figure, each
//!   returning typed rows ready for printing or plotting,
//! * [`explore`] — the design-space sweeps behind Figs. 20–22
//!   (buffer division, resource balancing, per-PE registers),
//! * [`ablations`] — architecture-level quantification of the §III
//!   design choices (dataflow, network, DAU, clocking),
//! * [`sensitivity`] — bandwidth / process-scaling / cooling-
//!   temperature what-ifs grounded in the paper's discussion,
//! * [`report`] — plain-text table rendering used by the `bench`
//!   binaries.
//!
//! The argument-free result functions that run the cycle simulator
//! (Figs. 15, 17, 20–23, Table III and the ablations) are computed once
//! per process and then served from a memo; [`clear_result_cache`]
//! empties it.
//!
//! # Quickstart
//!
//! ```
//! use supernpu::designs::DesignPoint;
//! use supernpu::evaluator;
//!
//! // How much faster is SuperNPU than the TPU core on ResNet-50?
//! let rows = evaluator::fig23_performance();
//! let resnet = rows.iter().find(|r| r.network == "ResNet50").unwrap();
//! let speedup = resnet.speedup(DesignPoint::SuperNpu);
//! assert!(speedup > 10.0, "SuperNPU speedup {speedup:.1}x");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod designs;
pub mod evaluator;
pub mod explore;
pub mod export;
pub mod latency;
pub mod pareto;
pub mod report;
pub mod resilient;
mod results;
pub mod sensitivity;
pub mod summary;

pub use designs::DesignPoint;
pub use results::clear_result_cache;
