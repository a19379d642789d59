//! Crosstalk-aware static timing analysis.
//!
//! The primary contribution of the reproduced paper (Ringe, Lindenkreuz &
//! Barke, DATE 2000): a waveform-based, transistor-level static timing
//! analyzer for synchronous circuits that accounts for the delay impact of
//! capacitive coupling between adjacent wires.
//!
//! The analyzer offers the paper's five analyses ([`AnalysisMode`]):
//!
//! | Mode | Coupling caps | Paper §6 row |
//! |------|---------------|--------------|
//! | [`AnalysisMode::BestCase`] | grounded, face value | "Best case" |
//! | [`AnalysisMode::StaticDoubled`] | grounded, doubled | "Static doubled" |
//! | [`AnalysisMode::WorstCase`] | all active (three-phase model) | "Worst case" |
//! | [`AnalysisMode::OneStep`] | active only if the aggressor can still be busy (§5.1) | "One step" |
//! | [`AnalysisMode::Iterative`] | one-step refined to a fixpoint (§5.2), optionally with the Esperance speed-up | "Iterative" |
//!
//! # Example
//!
//! ```
//! use xtalk_layout::{extract, place, route};
//! use xtalk_netlist::{bench, data};
//! use xtalk_sta::{AnalysisMode, Sta};
//! use xtalk_tech::{Library, Process};
//!
//! let process = Process::c05um();
//! let lib = Library::c05um(&process);
//! let netlist = bench::parse(data::S27_BENCH, &lib)?;
//! let placement = place::place(&netlist, &lib, &process);
//! let routes = route::route(&netlist, &placement, &process);
//! let parasitics = extract::extract(&netlist, &routes, &process);
//!
//! let sta = Sta::new(&netlist, &lib, &process, &parasitics)?;
//! let best = sta.analyze(AnalysisMode::BestCase)?;
//! let worst = sta.analyze(AnalysisMode::WorstCase)?;
//! assert!(best.longest_delay <= worst.longest_delay);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `deny` rather than `forbid`: the persistent worker pool contains the
// crate's single audited `#[allow(unsafe_code)]` (a lifetime erasure with a
// run-to-completion proof — see `exec::pool`); everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod charstore;
pub mod design;
pub mod diag;
pub mod engine;
pub mod exec;
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;
pub mod graph;
pub mod incremental;
pub mod kernel;
pub mod mode;
pub mod noise;
pub mod policy;
pub(crate) mod recordlog;
pub mod report;
pub mod scenario;
pub mod sdf;
pub mod serve;

pub use charstore::{open_shared as open_char_store, CharStore};
pub use diag::{worst_severity, Diagnostic, FaultClass, Severity};
pub use engine::{Sta, StaError};
pub use exec::{CacheStats, ConfigError, ExecConfig};
#[cfg(any(test, feature = "fault-injection"))]
pub use fault::{Fault, FaultPlan, ServeFault, ServeFaultPlan};
pub use incremental::{AnalyzeStats, Checkpoint, Edit, EditError, EditOutcome, IncrementalSta};
pub use mode::AnalysisMode;
pub use noise::{glitch_report, GlitchRecord, GlitchReport};
pub use report::{
    corner_summary_table, fallback_reason_line, scenario_table, service_table, CornerRun,
    EndpointWorst, ModeReport, PassStat, PathStep, ScenarioReport, ServiceCounters, SolveCounters,
};
pub use scenario::ScenarioMatrix;
pub use sdf::{parse_sdf, write_sdf};
