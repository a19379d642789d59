//! # xtalk — crosstalk-aware static timing analysis
//!
//! A from-scratch reproduction of M. Ringe, T. Lindenkreuz and E. Barke,
//! *"Static Timing Analysis Taking Crosstalk into Account"* (DATE 2000):
//! a waveform-based, transistor-level static timing analyzer for
//! synchronous circuits that bounds the delay impact of capacitive
//! coupling, together with every substrate the paper's flow needs —
//! device models, a cell library, netlist formats, placement/routing/
//! extraction, and a transistor-level transient simulator for validation.
//!
//! This crate is the facade: it re-exports the sub-crates under one roof.
//!
//! | Module | Sub-crate | Contents |
//! |--------|-----------|----------|
//! | [`tech`] | `xtalk-tech` | process, table-based MOSFET models, cell library |
//! | [`netlist`] | `xtalk-netlist` | netlists, `.bench`/Verilog I/O, circuit generator |
//! | [`layout`] | `xtalk-layout` | place, route, extract, SPEF |
//! | [`wave`] | `xtalk-wave` | waveforms, stage solver, coupling model |
//! | [`sim`] | `xtalk-sim` | logic sim, transient sim, aggressor alignment |
//! | [`sta`] | `xtalk-sta` | the crosstalk-aware timing analyzer |
//!
//! # Quickstart
//!
//! ```
//! use xtalk::prelude::*;
//!
//! // Technology and library.
//! let process = Process::c05um();
//! let library = Library::c05um(&process);
//!
//! // A circuit: parse ISCAS-style .bench text.
//! let netlist = xtalk::netlist::bench::parse(xtalk::netlist::data::S27_BENCH, &library)?;
//!
//! // Physical design: place, route, extract coupling parasitics.
//! let placement = xtalk::layout::place::place(&netlist, &library, &process);
//! let routes = xtalk::layout::route::route(&netlist, &placement, &process);
//! let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
//!
//! // Crosstalk-aware timing.
//! let sta = Sta::new(&netlist, &library, &process, &parasitics)?;
//! let report = sta.analyze(AnalysisMode::Iterative { esperance: false })?;
//! println!("longest path: {:.3} ns", report.longest_delay * 1e9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod exec;

pub use xtalk_layout as layout;
pub use xtalk_netlist as netlist;
pub use xtalk_sim as sim;
pub use xtalk_sta as sta;
pub use xtalk_tech as tech;
pub use xtalk_wave as wave;

/// The most common imports in one place.
pub mod prelude {
    pub use xtalk_netlist::{GeneratorConfig, Netlist};
    pub use xtalk_sta::{
        AnalysisMode, Diagnostic, Edit, ExecConfig, FaultClass, IncrementalSta, ModeReport,
        ScenarioMatrix, ScenarioReport, Severity, Sta,
    };
    pub use xtalk_tech::{Corner, Library, Process};
    pub use xtalk_wave::{CouplingMode, Waveform};
}
