//! Process technology, device models and a transistor-level cell library.
//!
//! This crate is the foundation of the `xtalk` crosstalk-aware static timing
//! analyzer (a reproduction of Ringe, Lindenkreuz & Barke, *"Static Timing
//! Analysis Taking Crosstalk into Account"*, DATE 2000). It provides:
//!
//! - [`mosfet`]: an analytical alpha-power-law MOSFET DC model with a
//!   sub-threshold region — the "golden" device equations.
//! - [`table`]: the paper's *table-based* device representation
//!   ([`DeviceTable`]), i.e. the analytical model sampled onto a fine
//!   `Ids(Vgs, Vds)` grid with bilinear interpolation, exactly in the spirit
//!   of the TETA engine the paper builds on (§3: "the DC behavior of the
//!   transistors is modeled by tables").
//! - [`process`]: a full process description ([`Process`]) bundling supply,
//!   thresholds, device tables and wire parasitics for a generic 0.5 µm
//!   two-metal technology matching the paper's experimental setup.
//! - [`cell`] and [`library`]: standard cells described as series/parallel
//!   transistor networks ([`cell::Network`]), decomposed into single
//!   complementary-CMOS stages so that the waveform engine can solve each
//!   stage at transistor level.
//!
//! # Example
//!
//! ```
//! use xtalk_tech::process::Process;
//! use xtalk_tech::mosfet::DeviceType;
//!
//! let process = Process::c05um();
//! // Saturation current of a 2 µm wide NMOS at full gate drive:
//! let ids = process.table(DeviceType::Nmos).ids(process.vdd, process.vdd, 2.0e-6);
//! assert!(ids > 1.0e-4, "a 2 um NMOS should source well over 100 uA");
//! let lib = xtalk_tech::library::Library::c05um(&process);
//! assert!(lib.cell("INVX1").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod corner;
pub mod library;
pub mod mosfet;
pub mod process;
pub mod table;

pub use cell::{Cell, Network, Stage};
pub use corner::{Corner, CornerClass};
pub use library::Library;
pub use mosfet::{DeviceType, MosfetParams};
pub use process::Process;
pub use table::DeviceTable;
