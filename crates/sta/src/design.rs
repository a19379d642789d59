//! Reading a design from files: the netlist-and-parasitics loader that the
//! batch CLI and the serve daemon share.

use std::fmt;
use std::path::Path;

use xtalk_layout::Parasitics;
use xtalk_netlist::Netlist;
use xtalk_tech::{Library, Process};

/// A design file that could not be loaded.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the file at this path failed.
    Io(String, std::io::Error),
    /// A file holds no usable design: an unsupported netlist extension, a
    /// parse error, or a netlist that does not validate.
    Invalid(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(path, error) => write!(f, "{path}: {error}"),
            LoadError::Invalid(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for LoadError {}

fn read(path: &str) -> Result<String, LoadError> {
    std::fs::read_to_string(path).map_err(|e| LoadError::Io(path.to_string(), e))
}

fn invalid(path: &str, e: impl fmt::Display) -> LoadError {
    LoadError::Invalid(format!("{path}: {e}"))
}

/// Reads and parses a netlist by its extension, `.bench` or `.v`.
///
/// # Errors
///
/// [`LoadError`] when the file cannot be read, has another extension, or
/// does not parse.
pub fn read_netlist(path: &str, library: &Library) -> Result<Netlist, LoadError> {
    let text = read(path)?;
    match Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
    {
        "bench" => xtalk_netlist::bench::parse(&text, library).map_err(|e| invalid(path, e)),
        "v" => xtalk_netlist::verilog::parse(&text, library).map_err(|e| invalid(path, e)),
        other => Err(LoadError::Invalid(format!(
            "unsupported netlist extension `.{other}` (use .bench or .v)"
        ))),
    }
}

/// Reads and validates a netlist and derives its parasitics: from the SPEF
/// file when one is given, else by placing, routing and extracting it.
///
/// # Errors
///
/// [`LoadError`] when a file cannot be read or parsed, or the netlist does
/// not validate.
pub fn load_design(
    netlist_path: &str,
    spef_path: Option<&str>,
    process: &Process,
    library: &Library,
) -> Result<(Netlist, Parasitics), LoadError> {
    let netlist = read_netlist(netlist_path, library)?;
    netlist
        .validate(library)
        .map_err(|e| invalid(netlist_path, e))?;
    let extracted = || {
        let placement = xtalk_layout::place::place(&netlist, library, process);
        let routes = xtalk_layout::route::route(&netlist, &placement, process);
        xtalk_layout::extract::extract(&netlist, &routes, process)
    };
    let parasitics = match spef_path {
        None => extracted(),
        Some(spef_path) => {
            let mut parasitics = xtalk_layout::spef::parse(&read(spef_path)?, &netlist)
                .map_err(|e| invalid(spef_path, e))?;
            // SPEF carries no per-sink resistances; recover them from a
            // fresh routing of the same netlist.
            for (a, b) in parasitics.nets.iter_mut().zip(extracted().nets) {
                a.sinks = b.sinks;
            }
            parasitics
        }
    };
    Ok((netlist, parasitics))
}
