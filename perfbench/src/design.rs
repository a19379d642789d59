//! Loading a design from disk the way every workload's setup does, with a
//! span around each layer call.

use std::path::Path;

use xtalk::layout::{extract, place, route, Parasitics};
use xtalk::netlist::{bench, Netlist};
use xtalk::sta::report::ModeReport;
use xtalk::tech::{Library, Process};

use crate::trace::Tracer;

/// The two fixed designs the workloads time.
pub const CHIP_BENCH: &str = "chip.bench";
pub const MEDIUM_BENCH: &str = "medium.bench";

/// Generator seed of the medium block (the repository's bench fixture).
pub const MEDIUM_SEED: u64 = 4242;

pub struct Tech {
    pub process: Process,
    pub library: Library,
}

impl Tech {
    pub fn new() -> Tech {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        Tech { process, library }
    }
}

pub struct Loaded {
    pub netlist: Netlist,
    pub parasitics: Parasitics,
    pub wirelength: f64,
}

/// Reads and parses a `.bench` file, then places, routes and extracts it:
/// the path from inputs on disk to a timeable design.
pub fn load(path: &Path, tech: &Tech, tr: &Tracer) -> Result<Loaded, String> {
    let netlist = tr.span("netlist", "bench::parse", || {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let netlist =
            bench::parse(&text, &tech.library).map_err(|e| format!("{}: {e}", path.display()))?;
        netlist
            .validate(&tech.library)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok::<_, String>(netlist)
    })?;
    let placement = tr.span("layout", "place", || {
        place::place(&netlist, &tech.library, &tech.process)
    });
    let routes = tr.span("layout", "route", || {
        route::route(&netlist, &placement, &tech.process)
    });
    let parasitics = tr.span("layout", "extract", || {
        extract::extract(&netlist, &routes, &tech.process)
    });
    Ok(Loaded {
        wirelength: routes.total_wirelength(),
        netlist,
        parasitics,
    })
}

/// Bit-exact comparison of two reports' endpoint arrivals and longest
/// delay; the first difference found, if any.
pub fn bits_differ(a: &ModeReport, b: &ModeReport) -> Option<String> {
    if a.longest_delay.to_bits() != b.longest_delay.to_bits() {
        return Some(format!(
            "longest delay {:.6} ns != {:.6} ns",
            a.longest_delay * 1e9,
            b.longest_delay * 1e9
        ));
    }
    if a.endpoints.len() != b.endpoints.len() {
        return Some(format!(
            "{} endpoints != {}",
            a.endpoints.len(),
            b.endpoints.len()
        ));
    }
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    a.endpoints
        .iter()
        .zip(&b.endpoints)
        .find(|(x, y)| {
            x.net != y.net || bits(x.rise) != bits(y.rise) || bits(x.fall) != bits(y.fall)
        })
        .map(|(x, _)| format!("endpoint net #{} differs", x.net.index()))
}
