//! The multi-corner scenario engine.
//!
//! A scenario run analyzes one design under a matrix of {PVT corner ×
//! analysis mode} over a single shared `Executor`: the wavefront worker
//! pool, the per-stage memo and the keyed stage-solve cache persist across
//! corners instead of being rebuilt per corner. Sharing is safe because
//! every reuse-layer identity carries the corner's signature
//! ([`xtalk_tech::Process::corner_sig`]) — a cached entry can only ever be
//! served back to the corner that produced it, so each corner's reports
//! are bit-identical to a standalone single-corner run (DESIGN.md D14).
//! A corner inside the matrix runs exactly as it would standalone; the
//! only thing it gains from the matrix is the already-built executor.

use xtalk_layout::Parasitics;
use xtalk_netlist::Netlist;
use xtalk_tech::{Corner, Library, Process};

use crate::engine::StaError;
use crate::exec::{ExecConfig, Executor};
use crate::graph::TimingGraph;
use crate::kernel::PropagationCore;
use crate::mode::AnalysisMode;
use crate::report::{CornerRun, EndpointWorst, ScenarioReport};

/// Drives one design through a matrix of PVT corners over a shared
/// executor. See the module docs for the sharing invariant.
pub struct ScenarioMatrix<'a> {
    netlist: &'a Netlist,
    library: &'a Library,
    base: &'a Process,
    parasitics: &'a Parasitics,
    corners: Vec<Corner>,
    exec: Executor,
}

impl<'a> ScenarioMatrix<'a> {
    /// Builds the scenario driver. `corners` come from the configuration
    /// ([`ExecConfig::corners`], `--corners`, `XTALK_CORNERS`) or
    /// [`Corner::default_matrix`]; the executor (pool, memo, cache) is
    /// built once here and shared by every corner.
    ///
    /// # Errors
    ///
    /// [`StaError::NoArrivals`] is never produced here; construction only
    /// fails with [`StaError::Netlist`] if the netlist cannot expand —
    /// checked per corner at [`run`](Self::run) time, since the timing
    /// graph is rebuilt against each corner's derived process.
    pub fn new(
        netlist: &'a Netlist,
        library: &'a Library,
        base: &'a Process,
        parasitics: &'a Parasitics,
        corners: Vec<Corner>,
        config: ExecConfig,
    ) -> Result<Self, StaError> {
        let corners = if corners.is_empty() {
            Corner::default_matrix()
        } else {
            corners
        };
        Ok(ScenarioMatrix {
            netlist,
            library,
            base,
            parasitics,
            corners,
            exec: Executor::new(config),
        })
    }

    /// The corner matrix this scenario runs, in run order.
    #[must_use]
    pub fn corners(&self) -> &[Corner] {
        &self.corners
    }

    /// Characterizes every corner's macromodel tables up front (each
    /// corner's [`Process::corner`] derivation is keyed separately), so a
    /// following [`ScenarioMatrix::run`] pays zero characterization.
    /// `run` performs the same per-corner prewarm itself; this method
    /// only exists to let callers measure or schedule the
    /// characterization phase apart from the solve phase. Results are
    /// identical either way.
    pub fn prewarm(&self) {
        for corner in &self.corners {
            let process = self.base.corner(corner);
            self.exec.prewarm_tables(&process, self.library);
        }
    }

    /// Runs every corner through every requested analysis mode and
    /// assembles the cross-corner report. `modes` must be non-empty; the
    /// first mode is the *primary* one the per-endpoint worst table is
    /// built from.
    ///
    /// Corners run in matrix order; each corner derives its own scaled
    /// process ([`Process::corner`]), rebuilds the timing graph against it
    /// (side voltages scale with the corner's Vdd), characterizes its own
    /// macromodel tables (corner-keyed, never cross-served), and reuses
    /// the shared executor.
    ///
    /// # Errors
    ///
    /// See [`StaError`]; the first failing corner/mode aborts the run.
    pub fn run(&self, modes: &[AnalysisMode]) -> Result<ScenarioReport, StaError> {
        assert!(!modes.is_empty(), "a scenario needs at least one mode");
        let mut corners_out: Vec<CornerRun> = Vec::with_capacity(self.corners.len());
        for corner in &self.corners {
            let process = self.base.corner(corner);
            let graph = TimingGraph::build(self.netlist, self.library, &process, self.parasitics)?;
            // Corner-keyed characterization through the shared executor:
            // the on-disk store replays once per corner (later corners and
            // later runs find their tables) and the residual sweep runs on
            // the worker pool.
            self.exec.prewarm_tables(&process, self.library);
            let core = PropagationCore {
                netlist: self.netlist,
                library: self.library,
                process: &process,
                parasitics: self.parasitics,
                graph: &graph,
                exec: &self.exec,
            };
            let mut reports = Vec::with_capacity(modes.len());
            for &mode in modes {
                reports.push(core.analyze(mode)?);
            }
            corners_out.push(CornerRun {
                corner: corner.name.clone(),
                reports,
            });
        }

        let corner_iters = corners_out
            .iter()
            .map(|run| run.reports.iter().map(|r| r.newton_iters).sum())
            .collect();
        let worst_endpoints = cross_corner_worst(&corners_out, modes[0]);
        Ok(ScenarioReport {
            corners: corners_out,
            worst_endpoints,
            corner_iters,
        })
    }
}

/// Builds the per-endpoint cross-corner worst table from the primary
/// mode's reports: the latest arrival across corners (earliest for
/// min-delay), worst first.
fn cross_corner_worst(corners: &[CornerRun], primary: AnalysisMode) -> Vec<EndpointWorst> {
    let min_mode = primary == AnalysisMode::MinDelay;
    let Some(first) = corners.first() else {
        return Vec::new();
    };
    let template = &first.reports[0].endpoints;
    let mut rows: Vec<EndpointWorst> = Vec::with_capacity(template.len());
    for (ei, e) in template.iter().enumerate() {
        let mut per_corner = Vec::with_capacity(corners.len());
        for run in corners {
            // Same netlist, deterministic graph build: endpoint order is
            // identical across corners. Guard against a shape mismatch
            // anyway rather than misattributing arrivals.
            let arrival = run.reports[0]
                .endpoints
                .get(ei)
                .filter(|c| c.net == e.net)
                .map(|c| if min_mode { c.earliest() } else { c.latest() })
                .unwrap_or(f64::NAN);
            per_corner.push(arrival);
        }
        let mut worst = f64::NAN;
        let mut worst_corner = 0;
        for (ci, &a) in per_corner.iter().enumerate() {
            if a.is_nan() {
                continue;
            }
            let better = worst.is_nan() || if min_mode { a < worst } else { a > worst };
            if better {
                worst = a;
                worst_corner = ci;
            }
        }
        rows.push(EndpointWorst {
            net: e.net,
            worst,
            worst_corner,
            per_corner,
        });
    }
    // Worst first: latest arrivals on top (earliest for min-delay), NaN
    // rows (endpoints that never arrived anywhere) last.
    rows.sort_by(|a, b| match (a.worst.is_nan(), b.worst.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => {
            if min_mode {
                a.worst.total_cmp(&b.worst)
            } else {
                b.worst.total_cmp(&a.worst)
            }
        }
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_layout::{extract, place, route};
    use xtalk_netlist::data;

    struct Fixture {
        process: Process,
        library: Library,
        netlist: Netlist,
        parasitics: Parasitics,
    }

    fn fixture(text: &str) -> Fixture {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = xtalk_netlist::bench::parse(text, &library).expect("parse");
        let placement = place::place(&netlist, &library, &process);
        let routes = route::route(&netlist, &placement, &process);
        let parasitics = extract::extract(&netlist, &routes, &process);
        Fixture {
            process,
            library,
            netlist,
            parasitics,
        }
    }

    fn serial_config() -> ExecConfig {
        ExecConfig {
            threads: 1,
            ..ExecConfig::default()
        }
    }

    #[test]
    fn scenario_matches_standalone_per_corner_bitwise() {
        let f = fixture(data::S27_BENCH);
        let corners = Corner::default_matrix();
        let scenario = ScenarioMatrix::new(
            &f.netlist,
            &f.library,
            &f.process,
            &f.parasitics,
            corners.clone(),
            serial_config(),
        )
        .expect("scenario");
        let report = scenario.run(&[AnalysisMode::OneStep]).expect("run");
        assert_eq!(report.corners.len(), 3);
        for (corner, run) in corners.iter().zip(&report.corners) {
            let process = f.process.corner(corner);
            let sta = crate::Sta::with_config(
                &f.netlist,
                &f.library,
                &process,
                &f.parasitics,
                serial_config(),
            )
            .expect("sta");
            let standalone = sta.analyze(AnalysisMode::OneStep).expect("standalone");
            let scen = &run.reports[0];
            assert_eq!(
                scen.longest_delay.to_bits(),
                standalone.longest_delay.to_bits(),
                "corner {} diverged from its standalone run",
                corner.name
            );
            for (a, b) in scen.endpoints.iter().zip(&standalone.endpoints) {
                assert_eq!(a.net, b.net);
                assert_eq!(a.rise.map(f64::to_bits), b.rise.map(f64::to_bits));
                assert_eq!(a.fall.map(f64::to_bits), b.fall.map(f64::to_bits));
            }
        }
    }

    #[test]
    fn corners_order_delays_monotonically() {
        let f = fixture(data::S27_BENCH);
        let scenario = ScenarioMatrix::new(
            &f.netlist,
            &f.library,
            &f.process,
            &f.parasitics,
            Corner::default_matrix(),
            serial_config(),
        )
        .expect("scenario");
        let report = scenario.run(&[AnalysisMode::BestCase]).expect("run");
        let by_name = |n: &str| {
            report
                .corners
                .iter()
                .find(|c| c.corner == n)
                .expect("corner present")
                .reports[0]
                .longest_delay
        };
        // Slow/low-Vdd must be the latest, fast/high-Vdd the earliest.
        assert!(by_name("ss") > by_name("tt"));
        assert!(by_name("tt") > by_name("ff"));
    }

    #[test]
    fn worst_endpoint_table_tracks_the_slow_corner() {
        let f = fixture(data::C17_BENCH);
        let scenario = ScenarioMatrix::new(
            &f.netlist,
            &f.library,
            &f.process,
            &f.parasitics,
            Corner::default_matrix(),
            serial_config(),
        )
        .expect("scenario");
        let report = scenario.run(&[AnalysisMode::OneStep]).expect("run");
        assert!(!report.worst_endpoints.is_empty());
        let ss = report
            .corners
            .iter()
            .position(|c| c.corner == "ss")
            .expect("ss in matrix");
        for e in &report.worst_endpoints {
            assert_eq!(
                e.worst_corner, ss,
                "max-delay worst must be the slow corner"
            );
            let deltas = e.deltas();
            assert_eq!(deltas[ss], 0.0);
            assert!(deltas.iter().all(|&d| d <= 0.0));
        }
        // Rows are sorted worst-first.
        for w in report.worst_endpoints.windows(2) {
            assert!(w[0].worst >= w[1].worst);
        }
    }
}
