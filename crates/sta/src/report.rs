//! Timing reports and critical-path reconstruction.

use std::fmt;
use std::time::Duration;

use xtalk_netlist::{GateId, NetId, Netlist};
use xtalk_tech::cell::{Cell, StageSignal};
use xtalk_tech::Library;

use crate::graph::{TNodeId, TNodeKind, TimingGraph};
use crate::kernel::NodeState;
use crate::mode::AnalysisMode;

/// One gate-level step of a reported path.
#[derive(Debug, Clone)]
pub struct PathStep {
    /// The gate traversed.
    pub gate: GateId,
    /// Library cell name.
    pub cell: String,
    /// Input pin the path enters through (`usize::MAX` for a clock launch).
    pub pin: usize,
    /// The gate's output net.
    pub net: NetId,
    /// Direction of the output transition.
    pub rising: bool,
    /// Arrival time at the output, seconds.
    pub arrival: f64,
    /// Sensitizing constant voltages for the cell's other input pins
    /// (entry at `pin` is a placeholder) — directly usable as the side
    /// values of a transistor-level path simulation.
    pub side_values: Vec<f64>,
}

/// Arrival summary of one endpoint net.
#[derive(Debug, Clone, Copy)]
pub struct EndpointArrival {
    /// The endpoint net.
    pub net: NetId,
    /// Rise arrival, seconds (if the net can rise).
    pub rise: Option<f64>,
    /// Fall arrival, seconds (if the net can fall).
    pub fall: Option<f64>,
}

impl EndpointArrival {
    /// The later of the two arrivals.
    pub fn latest(&self) -> f64 {
        self.rise
            .unwrap_or(f64::NEG_INFINITY)
            .max(self.fall.unwrap_or(f64::NEG_INFINITY))
    }

    /// The earlier of the two arrivals.
    pub fn earliest(&self) -> f64 {
        self.rise
            .unwrap_or(f64::INFINITY)
            .min(self.fall.unwrap_or(f64::INFINITY))
    }
}

/// Solver work of one stage evaluation, one pass or a whole run — the one
/// record the pass table, the report aggregates and `xtalk serve stats`
/// all sum with [`absorb`](Self::absorb).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveCounters {
    /// Logical stage-solver calls — the paper's work metric; calls answered
    /// by a reuse layer or a macromodel table are included.
    pub stage_solves: usize,
    /// Newton integrations actually performed.
    pub newton_solves: usize,
    /// Solver calls answered without a Newton integration: by the
    /// macromodel tables, the per-stage warm-start memo or the keyed
    /// stage-solve cache.
    pub cache_hits: usize,
    /// Subset of `cache_hits` answered by the per-stage warm-start memo
    /// (the allocation-free layer).
    pub warm_hits: usize,
    /// Total Newton iterations consumed by the integrations — the cost
    /// metric behind cache admission.
    pub newton_iters: usize,
    /// Per-solve Newton-iteration histogram: bucket 0 holds solves under 64
    /// iterations, then doubling bands to the `>= 4096` tail in bucket 7.
    pub iter_hist: [usize; 8],
    /// Subset of `cache_hits` answered by the characterized macromodel
    /// tables (DESIGN.md D12).
    pub table_hits: usize,
    /// Calls where a usable macromodel declined the query (out-of-grid,
    /// unfoldable load) and the solve fell back to the Newton path.
    pub table_fallbacks: usize,
    /// `table_fallbacks` split by decline reason, indexed by
    /// [`xtalk_wave::macromodel::FallbackReason`] discriminant.
    pub table_fb_reasons: [usize; xtalk_wave::macromodel::FALLBACK_REASONS],
    /// Largest certified interpolation-error bound among the table hits,
    /// seconds (0 when no table answered).
    pub table_residual: f64,
}

impl SolveCounters {
    /// Adds `other` into `self`: counts sum and the residual takes the max,
    /// so a total never depends on absorption order.
    pub fn absorb(&mut self, other: SolveCounters) {
        self.stage_solves += other.stage_solves;
        self.newton_solves += other.newton_solves;
        self.cache_hits += other.cache_hits;
        self.warm_hits += other.warm_hits;
        self.newton_iters += other.newton_iters;
        for (mine, theirs) in self.iter_hist.iter_mut().zip(other.iter_hist) {
            *mine += theirs;
        }
        self.table_hits += other.table_hits;
        self.table_fallbacks += other.table_fallbacks;
        for (mine, theirs) in self.table_fb_reasons.iter_mut().zip(other.table_fb_reasons) {
            *mine += theirs;
        }
        self.table_residual = self.table_residual.max(other.table_residual);
    }

    /// The summed work of `passes`.
    #[must_use]
    pub fn total(passes: &[PassStat]) -> SolveCounters {
        let mut total = SolveCounters::default();
        for pass in passes {
            total.absorb(pass.work);
        }
        total
    }

    /// Cache hits as a fraction of the solver calls (0 for an uncached or
    /// empty record).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.stage_solves == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.stage_solves as f64
        }
    }

    /// Accounts one performed Newton integration of `newton_iters` total
    /// iterations.
    pub(crate) fn record_solve(&mut self, newton_iters: usize) {
        self.newton_solves += 1;
        self.newton_iters += newton_iters;
        self.iter_hist[iter_bucket(newton_iters)] += 1;
    }
}

/// Histogram bucket of one solve's Newton-iteration count (see
/// [`SolveCounters::iter_hist`]).
fn iter_bucket(iters: usize) -> usize {
    let mut bucket = 0;
    let mut t = iters / 64;
    while t > 0 && bucket < 7 {
        t >>= 1;
        bucket += 1;
    }
    bucket
}

/// One propagation pass: its result and the solver work it took.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStat {
    /// Longest (for min-delay: shortest) endpoint arrival after the pass,
    /// seconds.
    pub delay: f64,
    /// Solver work of the pass.
    pub work: SolveCounters,
}

/// Result of one analysis run.
#[derive(Debug, Clone)]
pub struct ModeReport {
    /// The analysis that produced this report.
    pub mode: AnalysisMode,
    /// Longest-path delay (latest endpoint arrival; for
    /// [`AnalysisMode::MinDelay`] the *earliest* endpoint arrival), seconds.
    pub longest_delay: f64,
    /// Arrival summary per endpoint net.
    pub endpoints: Vec<EndpointArrival>,
    /// Per-net quiescent times `(fall, rise)`, seconds — the time after
    /// which the net is provably quiet in that direction (`None` when the
    /// net never makes the transition). Indexed by `NetId`.
    pub net_quiet: Vec<(Option<f64>, Option<f64>)>,
    /// The endpoint net (when the endpoint is a net node).
    pub endpoint_net: Option<NetId>,
    /// Direction of the endpoint transition.
    pub endpoint_rising: bool,
    /// Gate-level critical path from launch to endpoint.
    pub critical_path: Vec<PathStep>,
    /// Full propagation passes performed.
    pub passes: usize,
    /// Longest delay after each pass (iterative convergence trace).
    pub pass_delays: Vec<f64>,
    /// Logical stage-solver calls across all passes (the paper's work
    /// measure; cache hits included).
    pub stage_solves: usize,
    /// Newton integrations actually performed across all passes
    /// (`stage_solves - cache_hits`).
    pub newton_solves: usize,
    /// Solver calls answered by a reuse layer across all passes.
    pub cache_hits: usize,
    /// Subset of `cache_hits` answered by the per-stage warm-start memo
    /// across all passes.
    pub warm_hits: usize,
    /// Total Newton iterations consumed across all passes.
    pub newton_iters: usize,
    /// Solver calls answered by the characterized macromodel tables across
    /// all passes (0 in signoff mode).
    pub table_hits: usize,
    /// Calls where a usable macromodel declined the query and the solve
    /// fell back to the Newton path, across all passes.
    pub table_fallbacks: usize,
    /// `table_fallbacks` split by decline reason across all passes, indexed
    /// by [`xtalk_wave::macromodel::FallbackReason`] discriminant — the
    /// histogram that says whether to grow a grid axis, admit a load
    /// family, or accept the residual exact-solver population.
    pub table_fb_reasons: [usize; xtalk_wave::macromodel::FALLBACK_REASONS],
    /// Largest certified interpolation-error bound among all table hits,
    /// seconds — the worst-case pessimism the macromodel may have added to
    /// any reported arrival.
    pub table_residual: f64,
    /// Per-pass delay and solver work, in pass order. The counters above
    /// are their [`SolveCounters::total`].
    pub pass_stats: Vec<PassStat>,
    /// Faults contained during the analysis (empty on a clean run). Each
    /// records the degraded node and the conservative bound substituted for
    /// it — see `DESIGN.md` D8 for the failure taxonomy.
    pub diagnostics: Vec<crate::diag::Diagnostic>,
    /// Wall-clock runtime.
    pub runtime: Duration,
}

impl ModeReport {
    /// The worst severity among the contained faults (`None` on a clean
    /// run). Drives the CLI exit code.
    #[must_use]
    pub fn worst_severity(&self) -> Option<crate::diag::Severity> {
        crate::diag::worst_severity(&self.diagnostics)
    }

    /// Whether the analysis degraded (substituted at least one conservative
    /// bound) instead of running clean.
    #[must_use]
    pub fn degraded(&self) -> bool {
        !self.diagnostics.is_empty()
    }
}

impl fmt::Display for ModeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<22} {:>9.3} ns   ({} passes, {} solves, {:.2?})",
            self.mode.to_string(),
            self.longest_delay * 1e9,
            self.passes,
            self.stage_solves,
            self.runtime
        )?;
        if self.cache_hits > 0 {
            let ratio = self.cache_hits as f64 / self.stage_solves.max(1) as f64;
            write!(
                f,
                "   [{} newton, {} cached ({} warm), {:.0}% hit]",
                self.newton_solves,
                self.cache_hits,
                self.warm_hits,
                ratio * 100.0
            )?;
        }
        // Only runs that actually used the macromodel mention it: signoff
        // output stays byte-identical to the pre-macromodel engine.
        if self.table_hits > 0 {
            write!(
                f,
                "   [{} table, {} fallback, residual <= {:.1} ps]",
                self.table_hits,
                self.table_fallbacks,
                self.table_residual * 1e12
            )?;
        }
        // Only a degraded run mentions diagnostics: clean output stays
        // byte-identical to the diagnostics-free engine.
        if !self.diagnostics.is_empty() {
            write!(f, "   [{} diagnostics]", self.diagnostics.len())?;
        }
        writeln!(f)
    }
}

/// Sensitizing side voltages for a cell-level arc through `pin`.
///
/// Returns one voltage per input pin (the `pin` entry is a placeholder 0);
/// `None` when the cell has no single-pin sensitization (sequential cells).
pub fn cell_side_values(cell: &Cell, pin: usize, vdd: f64) -> Option<Vec<f64>> {
    cell.sensitizing_side_values(pin, vdd)
}

/// Reconstructs the gate-level critical path ending at `endpoint`.
pub(crate) fn build_path(
    netlist: &Netlist,
    library: &Library,
    graph: &TimingGraph,
    states: &[NodeState],
    endpoint: TNodeId,
    endpoint_rising: bool,
    vdd: f64,
) -> Vec<PathStep> {
    let mut steps_rev: Vec<PathStep> = Vec::new();
    let mut node = endpoint;
    let mut rising = endpoint_rising;

    #[allow(clippy::while_let_loop)] // two-level break structure reads better
    loop {
        let Some(info) = states[node.index()].get(rising) else {
            break;
        };
        let Some(pred) = info.pred else {
            break; // reached a startpoint
        };
        let stage_inst = &graph.stages[pred.stage];
        let gate_id = stage_inst.gate;
        let gate = netlist.gate(gate_id);
        let cell = library.cell(&gate.cell);

        // If the current node is this gate's *output net*, a new gate-level
        // step begins here; walk back through the gate's internal stages to
        // find the entry pin.
        if let TNodeKind::Net(net) = graph.nodes[node.index()].kind {
            // Walk to the cell boundary.
            let mut walk_node = node;
            let mut walk_rising = rising;
            let mut entry_pin = usize::MAX;
            #[allow(clippy::while_let_loop)]
            loop {
                let Some(winfo) = states[walk_node.index()].get(walk_rising) else {
                    break;
                };
                let Some(wpred) = winfo.pred else {
                    break;
                };
                let wsi = &graph.stages[wpred.stage];
                if wsi.gate != gate_id {
                    break;
                }
                let wgate = netlist.gate(wsi.gate);
                let wcell = library.cell(&wgate.cell).expect("validated cell");
                let wstage = &wcell.stages[wsi.stage];
                match wstage.inputs[wpred.slot] {
                    StageSignal::Pin(p) => {
                        entry_pin = p;
                        walk_node = wsi.inputs[wpred.slot].node;
                        walk_rising = wpred.input_rising;
                        break;
                    }
                    StageSignal::Launch => {
                        entry_pin = usize::MAX;
                        walk_node = wsi.inputs[wpred.slot].node;
                        walk_rising = wpred.input_rising;
                        break;
                    }
                    StageSignal::Internal(_) => {
                        walk_node = wsi.inputs[wpred.slot].node;
                        walk_rising = if wsi.is_launch
                            && matches!(wstage.inputs[wpred.slot], StageSignal::Launch)
                        {
                            true
                        } else {
                            wpred.input_rising
                        };
                    }
                }
            }
            let side_values = cell
                .and_then(|c| {
                    if entry_pin == usize::MAX {
                        None
                    } else {
                        cell_side_values(c, entry_pin, vdd)
                    }
                })
                .unwrap_or_default();
            steps_rev.push(PathStep {
                gate: gate_id,
                cell: gate.cell.clone(),
                pin: entry_pin,
                net,
                rising,
                arrival: info.crossing,
                side_values,
            });
            node = walk_node;
            rising = walk_rising;
        } else {
            // Internal node: keep walking backwards.
            node = stage_inst.inputs[pred.slot].node;
            rising = pred.input_rising;
        }
        if steps_rev.len() > graph.stages.len() {
            break; // defensive: avoid infinite loops on corrupt state
        }
    }
    steps_rev.reverse();
    steps_rev
}

/// Setup-slack table: for a max-delay report and a clock period, lists the
/// `n` endpoints with the smallest slack (`period - latest arrival`),
/// worst first.
pub fn slack_table(netlist: &Netlist, report: &ModeReport, period: f64, n: usize) -> String {
    use std::fmt::Write as _;
    let mut rows: Vec<(f64, NetId)> = report
        .endpoints
        .iter()
        .map(|e| (period - e.latest(), e.net))
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>12}   (period {:.3} ns, {} endpoints)",
        "Endpoint",
        "Slack [ns]",
        period * 1e9,
        rows.len()
    );
    for (slack, net) in rows.into_iter().take(n) {
        let _ = writeln!(
            out,
            "{:<24} {:>12.3}{}",
            netlist.net(net).name,
            slack * 1e9,
            if slack < 0.0 { "  VIOLATED" } else { "" }
        );
    }
    out
}

/// Labels of the per-solve Newton-iteration histogram buckets, matching
/// [`SolveCounters::iter_hist`]: doubling bands from `<64` to the `>=4096` tail.
pub const ITER_HIST_LABELS: [&str; 8] =
    ["<64", "<128", "<256", "<512", "<1k", "<2k", "<4k", ">=4k"];

/// Formats the solver/cache work of a report as one aligned table across
/// passes: per pass the logical calls, Newton integrations and iterations,
/// the reuse hit rate as a percentage (warm-memo subset called out), and
/// the labeled iteration histogram. A `total` row sums the run.
///
/// This replaces the earlier ad-hoc per-pass lines whose columns drifted
/// between passes (hit counts vs ratios, unlabeled histogram buckets).
pub fn solver_table(report: &ModeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{:>5} {:>8} {:>8} {:>9} {:>5} {:>6} {:>7}",
        "pass", "calls", "newton", "iters", "hit%", "warm", "table"
    );
    for label in ITER_HIST_LABELS {
        let _ = write!(out, " {label:>5}");
    }
    let _ = writeln!(out);
    let mut row = |tag: &str, s: &SolveCounters| {
        let _ = write!(
            out,
            "{:>5} {:>8} {:>8} {:>9} {:>4.0}% {:>6} {:>7}",
            tag,
            s.stage_solves,
            s.newton_solves,
            s.newton_iters,
            100.0 * s.hit_ratio(),
            s.warm_hits,
            s.table_hits
        );
        for count in s.iter_hist {
            let _ = write!(out, " {count:>5}");
        }
        let _ = writeln!(out);
    };
    for (i, s) in report.pass_stats.iter().enumerate() {
        row(&(i + 1).to_string(), &s.work);
    }
    if report.pass_stats.len() > 1 {
        row("total", &SolveCounters::total(&report.pass_stats));
    }
    out
}

/// Formats the table-fallback reason histogram of a report as one line
/// (`fallbacks 120: load 80, slew 30, ...`, zero buckets omitted), or
/// `None` when no table ever declined — the answer to "where do the
/// residual exact solves come from" (DESIGN.md D12/D15).
#[must_use]
pub fn fallback_reason_line(report: &ModeReport) -> Option<String> {
    use std::fmt::Write as _;
    if report.table_fallbacks == 0 {
        return None;
    }
    let mut out = format!("fallbacks {}:", report.table_fallbacks);
    let mut first = true;
    for reason in xtalk_wave::macromodel::FallbackReason::all() {
        let count = report.table_fb_reasons[reason as usize];
        if count == 0 {
            continue;
        }
        let sep = if first { "" } else { "," };
        first = false;
        let _ = write!(out, "{sep} {} {count}", reason.label());
    }
    Some(out)
}

/// A daemon's service-layer health counters, as carried in a `stats`
/// response: the degradation events the service absorbed instead of
/// dying, plus the current admission state.
#[derive(Debug, Clone, Default)]
pub struct ServiceCounters {
    /// Requests answered over the daemon's lifetime.
    pub requests: u64,
    /// Requests currently holding an in-flight slot.
    pub inflight: u64,
    /// The in-flight admission budget.
    pub max_inflight: u64,
    /// Requests cancelled because their deadline expired.
    pub deadline_hits: u64,
    /// Requests (or connections) rejected by admission control.
    pub busy_rejections: u64,
    /// Solve-store appends that failed (or were injected to fail);
    /// each cost persistence of a batch of entries, never service.
    pub store_write_failures: u64,
    /// Designs whose sessions were quarantined after a request panic.
    pub quarantined: Vec<String>,
}

/// Formats the service-layer health table of `xtalk client stats`.
#[must_use]
pub fn service_table(c: &ServiceCounters) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{:<22} {:>10}", "service", "count");
    let _ = writeln!(out, "{:<22} {:>10}", "requests", c.requests);
    let _ = writeln!(
        out,
        "{:<22} {:>7}/{:<2}",
        "in-flight", c.inflight, c.max_inflight
    );
    let _ = writeln!(out, "{:<22} {:>10}", "deadline hits", c.deadline_hits);
    let _ = writeln!(out, "{:<22} {:>10}", "busy rejections", c.busy_rejections);
    let _ = writeln!(
        out,
        "{:<22} {:>10}",
        "store write failures", c.store_write_failures
    );
    if c.quarantined.is_empty() {
        let _ = writeln!(out, "{:<22} {:>10}", "quarantined sessions", 0);
    } else {
        let _ = writeln!(
            out,
            "{:<22} {:>10}   ({})",
            "quarantined sessions",
            c.quarantined.len(),
            c.quarantined.join(", ")
        );
    }
    out
}

/// Formats the paper-style comparison table for a set of reports.
pub fn comparison_table(circuit: &str, cells: usize, reports: &[ModeReport]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "Table: {circuit} ({cells} cells)");
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>10} {:>10}",
        "Analysis", "Delay [ns]", "Passes", "CPU [s]"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:<24} {:>12.3} {:>10} {:>10.2}",
            r.mode.to_string(),
            r.longest_delay * 1e9,
            r.passes,
            r.runtime.as_secs_f64()
        );
    }
    out
}

/// One corner's slice of a scenario-matrix run: the corner's name and one
/// [`ModeReport`] per requested analysis mode, in request order. Every
/// report inside is bit-identical to the one a standalone single-corner
/// analyzer would produce — the scenario engine only shares the (corner-
/// keyed) reuse layers and the worker pool, never results.
#[derive(Debug, Clone)]
pub struct CornerRun {
    /// Corner name (`ss`, `tt`, `ff`, ...).
    pub corner: String,
    /// One report per analysis mode, in request order.
    pub reports: Vec<ModeReport>,
}

/// Cross-corner arrival summary of one endpoint, under the scenario's
/// primary (first requested) analysis mode.
#[derive(Debug, Clone)]
pub struct EndpointWorst {
    /// The endpoint net.
    pub net: NetId,
    /// The worst arrival across corners, seconds: the latest for a
    /// max-delay mode, the *earliest* for [`AnalysisMode::MinDelay`].
    pub worst: f64,
    /// Index (into [`ScenarioReport::corners`]) of the corner attaining it.
    pub worst_corner: usize,
    /// The per-corner arrival, in corner order (`NaN` when the endpoint
    /// received no arrival at that corner).
    pub per_corner: Vec<f64>,
}

impl EndpointWorst {
    /// Per-corner delta against the cross-corner worst, seconds
    /// (`corner − worst`: 0 at the worst corner, negative margin
    /// elsewhere for a max-delay mode).
    #[must_use]
    pub fn deltas(&self) -> Vec<f64> {
        self.per_corner.iter().map(|&a| a - self.worst).collect()
    }
}

/// Result of a [`crate::scenario::ScenarioMatrix`] run: per-corner
/// reports plus the cross-corner worst arrival per endpoint.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Per-corner results, in matrix order.
    pub corners: Vec<CornerRun>,
    /// Cross-corner worst arrival per endpoint (primary mode), worst
    /// first.
    pub worst_endpoints: Vec<EndpointWorst>,
    /// Total Newton iterations spent per corner (all modes), in corner
    /// order.
    pub corner_iters: Vec<usize>,
}

impl ScenarioReport {
    /// Total Newton iterations across all corners and modes.
    #[must_use]
    pub fn total_iters(&self) -> usize {
        self.corner_iters.iter().sum()
    }
}

/// Formats the cross-corner endpoint table of a scenario run: one row per
/// endpoint (worst first, `n` rows at most) with the cross-corner worst
/// arrival, the corner attaining it, and each corner's delta against it.
pub fn scenario_table(netlist: &Netlist, report: &ScenarioReport, n: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:<24} {:>11} {:>6}", "Endpoint", "Worst [ns]", "@");
    for run in &report.corners {
        let _ = write!(out, " {:>9}", format!("d({})", run.corner));
    }
    let _ = writeln!(out);
    for e in report.worst_endpoints.iter().take(n) {
        let _ = write!(
            out,
            "{:<24} {:>11.3} {:>6}",
            netlist.net(e.net).name,
            e.worst * 1e9,
            report.corners[e.worst_corner].corner
        );
        for d in e.deltas() {
            if d.is_nan() {
                let _ = write!(out, " {:>9}", "-");
            } else {
                let _ = write!(out, " {:>9.3}", d * 1e9);
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Formats the per-corner summary table of a scenario run: each corner's
/// longest delay per mode and its solver work, plus the iteration total.
pub fn corner_summary_table(report: &ScenarioReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:<24} {:>12} {:>10} {:>12}",
        "Corner", "Analysis", "Delay [ns]", "Newton", "Iters"
    );
    for run in &report.corners {
        for r in &run.reports {
            let _ = writeln!(
                out,
                "{:<8} {:<24} {:>12.3} {:>10} {:>12}",
                run.corner,
                r.mode.to_string(),
                r.longest_delay * 1e9,
                r.newton_solves,
                r.newton_iters
            );
        }
    }
    let _ = writeln!(
        out,
        "{:<8} {:<24} {:>12} {:>10} {:>12}",
        "total",
        "",
        "",
        "",
        report.total_iters()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_tech::{Library, Process};

    fn lib() -> Library {
        Library::c05um(&Process::c05um())
    }

    #[test]
    fn side_values_nand3() {
        let l = lib();
        let c = l.cell("NAND3X1").expect("nand3");
        let v = cell_side_values(c, 1, 3.3).expect("sensitizable");
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 3.3);
        assert_eq!(v[2], 3.3);
    }

    #[test]
    fn side_values_nor_low() {
        let l = lib();
        let c = l.cell("NOR2X1").expect("nor2");
        let v = cell_side_values(c, 0, 3.3).expect("sensitizable");
        assert_eq!(v[1], 0.0);
    }

    #[test]
    fn side_values_mux_select() {
        let l = lib();
        let c = l.cell("MUX2X1").expect("mux");
        let v = cell_side_values(c, 2, 3.3).expect("sensitizable");
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 3.3);
    }

    #[test]
    fn side_values_aoi_oai() {
        let l = lib();
        let aoi = l.cell("AOI21X1").expect("aoi");
        let v = cell_side_values(aoi, 0, 3.3).expect("sensitizable");
        assert_eq!(v[1], 3.3);
        assert_eq!(v[2], 0.0);
        let oai = l.cell("OAI21X1").expect("oai");
        let v = cell_side_values(oai, 2, 3.3).expect("sensitizable");
        assert_eq!(v[0], 3.3);
    }

    #[test]
    fn side_values_reject_bad_pin_and_dff() {
        let l = lib();
        let inv = l.cell("INVX1").expect("inv");
        assert!(cell_side_values(inv, 4, 3.3).is_none());
        let dff = l.cell("DFFX1").expect("dff");
        assert!(cell_side_values(dff, 0, 3.3).is_none());
    }

    #[test]
    fn solver_table_aligns_passes_with_labeled_buckets() {
        let pass = |calls: usize, hits: usize, iters: usize| PassStat {
            delay: 1e-9,
            work: SolveCounters {
                stage_solves: calls,
                newton_solves: calls - hits,
                cache_hits: hits,
                warm_hits: hits / 2,
                newton_iters: iters,
                iter_hist: [calls - hits, 0, 0, 0, 0, 0, 0, 1],
                table_hits: hits / 4,
                table_fallbacks: 1,
                table_fb_reasons: [1, 0, 0, 0, 0],
                table_residual: 2.5e-12,
            },
        };
        let report = ModeReport {
            mode: AnalysisMode::Iterative { esperance: false },
            longest_delay: 1e-9,
            endpoints: Vec::new(),
            net_quiet: Vec::new(),
            endpoint_net: None,
            endpoint_rising: true,
            critical_path: Vec::new(),
            passes: 2,
            pass_delays: vec![1e-9, 1e-9],
            stage_solves: 300,
            newton_solves: 230,
            cache_hits: 70,
            warm_hits: 35,
            newton_iters: 9000,
            table_hits: 17,
            table_fallbacks: 2,
            table_fb_reasons: [1, 1, 0, 0, 0],
            table_residual: 2.5e-12,
            pass_stats: vec![pass(200, 20, 6000), pass(100, 50, 3000)],
            diagnostics: Vec::new(),
            runtime: Duration::from_millis(5),
        };
        let t = solver_table(&report);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 passes + total:\n{t}");
        // One aligned table: every row has the same width.
        assert!(
            lines.iter().all(|l| l.len() == lines[0].len()),
            "rows drifted out of alignment:\n{t}"
        );
        assert!(lines[0].contains("hit%"), "{t}");
        for label in ITER_HIST_LABELS {
            assert!(lines[0].contains(label), "missing bucket label {label}");
        }
        assert!(lines[1].trim_start().starts_with('1'), "{t}");
        assert!(lines[2].contains("50%"), "hit rate rendered as %:\n{t}");
        assert!(lines[3].trim_start().starts_with("total"), "{t}");
        // A single-pass report needs no total row.
        let single = ModeReport {
            pass_stats: vec![pass(10, 0, 100)],
            ..report
        };
        assert_eq!(solver_table(&single).lines().count(), 2);
    }

    #[test]
    fn comparison_table_formats() {
        let r = ModeReport {
            mode: AnalysisMode::BestCase,
            longest_delay: 10.5e-9,
            endpoints: Vec::new(),
            net_quiet: Vec::new(),
            endpoint_net: None,
            endpoint_rising: true,
            critical_path: Vec::new(),
            passes: 1,
            pass_delays: vec![10.5e-9],
            stage_solves: 123,
            newton_solves: 100,
            cache_hits: 23,
            warm_hits: 7,
            newton_iters: 4200,
            table_hits: 0,
            table_fallbacks: 0,
            table_fb_reasons: [0; 5],
            table_residual: 0.0,
            pass_stats: vec![PassStat {
                delay: 10.5e-9,
                work: SolveCounters {
                    stage_solves: 123,
                    newton_solves: 100,
                    cache_hits: 23,
                    warm_hits: 7,
                    newton_iters: 4200,
                    iter_hist: [100, 0, 0, 0, 0, 0, 0, 0],
                    ..SolveCounters::default()
                },
            }],
            diagnostics: Vec::new(),
            runtime: Duration::from_millis(12),
        };
        let t = comparison_table("s27", 13, std::slice::from_ref(&r));
        assert!(t.contains("s27 (13 cells)"));
        assert!(t.contains("Best case"));
        assert!(t.contains("10.500"));
        // The Display form surfaces the cache breakdown when hits occurred.
        let shown = r.to_string();
        assert!(shown.contains("123 solves"));
        assert!(shown.contains("23 cached (7 warm)"));
        let ps = r.pass_stats[0].work;
        assert!((ps.hit_ratio() - 23.0 / 123.0).abs() < 1e-12);
    }
}
