//! The analyzer facade and mode dispatch.
//!
//! This module is deliberately thin. The propagation machinery — arrival
//! store, stage evaluation, pass scheduling, caching, fallbacks — lives in
//! [`crate::kernel`] as the [`PropagationCore`] shared by every analysis
//! surface; the per-mode coupling treatments live in [`crate::policy`].
//! What remains here is the public [`Sta`] entry point, the [`StaError`]
//! taxonomy, and `PropagationCore::compute_states`: the one place an
//! [`AnalysisMode`] is mapped onto a policy and a pass sequence.
//!
//! Coupling treatment per mode follows the paper's §5:
//!
//! - the **one-step** algorithm (§5.1) computes a best-case (all-quiet)
//!   waveform per victim transition to lower-bound the victim's earliest
//!   activity `t_bcs`, then marks each coupling cap active only when the
//!   aggressor's latest opposite activity `t_a` can still overlap
//!   (`t_a > t_bcs`) or the aggressor has not been calculated yet;
//! - the **iterative** algorithm (§5.2) stores every net's quiescent times
//!   after each full pass and re-runs the one-step analysis against that
//!   table while the longest-path delay keeps decreasing — optionally
//!   recomputing only stages that can lie on long paths (Esperance).

use xtalk_layout::Parasitics;
use xtalk_netlist::{Netlist, NetlistError};
use xtalk_tech::{Library, Process};
use xtalk_wave::stage::StageError;

use crate::exec::{CacheStats, ExecConfig, Executor};
use crate::graph::TimingGraph;
use crate::kernel::{NodeState, PropagationCore};
use crate::mode::AnalysisMode;
use crate::policy;
use crate::report::{ModeReport, PassStat};

/// Errors from [`Sta`].
#[derive(Debug)]
#[non_exhaustive]
pub enum StaError {
    /// Graph construction failed.
    Netlist(NetlistError),
    /// A stage solution failed.
    Stage {
        /// Name of the gate whose stage failed.
        gate: String,
        /// The underlying error.
        source: StageError,
    },
    /// No endpoint received a waveform — nothing to time.
    NoArrivals,
    /// A worker panicked while evaluating a stage (strict mode only; the
    /// default degrade path converts panics into diagnostics).
    Panic {
        /// Name of the gate whose stage task panicked.
        gate: String,
    },
    /// The iterative coupling refinement diverged (strict mode only; the
    /// default degrade path clamps to the previous safe pass).
    Unstable {
        /// Longest-path delay of the diverging pass, seconds.
        delay: f64,
    },
    /// An execution-configuration environment variable held a malformed
    /// value (see [`crate::exec::ConfigError`]).
    Config(crate::exec::ConfigError),
    /// The analysis was cancelled cooperatively because its request
    /// deadline expired. The arrival state computed so far is discarded;
    /// cached results from *completed* passes are untouched, so a retry
    /// (with a longer deadline) resumes from a consistent session.
    DeadlineExceeded,
}

impl std::fmt::Display for StaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaError::Netlist(e) => write!(f, "timing graph construction failed: {e}"),
            StaError::Stage { gate, source } => {
                write!(f, "stage solution failed in `{gate}`: {source}")
            }
            StaError::NoArrivals => write!(f, "no endpoint received an arrival"),
            StaError::Panic { gate } => {
                write!(f, "stage evaluation panicked in `{gate}`")
            }
            StaError::Unstable { delay } => write!(
                f,
                "iterative refinement diverged (pass delay rose to {:.4} ns)",
                delay * 1e9
            ),
            StaError::Config(e) => write!(f, "execution configuration rejected: {e}"),
            StaError::DeadlineExceeded => {
                write!(f, "request deadline exceeded (analysis cancelled)")
            }
        }
    }
}

impl std::error::Error for StaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StaError::Netlist(e) => Some(e),
            StaError::Stage { source, .. } => Some(source),
            StaError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for StaError {
    fn from(e: NetlistError) -> Self {
        StaError::Netlist(e)
    }
}

impl From<crate::exec::ConfigError> for StaError {
    fn from(e: crate::exec::ConfigError) -> Self {
        StaError::Config(e)
    }
}

/// The crosstalk-aware static timing analyzer.
pub struct Sta<'a> {
    netlist: &'a Netlist,
    library: &'a Library,
    process: &'a Process,
    parasitics: &'a Parasitics,
    graph: TimingGraph,
    exec: Executor,
}

impl<'a> Sta<'a> {
    /// Builds the analyzer (expands the timing graph) with the environment
    /// execution configuration ([`ExecConfig::from_env`]).
    ///
    /// # Errors
    ///
    /// [`StaError::Netlist`] when the netlist does not expand to a DAG or
    /// references unknown cells; [`StaError::Config`] when an `XTALK_*`
    /// environment override holds a malformed value.
    pub fn new(
        netlist: &'a Netlist,
        library: &'a Library,
        process: &'a Process,
        parasitics: &'a Parasitics,
    ) -> Result<Self, StaError> {
        Self::with_config(
            netlist,
            library,
            process,
            parasitics,
            ExecConfig::from_env()?,
        )
    }

    /// Builds the analyzer with an explicit execution configuration.
    ///
    /// # Errors
    ///
    /// [`StaError::Netlist`] when the netlist does not expand to a DAG or
    /// references unknown cells.
    pub fn with_config(
        netlist: &'a Netlist,
        library: &'a Library,
        process: &'a Process,
        parasitics: &'a Parasitics,
        config: ExecConfig,
    ) -> Result<Self, StaError> {
        let mut graph = TimingGraph::build(netlist, library, process, parasitics)?;
        // Bind the design's macromodels up front (characterizing only the
        // arcs neither memory nor the on-disk store holds): build time,
        // not solve time, so the fast path never blocks a pass mid-flight.
        let exec = Executor::new(config);
        exec.bind_models(process, library, &mut graph);
        Ok(Sta {
            netlist,
            library,
            process,
            parasitics,
            graph,
            exec,
        })
    }

    /// The execution configuration in effect.
    pub fn exec_config(&self) -> &ExecConfig {
        self.exec.config()
    }

    /// Keyed solve-cache counters: all zeros, because a batch analyzer
    /// keeps only the per-stage memo (only a store-backed daemon attaches
    /// a keyed cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.exec.cache_stats()
    }

    /// Drops every memoized stage solve. Purely a memory/diagnostic
    /// control: entries are exact-match, so clearing never changes any
    /// reported arrival.
    pub fn clear_solve_cache(&self) {
        self.exec.memo().clear();
    }

    /// Installs (or clears, with `None`) a deterministic fault plan for the
    /// next analyses. Available only in fault-injection builds.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn set_fault_plan(&self, plan: Option<crate::fault::FaultPlan>) {
        self.exec.set_fault_plan(plan);
    }

    /// The expanded timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The analysed netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The cell library in use.
    pub fn library(&self) -> &Library {
        self.library
    }

    /// The process in use.
    pub fn process(&self) -> &Process {
        self.process
    }

    /// The extracted parasitics in use.
    pub fn parasitics(&self) -> &Parasitics {
        self.parasitics
    }

    /// Borrowed propagation core over this analyzer's inputs and graph.
    pub(crate) fn ctx(&self) -> PropagationCore<'_> {
        PropagationCore {
            netlist: self.netlist,
            library: self.library,
            process: self.process,
            parasitics: self.parasitics,
            graph: &self.graph,
            exec: &self.exec,
        }
    }

    /// Runs the requested analysis and reports the longest path.
    ///
    /// # Errors
    ///
    /// See [`StaError`].
    pub fn analyze(&self, mode: AnalysisMode) -> Result<ModeReport, StaError> {
        self.ctx().analyze(mode)
    }

    /// Runs the passes of `mode` and returns the final node states.
    pub(crate) fn compute_states(
        &self,
        mode: AnalysisMode,
        pass_stats: &mut Vec<PassStat>,
    ) -> Result<Vec<NodeState>, StaError> {
        self.ctx().compute_states(mode, pass_stats)
    }
}

impl PropagationCore<'_> {
    /// Runs the passes of `mode` and returns the final node states,
    /// recording one [`PassStat`] per propagation pass.
    ///
    /// This is the mode dispatch: a single-pass mode resolves to its
    /// [`policy::CouplingPolicy`] and runs one kernel pass; the iterative
    /// mode runs the shared §5.2 refinement driver over one-step passes.
    pub(crate) fn compute_states(
        &self,
        mode: AnalysisMode,
        pass_stats: &mut Vec<PassStat>,
    ) -> Result<Vec<NodeState>, StaError> {
        match mode {
            AnalysisMode::Iterative { esperance } => {
                policy::iterative::refine_batch(self, esperance, pass_stats)
            }
            _ => {
                let policy = policy::for_single_pass(mode);
                let out = self.run_pass(policy.as_ref(), None, None)?;
                let delay = self
                    .extreme(&out.states, policy.earliest())
                    .map_or(0.0, |(_, _, d)| d);
                pass_stats.push(PassStat {
                    delay,
                    work: out.counters,
                });
                Ok(out.states)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_layout::{extract, place, route, Parasitics};
    use xtalk_netlist::{bench, data, generator, generator::GeneratorConfig};
    use xtalk_tech::{Library, Process};

    struct Fixture {
        process: Process,
        library: Library,
        netlist: Netlist,
        parasitics: Parasitics,
    }

    fn fixture_from_text(text: &str) -> Fixture {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = bench::parse(text, &library).expect("parse");
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

    fn fixture_small(seed: u64) -> Fixture {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = generator::generate(&GeneratorConfig::small(seed), &library).expect("gen");
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

    impl Fixture {
        fn sta(&self) -> Sta<'_> {
            Sta::new(
                &self.netlist,
                &self.library,
                &self.process,
                &self.parasitics,
            )
            .expect("sta")
        }
    }

    #[test]
    fn inverter_chain_delay_scales_with_length() {
        let f3 = fixture_from_text("INPUT(a)\nOUTPUT(y)\nw1 = NOT(a)\nw2 = NOT(w1)\ny = NOT(w2)\n");
        let f6 = fixture_from_text(
            "INPUT(a)\nOUTPUT(y)\nw1 = NOT(a)\nw2 = NOT(w1)\nw3 = NOT(w2)\n\
             w4 = NOT(w3)\nw5 = NOT(w4)\ny = NOT(w5)\n",
        );
        let d3 = f3.sta().analyze(AnalysisMode::BestCase).expect("3");
        let d6 = f6.sta().analyze(AnalysisMode::BestCase).expect("6");
        assert!(d6.longest_delay > 1.5 * d3.longest_delay);
        assert_eq!(d3.critical_path.len(), 3);
        assert_eq!(d6.critical_path.len(), 6);
    }

    #[test]
    fn s27_all_modes_run_and_order_correctly() {
        let f = fixture_from_text(data::S27_BENCH);
        let sta = f.sta();
        let best = sta.analyze(AnalysisMode::BestCase).expect("best");
        let doubled = sta.analyze(AnalysisMode::StaticDoubled).expect("doubled");
        let worst = sta.analyze(AnalysisMode::WorstCase).expect("worst");
        let one = sta.analyze(AnalysisMode::OneStep).expect("one");
        let iter = sta
            .analyze(AnalysisMode::Iterative { esperance: false })
            .expect("iter");
        // Paper orderings.
        assert!(best.longest_delay <= doubled.longest_delay + 1e-15);
        assert!(best.longest_delay <= one.longest_delay + 1e-15);
        assert!(one.longest_delay <= worst.longest_delay + 1e-12);
        assert!(iter.longest_delay <= one.longest_delay + 1e-12);
        assert!(best.longest_delay > 0.0);
    }

    #[test]
    fn synthetic_circuit_mode_ordering() {
        let f = fixture_small(17);
        let sta = f.sta();
        let best = sta
            .analyze(AnalysisMode::BestCase)
            .expect("best")
            .longest_delay;
        let one = sta
            .analyze(AnalysisMode::OneStep)
            .expect("one")
            .longest_delay;
        let worst = sta
            .analyze(AnalysisMode::WorstCase)
            .expect("worst")
            .longest_delay;
        let iter = sta
            .analyze(AnalysisMode::Iterative { esperance: false })
            .expect("iter")
            .longest_delay;
        assert!(best <= one + 1e-15, "best {best} <= one-step {one}");
        assert!(one <= worst + 1e-12, "one-step {one} <= worst {worst}");
        assert!(iter <= one + 1e-12, "iterative {iter} <= one-step {one}");
        assert!(worst > best, "coupling must matter on a routed circuit");
    }

    #[test]
    fn iterative_converges_monotonically() {
        let f = fixture_small(5);
        let sta = f.sta();
        let r = sta
            .analyze(AnalysisMode::Iterative { esperance: false })
            .expect("iterative");
        assert!(r.passes >= 2, "at least one refinement pass");
        for w in r.pass_delays.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-12,
                "pass delays must not increase: {:?}",
                r.pass_delays
            );
        }
    }

    #[test]
    fn esperance_reaches_same_fixpoint() {
        let f = fixture_small(23);
        let sta = f.sta();
        let plain = sta
            .analyze(AnalysisMode::Iterative { esperance: false })
            .expect("plain");
        let esp = sta
            .analyze(AnalysisMode::Iterative { esperance: true })
            .expect("esperance");
        // Esperance skips work but must stay a safe bound and land close.
        assert!(esp.longest_delay >= plain.longest_delay - 1e-12);
        assert!(
            esp.longest_delay <= plain.longest_delay * 1.05 + 1e-12,
            "esperance {} vs plain {}",
            esp.longest_delay,
            plain.longest_delay
        );
        assert!(esp.stage_solves <= plain.stage_solves);
    }

    #[test]
    fn one_step_costs_about_twice_plain() {
        let f = fixture_small(29);
        let sta = f.sta();
        let best = sta.analyze(AnalysisMode::BestCase).expect("best");
        let one = sta.analyze(AnalysisMode::OneStep).expect("one");
        assert!(one.stage_solves > best.stage_solves);
        assert!(one.stage_solves <= 2 * best.stage_solves);
    }

    #[test]
    fn critical_path_is_connected() {
        let f = fixture_small(31);
        let sta = f.sta();
        let r = sta.analyze(AnalysisMode::OneStep).expect("analyze");
        assert!(!r.critical_path.is_empty());
        // Arrivals along the path must not decrease.
        for w in r.critical_path.windows(2) {
            assert!(w[1].arrival >= w[0].arrival - 1e-12);
        }
        // Every step's gate output must feed the next step's gate.
        for w in r.critical_path.windows(2) {
            let out = f.netlist.gate(w[0].gate).output;
            let next_inputs = &f.netlist.gate(w[1].gate).inputs;
            assert!(
                next_inputs.contains(&out),
                "path steps must be electrically connected"
            );
        }
    }

    #[test]
    fn endpoint_is_reported() {
        let f = fixture_from_text(data::C17_BENCH);
        let sta = f.sta();
        let r = sta.analyze(AnalysisMode::BestCase).expect("analyze");
        let net = r.endpoint_net.expect("endpoint is a net");
        assert!(f.netlist.net(net).is_primary_output);
    }

    #[test]
    fn min_delay_is_a_lower_bound() {
        let f = fixture_small(41);
        let sta = f.sta();
        let min = sta.analyze(AnalysisMode::MinDelay).expect("min");
        let best = sta.analyze(AnalysisMode::BestCase).expect("best");
        let worst = sta.analyze(AnalysisMode::WorstCase).expect("worst");
        assert!(min.longest_delay > 0.0);
        assert!(
            min.longest_delay <= best.longest_delay,
            "min {} <= best-case longest {}",
            min.longest_delay,
            best.longest_delay
        );
        assert!(min.longest_delay <= worst.longest_delay);
        assert!(!min.critical_path.is_empty(), "shortest path reported");
        // Shortest-path arrivals are non-decreasing along the path too.
        for w in min.critical_path.windows(2) {
            assert!(w[1].arrival >= w[0].arrival - 1e-12);
        }
    }

    #[test]
    fn endpoint_arrivals_cover_all_endpoints() {
        let f = fixture_small(43);
        let sta = f.sta();
        let r = sta.analyze(AnalysisMode::BestCase).expect("analysis");
        assert!(!r.endpoints.is_empty());
        // The reported longest delay is attained by some endpoint summary.
        let max = r
            .endpoints
            .iter()
            .map(|e| e.latest())
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((max - r.longest_delay).abs() < 1e-15);
        for e in &r.endpoints {
            assert!(e.earliest() <= e.latest());
        }
    }

    #[test]
    fn launch_stages_give_dff_q_both_directions() {
        let f = fixture_from_text(data::S27_BENCH);
        let sta = f.sta();
        let out = sta
            .ctx()
            .run_pass(&crate::policy::quiet::AllQuiet, None, None)
            .expect("pass");
        let q = f.netlist.net_by_name("G5").expect("ff output");
        let node = sta.graph.net_node[q.index()];
        let st = &out.states[node.index()];
        assert!(st.get(true).is_some(), "Q rise arrival");
        assert!(st.get(false).is_some(), "Q fall arrival");
        // Q launches after the clock (buffer-free here, small but positive).
        assert!(st.get(true).expect("rise").crossing > 0.0);
    }

    /// A keyed cache entry that fails its integrity check is evicted and
    /// re-solved, never served. Only a store-backed daemon attaches a keyed
    /// cache, so this attaches one the same way. Signoff keeps the tables
    /// out, so the faulted and clean runs solve the same inputs.
    #[test]
    fn poisoned_cache_entries_are_detected_and_evicted() {
        use crate::fault::{Fault, FaultPlan};
        let fingerprint = |r: &ModeReport| -> Vec<u64> {
            let mut v = vec![r.longest_delay.to_bits(), r.passes as u64];
            for ep in &r.endpoints {
                v.push(ep.rise.map_or(u64::MAX, f64::to_bits));
                v.push(ep.fall.map_or(u64::MAX, f64::to_bits));
            }
            v.extend(r.critical_path.iter().map(|step| step.arrival.to_bits()));
            v
        };
        let f = fixture_small(31);
        let mut sta = Sta::with_config(
            &f.netlist,
            &f.library,
            &f.process,
            &f.parasitics,
            ExecConfig::serial().with_signoff(true),
        )
        .expect("sta");
        let free = sta.analyze(AnalysisMode::OneStep).expect("clean analyze");

        // First faulted run corrupts every fresh cache entry as it is
        // inserted; it bypasses the memo, which the re-read must not hit.
        sta.exec
            .attach_cache(std::sync::Arc::new(crate::exec::cache::SolveCache::new()));
        sta.set_fault_plan(Some(FaultPlan::new(Fault::PoisonedCache, 7, 1)));
        sta.clear_solve_cache();
        sta.analyze(AnalysisMode::OneStep).expect("poisoning run");

        // Second run with the plan cleared hits the poisoned entries: every one
        // must fail its integrity check and be re-solved, never served.
        sta.set_fault_plan(None);
        let reread = sta.analyze(AnalysisMode::OneStep).expect("re-read run");
        assert!(
            reread
                .diagnostics
                .iter()
                .any(|d| d.fault == crate::diag::FaultClass::CacheCorruption),
            "expected CacheCorruption diagnostics, got {:?}",
            reread.diagnostics
        );
        // Evict-and-resolve means the numbers match the clean run exactly.
        assert_eq!(
            fingerprint(&free),
            fingerprint(&reread),
            "corrupted entries must be re-solved, not served"
        );
    }
}
