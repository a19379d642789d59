//! Incremental ECO timing: dirty-cone re-analysis over cached arrivals.
//!
//! After an engineering change order (resize, reroute, buffer insertion,
//! coupling removal) only a small cone of the design can time differently.
//! [`IncrementalSta`] owns the mutable design data plus, per
//! [`AnalysisMode`], the node arrival states of every completed propagation
//! pass, and re-analyzes by replaying the batch level schedule while
//! skipping every stage whose result provably matches the cache.
//!
//! # The coupling-aware dirty cone
//!
//! In a conventional STA the dirty cone of an edit is the electrical
//! fan-out: a stage must be re-evaluated when it is directly invalidated by
//! the edit or when one of its *input* nodes changed. With crosstalk that
//! rule is incomplete, because a net's arrival also depends on nets it is
//! merely capacitively coupled to: an edited net dirties its aggressors'
//! **victims**, not just its own fan-out. Concretely, under the paper's
//! one-step policy (§5.1) the coupling decision for a victim arc reads the
//! aggressor net's quiescent time once the aggressor is calculated, so a
//! changed-and-calculated aggressor re-dirties every stage driving one of
//! its victims even though no timing arc connects them. During iterative
//! refinement (§5.2) the same information flows through the previous pass's
//! quiet table instead, so a stage is dirty when any of its aggressors'
//! quiet entries differs from the entry the cached pass consumed. Uniform
//! policies (best case, doubled, worst case, min-delay) treat coupling caps
//! value-independently; for them the extra rule adds nothing and edits to
//! coupling data arrive as seed stages.
//!
//! Equivalence with batch analysis rests on three properties of the batch
//! pass: every node has exactly one producer stage (so a re-evaluated
//! stage's merges fully rebuild its output), levels are evaluated in order
//! against a snapshot (so the calculated set at each level is a static
//! function of the schedule), and stage evaluation is deterministic (so
//! bit-identical inputs reproduce bit-identical outputs, making exact
//! early termination sound). The property test in `tests/incremental.rs`
//! checks incremental == batch over random edit sequences for every mode.
//!
//! Edits rebuild the timing graph wholesale, and the caches are remapped
//! onto the new graph by stable identity (net ids, gate ids, cell-internal
//! indices), which edits never renumber. A build is not negligible next to
//! a dirty-cone re-analysis: on the 3,029-stage medium block the
//! `eco_session` benchmark measures `graph.build_s` at 2.8–2.9 ms beside a
//! median `incremental.analyze_ms` of 23–28 ms (2-vCPU host). So a rollback
//! restores the checkpointed graph and caches instead of rebuilding them
//! (see [`Checkpoint`]).
//!
//! [`AnalysisMode::Iterative`] with `esperance: true` is delegated to the
//! batch engine uncached: the Esperance mask is a global function of the
//! previous pass, which defeats local dirtiness reasoning.

pub mod edit;

pub use edit::{Edit, EditError, EditOutcome, DEFAULT_BUFFER_CELL};

use std::collections::{BTreeSet, HashMap};
use std::mem;
use std::sync::Arc;
use std::time::Instant;

use xtalk_layout::Parasitics;
use xtalk_netlist::{GateId, Netlist};
use xtalk_tech::{Library, Process};

use crate::engine::{Sta, StaError};
use crate::exec::cache::SolveCache;
use crate::exec::{CacheStats, ExecConfig, Executor};
use crate::graph::{TNodeKind, TimingGraph};
use crate::kernel::{NodeState, Pred, PropagationCore, Quiet};
use crate::mode::AnalysisMode;
use crate::policy::iterative::{refine, RefineHost};
use crate::policy::one_step::OneStep;
use crate::policy::{self, CouplingPolicy};
use crate::report::{ModeReport, PassStat, SolveCounters};

/// Cached result of one propagation pass of one mode.
#[derive(Clone)]
struct PassCache {
    /// Final per-node arrival states of the pass.
    states: Vec<NodeState>,
    /// The quiet table this pass consumed (refinement passes only): the
    /// dirtiness reference for the coupling-aware rule.
    quiet_used: Option<Vec<[Quiet; 2]>>,
}

/// All cached passes of one [`AnalysisMode`].
#[derive(Clone, Default)]
struct ModeCache {
    /// How many `dirt_log` entries this cache has already consumed.
    synced: usize,
    /// One entry per completed pass, in pass order.
    passes: Vec<PassCache>,
}

/// An analyzer-state snapshot taken by [`IncrementalSta::checkpoint`],
/// restorable with [`IncrementalSta::rollback`]. Holds everything an edit
/// or an analysis can change: the netlist and parasitics by value, the
/// timing graph shared (edits replace the graph, never mutate it), a copy
/// of every mode's arrival cache with its `synced` counter, the dirt log
/// and the edit count. Restoring is a wholesale swap, so rollback is exact
/// regardless of which (or how many) edits and analyses ran in between.
pub struct Checkpoint {
    netlist: Netlist,
    parasitics: Parasitics,
    graph: Arc<TimingGraph>,
    caches: Vec<(AnalysisMode, ModeCache)>,
    dirt_log: Vec<BTreeSet<GateId>>,
    edits: usize,
}

/// Cache reuse of the most recent [`IncrementalSta::analyze`] call. Its
/// pass count and solver work are in the returned [`ModeReport`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeStats {
    /// `true` when no cache existed (or the mode is uncacheable) and the
    /// analysis ran from scratch.
    pub full: bool,
    /// Stage evaluations actually performed, summed over passes. A fully
    /// clean replay evaluates zero stages.
    pub stages_evaluated: usize,
}

/// A crosstalk-aware static timing analyzer with persistent caches and
/// typed ECO edits.
///
/// ```no_run
/// # use xtalk_sta::{AnalysisMode, IncrementalSta, Edit};
/// # fn demo(netlist: xtalk_netlist::Netlist, library: &xtalk_tech::Library,
/// #         process: &xtalk_tech::Process, parasitics: xtalk_layout::Parasitics)
/// #         -> Result<(), Box<dyn std::error::Error>> {
/// let mut eco = IncrementalSta::new(netlist, library, process, parasitics)?;
/// let before = eco.analyze(AnalysisMode::OneStep)?; // full, populates cache
/// eco.apply(&Edit::parse_line("resize u42 INVX4", 1)?)?;
/// let after = eco.analyze(AnalysisMode::OneStep)?; // dirty cone only
/// println!("{} -> {}", before.longest_delay, after.longest_delay);
/// # Ok(()) }
/// ```
pub struct IncrementalSta<'a> {
    library: &'a Library,
    process: &'a Process,
    netlist: Netlist,
    parasitics: Parasitics,
    /// Shared with checkpoints; edits swap in a freshly built graph.
    graph: Arc<TimingGraph>,
    exec: Executor,
    caches: Vec<(AnalysisMode, ModeCache)>,
    /// Seed gates of each applied edit not yet consumed by every cache.
    dirt_log: Vec<BTreeSet<GateId>>,
    edits: usize,
    last_stats: AnalyzeStats,
}

impl<'a> IncrementalSta<'a> {
    /// Builds the analyzer with `ExecConfig::default()`, taking ownership
    /// of the mutable design data.
    ///
    /// # Errors
    ///
    /// [`StaError::Netlist`] when the netlist does not expand to a timing
    /// graph.
    pub fn new(
        netlist: Netlist,
        library: &'a Library,
        process: &'a Process,
        parasitics: Parasitics,
    ) -> Result<Self, StaError> {
        Self::with_config(netlist, library, process, parasitics, ExecConfig::default())
    }

    /// Builds the analyzer with an explicit execution configuration.
    ///
    /// # Errors
    ///
    /// [`StaError::Netlist`] when the netlist does not expand to a timing
    /// graph.
    pub fn with_config(
        netlist: Netlist,
        library: &'a Library,
        process: &'a Process,
        parasitics: Parasitics,
        config: ExecConfig,
    ) -> Result<Self, StaError> {
        let mut graph = TimingGraph::build(&netlist, library, process, &parasitics)?;
        // The batch engine's binding, so ECO reanalysis and a fresh batch
        // run answer the same queries from the same models.
        let exec = Executor::new(config);
        exec.bind_models(process, library, &mut graph);
        Ok(Self {
            library,
            process,
            netlist,
            parasitics,
            graph: Arc::new(graph),
            exec,
            caches: Vec::new(),
            dirt_log: Vec::new(),
            edits: 0,
            last_stats: AnalyzeStats::default(),
        })
    }

    /// The execution configuration in effect.
    pub fn exec_config(&self) -> &ExecConfig {
        self.exec.config()
    }

    /// Keyed solve-cache counters: those of the daemon's shared cache when
    /// a store-backed daemon attached one, else all zeros.
    pub fn cache_stats(&self) -> CacheStats {
        self.exec.cache_stats()
    }

    /// Drops every memoized stage solve (the arrival caches are
    /// unaffected; exact-match keys mean results never change).
    pub fn clear_solve_cache(&self) {
        self.exec.memo().clear();
    }

    /// Attaches a store-backed daemon's shared keyed solve cache.
    pub(crate) fn attach_cache(&mut self, cache: Arc<SolveCache>) {
        self.exec.attach_cache(cache);
    }

    /// Installs (or clears, with `None`) a deterministic fault plan for the
    /// next analyses. Available only in fault-injection builds.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn set_fault_plan(&self, plan: Option<crate::fault::FaultPlan>) {
        self.exec.set_fault_plan(plan);
    }

    /// The current netlist (reflecting all applied edits).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The current parasitics (reflecting all applied edits).
    pub fn parasitics(&self) -> &Parasitics {
        &self.parasitics
    }

    /// The current timing graph.
    pub fn graph(&self) -> &TimingGraph {
        &self.graph
    }

    /// The cell library.
    pub fn library(&self) -> &'a Library {
        self.library
    }

    /// The process description.
    pub fn process(&self) -> &'a Process {
        self.process
    }

    /// Number of edits applied so far.
    pub fn edits_applied(&self) -> usize {
        self.edits
    }

    /// Work counters of the most recent [`analyze`](Self::analyze) call.
    pub fn last_stats(&self) -> AnalyzeStats {
        self.last_stats
    }

    /// A batch analyzer over the current design state with this analyzer's
    /// [`ExecConfig`], for reference runs: `eco --check` compares runs of
    /// one configuration.
    pub fn fresh_sta(&self) -> Sta<'_> {
        Sta::with_config(
            &self.netlist,
            self.library,
            self.process,
            &self.parasitics,
            self.exec.config().clone(),
        )
        .expect("current graph already built from this design")
    }

    fn ctx(&self) -> PropagationCore<'_> {
        PropagationCore {
            netlist: &self.netlist,
            library: self.library,
            process: self.process,
            parasitics: &self.parasitics,
            graph: &self.graph,
            exec: &self.exec,
        }
    }

    /// Applies one ECO edit: validates it, mutates the design, rebuilds the
    /// timing graph and remaps all cached passes onto it. The design is
    /// untouched when an error is returned.
    ///
    /// # Errors
    ///
    /// [`EditError`] for unresolvable names, interface mismatches or edits
    /// that would break the netlist.
    pub fn apply(&mut self, edit: &Edit) -> Result<EditOutcome, EditError> {
        // Mutate copies so a failed validation or rebuild leaves the
        // analyzer consistent.
        let mut netlist = self.netlist.clone();
        let mut parasitics = self.parasitics.clone();
        let (seeds, outcome) = edit::apply_edit(&mut netlist, &mut parasitics, self.library, edit)?;
        let mut graph = TimingGraph::rebuild(
            &netlist,
            self.library,
            self.process,
            &parasitics,
            &self.graph,
        )
        .map_err(EditError::Netlist)?;
        // Only cells new to the design have unbound arcs; the rest keep
        // the models bound to the graph this edit replaces.
        self.exec
            .bind_models(self.process, self.library, &mut graph);
        self.netlist = netlist;
        self.parasitics = parasitics;
        let old_graph = mem::replace(&mut self.graph, Arc::new(graph));
        self.remap_caches(&old_graph);
        // The per-stage solve memo keys entries by stage *index*, which the
        // rebuild just reassigned — stale entries would be wrong, not merely
        // useless. An attached keyed cache keys stable identities and
        // survives.
        self.exec.memo().clear();
        // Compact the dirt log whenever every cache has consumed it.
        if self
            .caches
            .iter()
            .all(|(_, c)| c.synced == self.dirt_log.len())
        {
            self.dirt_log.clear();
            for (_, c) in &mut self.caches {
                c.synced = 0;
            }
        }
        self.dirt_log.push(seeds);
        self.edits += 1;
        Ok(outcome)
    }

    /// Parses and applies a whole edit script (see
    /// [`Edit::parse_script`] for the grammar), stopping at the first
    /// failing edit.
    ///
    /// # Errors
    ///
    /// [`EditError`] from parsing or from the first failing edit; edits
    /// before it remain applied.
    pub fn apply_script(&mut self, text: &str) -> Result<Vec<EditOutcome>, EditError> {
        Edit::parse_script(text)?
            .iter()
            .map(|e| self.apply(e))
            .collect()
    }

    /// Snapshots the analyzer state for a later
    /// [`rollback`](Self::rollback) — the primitive behind what-if
    /// evaluation (apply candidate edits, re-time, roll back). Copies the
    /// netlist, parasitics and arrival caches; the timing graph is shared.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            netlist: self.netlist.clone(),
            parasitics: self.parasitics.clone(),
            graph: Arc::clone(&self.graph),
            caches: self.caches.clone(),
            dirt_log: self.dirt_log.clone(),
            edits: self.edits,
        }
    }

    /// Restores the analyzer to a [`checkpoint`](Self::checkpoint),
    /// undoing every edit applied since it was taken.
    ///
    /// Nothing is rebuilt: the [`Checkpoint`]'s state swaps back, so a
    /// mode whose cache was in sync at the checkpoint replays cleanly
    /// (zero stages evaluated) and a mode with unconsumed edits re-times
    /// just their cones; caches filled after the checkpoint are dropped
    /// with the abandoned design. Only the per-stage memo is cleared — it
    /// keys entries by stage index, which the edits renumbered. A later
    /// [`analyze`](Self::analyze) therefore reproduces the pre-checkpoint
    /// report bit for bit (modulo runtime and work counters).
    ///
    /// # Errors
    ///
    /// None: restoring swaps owned state and cannot fail. The `Result` is
    /// kept for API stability.
    pub fn rollback(&mut self, checkpoint: Checkpoint) -> Result<(), StaError> {
        self.restore(checkpoint);
        Ok(())
    }

    /// The infallible body of [`rollback`](Self::rollback).
    pub(crate) fn restore(&mut self, checkpoint: Checkpoint) {
        self.netlist = checkpoint.netlist;
        self.parasitics = checkpoint.parasitics;
        self.graph = checkpoint.graph;
        self.caches = checkpoint.caches;
        self.dirt_log = checkpoint.dirt_log;
        self.exec.memo().clear();
        self.edits = checkpoint.edits;
        self.last_stats = AnalyzeStats::default();
    }

    /// The execution state, for the serve daemon's deadline hooks.
    pub(crate) fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Analyzes the design under `mode`, reusing cached passes where the
    /// dirty-cone rule allows. The report is identical to a fresh
    /// [`Sta::analyze`] on the current design, except for runtime and
    /// solve counters.
    ///
    /// # Errors
    ///
    /// [`StaError`] as for the batch analysis. On error the mode's cache is
    /// dropped, so the next call recomputes from scratch.
    pub fn analyze(&mut self, mode: AnalysisMode) -> Result<ModeReport, StaError> {
        let started = Instant::now();
        // Diagnostics accumulate per analysis; drop leftovers from an
        // earlier run that errored out before assembling its report.
        drop(self.exec.drain_diagnostics());
        if matches!(mode, AnalysisMode::Iterative { esperance: true }) {
            let report = self.ctx().analyze(mode)?;
            self.last_stats = AnalyzeStats {
                full: true,
                stages_evaluated: report.passes * self.graph.stages.len(),
            };
            return Ok(report);
        }
        let pos = self.caches.iter().position(|(m, _)| *m == mode);
        let mut cache = match pos {
            Some(i) => mem::take(&mut self.caches[i].1),
            None => ModeCache::default(),
        };
        let mut stats = AnalyzeStats {
            full: cache.passes.is_empty(),
            ..AnalyzeStats::default()
        };
        match self.analyze_with_cache(mode, &mut cache, &mut stats, started) {
            Ok(report) => {
                self.last_stats = stats;
                match pos {
                    Some(i) => self.caches[i].1 = cache,
                    None => self.caches.push((mode, cache)),
                }
                Ok(report)
            }
            Err(e) => {
                // The cache may have been partially updated: poison it.
                if let Some(i) = pos {
                    self.caches.remove(i);
                }
                Err(e)
            }
        }
    }

    /// Runs or replays all passes of `mode` against `cache` and assembles
    /// the report. Mirrors `PropagationCore::compute_states` pass for pass
    /// — single-pass modes resolve their policy through the same
    /// [`policy::for_single_pass`], and the iterative mode runs the same
    /// [`refine`] driver, with each full pass replaced by a cached sweep.
    fn analyze_with_cache(
        &self,
        mode: AnalysisMode,
        cache: &mut ModeCache,
        stats: &mut AnalyzeStats,
        started: Instant,
    ) -> Result<ModeReport, StaError> {
        let ctx = self.ctx();
        let seed = self.seed_mask(cache.synced);
        cache.synced = self.dirt_log.len();
        let mut pass_stats: Vec<PassStat> = Vec::new();

        match mode {
            AnalysisMode::BestCase
            | AnalysisMode::StaticDoubled
            | AnalysisMode::WorstCase
            | AnalysisMode::OneStep
            | AnalysisMode::MinDelay => {
                let earliest = mode == AnalysisMode::MinDelay;
                let policy = policy::for_single_pass(mode);
                let work = self.sweep_pass(cache, 0, policy.as_ref(), None, &seed, stats)?;
                cache.passes.truncate(1);
                let delay = ctx
                    .extreme(&cache.passes[0].states, earliest)
                    .map(|(_, _, d)| d)
                    .unwrap_or(0.0);
                pass_stats.push(PassStat { delay, work });
            }
            AnalysisMode::Iterative { esperance: false } => {
                // The shared §5.2 driver — same convergence test and
                // divergence watchdog as the batch engine — over cached
                // sweeps. A diverged pass is never accepted, so `pass_idx`
                // stays on the previous one and the truncate drops it.
                let mut host = EcoRefine {
                    sta: self,
                    cache: &mut *cache,
                    seed: &seed,
                    stats: &mut *stats,
                    pass_idx: 0,
                    latest: 0,
                };
                refine(&ctx, &mut host, false, &mut pass_stats)?;
                let keep = host.pass_idx + 1;
                // Convergence may come earlier than in the cached run:
                // deeper cached passes are stale, drop them.
                cache.passes.truncate(keep);
            }
            AnalysisMode::Iterative { esperance: true } => {
                unreachable!("esperance is delegated to the batch engine")
            }
        }

        let final_states = cache
            .passes
            .last()
            .expect("every mode runs at least one pass")
            .states
            .clone();
        ctx.assemble_report(mode, final_states, pass_stats, started)
    }

    /// Replays cached pass `idx` incrementally, or runs it in full when the
    /// cache has no pass `idx` yet. Returns the solver work consumed.
    fn sweep_pass(
        &self,
        cache: &mut ModeCache,
        idx: usize,
        policy: &dyn CouplingPolicy,
        quiet_dirty: Option<&[bool]>,
        seed: &[bool],
        stats: &mut AnalyzeStats,
    ) -> Result<SolveCounters, StaError> {
        let ctx = self.ctx();
        if let Some(pass) = cache.passes.get_mut(idx) {
            let swept = ctx.repropagate(policy, &mut pass.states, seed, quiet_dirty)?;
            stats.stages_evaluated += swept.reevaluated;
            Ok(swept.counters)
        } else {
            let out = ctx.run_pass(policy, None, None)?;
            stats.stages_evaluated += self.graph.stages.len();
            cache.passes.push(PassCache {
                states: out.states,
                quiet_used: None,
            });
            Ok(out.counters)
        }
    }

    /// Per-stage seed flags from the dirt-log entries `cache` has not yet
    /// consumed: every stage of every gate named dirty by those edits.
    fn seed_mask(&self, synced: usize) -> Vec<bool> {
        let mut seed = vec![false; self.graph.stages.len()];
        let mut gates: BTreeSet<GateId> = BTreeSet::new();
        for entry in &self.dirt_log[synced..] {
            gates.extend(entry.iter().copied());
        }
        if !gates.is_empty() {
            for (si, stage) in self.graph.stages.iter().enumerate() {
                if gates.contains(&stage.gate) {
                    seed[si] = true;
                }
            }
        }
        seed
    }

    /// Moves every cached pass from `old_graph`'s node space onto the
    /// current graph's, matching nodes and producer stages by stable
    /// identity. Nodes new to the graph start with no arrivals; nodes whose
    /// producer stage disappeared (a cell swap changed the stage structure)
    /// are reset — their gate is in the seed set, so the sweep rebuilds
    /// them.
    fn remap_caches(&mut self, old_graph: &TimingGraph) {
        if self.caches.is_empty() {
            return;
        }
        let n = self.graph.nodes.len();
        let node_map: HashMap<(u8, u32, u32), usize> = self
            .graph
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| (node_key(node.kind), i))
            .collect();
        let stage_map: HashMap<(u32, u32), usize> = self
            .graph
            .stages
            .iter()
            .enumerate()
            .map(|(i, st)| ((st.gate.0, st.stage as u32), i))
            .collect();
        let net_count = self.netlist.net_count();
        for (_, cache) in &mut self.caches {
            for pass in &mut cache.passes {
                let old_states = mem::take(&mut pass.states);
                let mut new_states = vec![NodeState::default(); n];
                for (old_idx, st) in old_states.into_iter().enumerate() {
                    let Some(old_node) = old_graph.nodes.get(old_idx) else {
                        break;
                    };
                    if let Some(&ni) = node_map.get(&node_key(old_node.kind)) {
                        new_states[ni] = remap_state(st, old_graph, &stage_map);
                    }
                }
                pass.states = new_states;
                if let Some(quiet) = &mut pass.quiet_used {
                    // New nets read as never-quiet references; their real
                    // entries differ, which correctly dirties their victims.
                    quiet.resize(net_count, [Quiet::Never; 2]);
                }
            }
        }
    }
}

/// The incremental engine's refinement host: each pass of the shared §5.2
/// driver is a cached dirty sweep ([`PropagationCore::repropagate`]) over
/// `cache` instead of a full propagation. `pass_idx` is the last accepted
/// pass, `latest` the most recently swept one; both index `cache.passes`.
struct EcoRefine<'h, 'a> {
    sta: &'h IncrementalSta<'a>,
    cache: &'h mut ModeCache,
    seed: &'h [bool],
    stats: &'h mut AnalyzeStats,
    pass_idx: usize,
    latest: usize,
}

impl RefineHost for EcoRefine<'_, '_> {
    fn run_first(&mut self) -> Result<SolveCounters, StaError> {
        let counters = self.sta.sweep_pass(
            self.cache,
            0,
            &OneStep { prev: None },
            None,
            self.seed,
            self.stats,
        )?;
        self.latest = 0;
        Ok(counters)
    }

    fn run_refinement(
        &mut self,
        quiet: &[[Quiet; 2]],
        _esperance_delay: Option<f64>,
    ) -> Result<SolveCounters, StaError> {
        // Esperance is delegated to the batch engine (see `analyze`), so
        // the mask is never requested here.
        let next = self.pass_idx + 1;
        // A net is quiet-dirty when the cached pass consumed a different
        // quiet entry than the one this sweep will.
        let quiet_dirty: Option<Vec<bool>> = self.cache.passes.get(next).map(|pass| {
            let old = pass.quiet_used.as_ref();
            (0..quiet.len())
                .map(|i| old.and_then(|o| o.get(i)) != Some(&quiet[i]))
                .collect()
        });
        let counters = self.sta.sweep_pass(
            self.cache,
            next,
            &OneStep { prev: Some(quiet) },
            quiet_dirty.as_deref(),
            self.seed,
            self.stats,
        )?;
        self.cache.passes[next].quiet_used = Some(quiet.to_vec());
        self.latest = next;
        Ok(counters)
    }

    fn latest(&self) -> &[NodeState] {
        &self.cache.passes[self.latest].states
    }

    fn best(&self) -> &[NodeState] {
        &self.cache.passes[self.pass_idx].states
    }

    fn accept(&mut self) {
        self.pass_idx = self.latest;
    }
}

/// Stable identity of a timing node across graph rebuilds.
fn node_key(kind: TNodeKind) -> (u8, u32, u32) {
    match kind {
        TNodeKind::Net(net) => (0, net.0, 0),
        TNodeKind::Internal { gate, index } => (1, gate.0, index),
    }
}

/// Remaps one node state's predecessor arcs into the new stage numbering.
fn remap_state(
    mut state: NodeState,
    old_graph: &TimingGraph,
    stage_map: &HashMap<(u32, u32), usize>,
) -> NodeState {
    for info in state.dirs.iter_mut().flatten() {
        if let Some(pred) = info.pred {
            let old_stage = &old_graph.stages[pred.stage];
            match stage_map.get(&(old_stage.gate.0, old_stage.stage as u32)) {
                Some(&new_si) => {
                    info.pred = Some(Pred {
                        stage: new_si,
                        ..pred
                    })
                }
                None => return NodeState::default(),
            }
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_layout::{extract, place, route};
    use xtalk_netlist::generator::{self, GeneratorConfig};

    struct Fixture {
        process: Process,
        library: Library,
        netlist: Netlist,
        parasitics: Parasitics,
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

    /// A net that is driven, loaded and coupled — a worthwhile ECO target.
    fn busy_net(inc: &IncrementalSta<'_>) -> String {
        inc.netlist()
            .nets()
            .iter()
            .enumerate()
            .find(|(ni, net)| {
                net.driver.is_some()
                    && !net.loads.is_empty()
                    && !inc.parasitics().nets[*ni].couplings.is_empty()
            })
            .map(|(_, net)| net.name.clone())
            .expect("generated circuit has coupled nets")
    }

    fn assert_matches_fresh(inc: &IncrementalSta<'_>, report: &ModeReport, mode: AnalysisMode) {
        let fresh = inc.fresh_sta().analyze(mode).expect("fresh");
        assert_eq!(
            report.longest_delay.to_bits(),
            fresh.longest_delay.to_bits(),
            "{mode}: incremental delay diverged from batch"
        );
        assert_eq!(report.endpoint_net, fresh.endpoint_net, "{mode}: endpoint");
        assert_eq!(report.passes, fresh.passes, "{mode}: pass count");
        assert_eq!(
            report.critical_path.len(),
            fresh.critical_path.len(),
            "{mode}: path length"
        );
    }

    /// A derived batch analyzer inherits its analyzer's configuration:
    /// under signoff it reads no table and reproduces the signoff bits.
    #[test]
    fn fresh_sta_inherits_signoff() {
        let f = fixture_small(22);
        let config = ExecConfig::serial().with_signoff(true);
        let mut inc = IncrementalSta::with_config(
            f.netlist.clone(),
            &f.library,
            &f.process,
            f.parasitics.clone(),
            config.clone(),
        )
        .expect("inc");
        let edit = format!("reroute {} 1.5", busy_net(&inc));
        inc.apply(&Edit::parse_line(&edit, 1).expect("edit"))
            .expect("apply");
        let report = inc.analyze(AnalysisMode::OneStep).expect("eco");
        assert_matches_fresh(&inc, &report, AnalysisMode::OneStep);
        let fresh = inc.fresh_sta();
        assert!(fresh.exec_config().signoff);
        let batch = fresh.analyze(AnalysisMode::OneStep).expect("fresh");
        assert_eq!(batch.table_hits, 0, "signoff serves no table");
        let signoff = Sta::with_config(
            inc.netlist(),
            &f.library,
            &f.process,
            inc.parasitics(),
            config,
        )
        .expect("sta")
        .analyze(AnalysisMode::OneStep)
        .expect("signoff");
        assert_eq!(
            batch.longest_delay.to_bits(),
            signoff.longest_delay.to_bits()
        );
    }

    #[test]
    fn clean_replay_evaluates_nothing() {
        let f = fixture_small(11);
        let mut inc = IncrementalSta::new(
            f.netlist.clone(),
            &f.library,
            &f.process,
            f.parasitics.clone(),
        )
        .expect("inc");
        let first = inc.analyze(AnalysisMode::OneStep).expect("first");
        assert!(inc.last_stats().full);
        let second = inc.analyze(AnalysisMode::OneStep).expect("second");
        let stats = inc.last_stats();
        assert!(!stats.full);
        assert_eq!(
            stats.stages_evaluated, 0,
            "clean replay must skip all stages"
        );
        assert_eq!(
            first.longest_delay.to_bits(),
            second.longest_delay.to_bits()
        );
    }

    #[test]
    fn reroute_matches_fresh_analysis() {
        let f = fixture_small(12);
        let mut inc = IncrementalSta::new(
            f.netlist.clone(),
            &f.library,
            &f.process,
            f.parasitics.clone(),
        )
        .expect("inc");
        for mode in AnalysisMode::all() {
            inc.analyze(mode).expect("warm");
        }
        let net = busy_net(&inc);
        inc.apply(&Edit::RerouteNet { net, scale: 3.0 })
            .expect("edit");
        for mode in AnalysisMode::all() {
            let report = inc.analyze(mode).expect("re-analyze");
            assert_matches_fresh(&inc, &report, mode);
        }
    }

    #[test]
    fn resize_and_buffer_match_fresh_analysis() {
        let f = fixture_small(13);
        let mut inc = IncrementalSta::new(
            f.netlist.clone(),
            &f.library,
            &f.process,
            f.parasitics.clone(),
        )
        .expect("inc");
        inc.analyze(AnalysisMode::Iterative { esperance: false })
            .expect("warm");
        inc.analyze(AnalysisMode::MinDelay).expect("warm");
        let gate = inc
            .netlist()
            .gates()
            .iter()
            .find(|g| g.cell == "INVX1")
            .map(|g| g.name.clone())
            .expect("an inverter to resize");
        inc.apply(&Edit::ResizeCell {
            gate,
            cell: "INVX4".into(),
        })
        .expect("resize");
        let net = busy_net(&inc);
        let outcome = inc
            .apply(&Edit::InsertBuffer { net, cell: None })
            .expect("buffer");
        assert!(outcome.new_gate.is_some() && outcome.new_net.is_some());
        for mode in [
            AnalysisMode::Iterative { esperance: false },
            AnalysisMode::MinDelay,
        ] {
            let report = inc.analyze(mode).expect("re-analyze");
            assert_matches_fresh(&inc, &report, mode);
        }
    }

    #[test]
    fn uncouple_dirties_coupled_victims() {
        let f = fixture_small(14);
        let mut inc = IncrementalSta::new(
            f.netlist.clone(),
            &f.library,
            &f.process,
            f.parasitics.clone(),
        )
        .expect("inc");
        inc.analyze(AnalysisMode::OneStep).expect("warm");
        let (a, b) = inc
            .parasitics()
            .nets
            .iter()
            .enumerate()
            .find_map(|(ni, np)| np.couplings.first().map(|cc| (ni, cc.other.index())))
            .expect("a coupled pair");
        let a = inc.netlist().nets()[a].name.clone();
        let b = inc.netlist().nets()[b].name.clone();
        inc.apply(&Edit::RemoveCoupling { a, b }).expect("uncouple");
        let report = inc.analyze(AnalysisMode::OneStep).expect("re-analyze");
        assert_matches_fresh(&inc, &report, AnalysisMode::OneStep);
    }

    #[test]
    fn failed_edit_leaves_design_untouched() {
        let f = fixture_small(15);
        let mut inc = IncrementalSta::new(
            f.netlist.clone(),
            &f.library,
            &f.process,
            f.parasitics.clone(),
        )
        .expect("inc");
        let before = inc.analyze(AnalysisMode::BestCase).expect("before");
        assert!(inc
            .apply(&Edit::ResizeCell {
                gate: "no_such_gate".into(),
                cell: "INVX4".into(),
            })
            .is_err());
        assert_eq!(inc.edits_applied(), 0);
        let after = inc.analyze(AnalysisMode::BestCase).expect("after");
        assert_eq!(
            before.longest_delay.to_bits(),
            after.longest_delay.to_bits()
        );
        assert_eq!(inc.last_stats().stages_evaluated, 0);
    }
}
