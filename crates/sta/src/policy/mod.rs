//! Per-mode coupling policies.
//!
//! The paper's five treatments of a coupling capacitance differ only in
//! the *load decision*: what each coupling contributes while a stage is
//! solved, and (for the refinement modes) which cached results a change
//! invalidates. Everything else — scheduling, merging, caching,
//! fallbacks — is mode-independent and lives in [`crate::kernel`].
//!
//! This module captures that split as the [`CouplingPolicy`] trait, with
//! one implementation per analysis mode:
//!
//! | mode | policy | treatment |
//! |------|--------|-----------|
//! | best-case | [`quiet::AllQuiet`] | every aggressor quiet, coupling to ground (§3 lower bound) |
//! | static doubled | [`doubled::Doubled`] | coupling counted twice, the classic static margin |
//! | worst-case | [`worst_case::AlwaysActive`] | every aggressor switching opposed (§3 upper bound) |
//! | one-step | [`one_step::OneStep`] | §5.1 overlap test against computed aggressor activity |
//! | min-delay | [`min_delay::EarliestAssist`] | aggressors assist, earliest arrivals kept |
//!
//! The iterative mode (§5.2) is not a sixth load decision but a driver
//! that re-runs the one-step policy against refined quiet times; it lives
//! in [`iterative`] as the `RefineHost` loop shared by the batch and
//! incremental engines.

pub mod doubled;
pub mod iterative;
pub mod min_delay;
pub mod one_step;
pub mod quiet;
pub mod worst_case;

use xtalk_wave::pwl::Waveform;
use xtalk_wave::stage::{Coupling, CouplingMode, Load, StageError};

use crate::graph::{StageId, TimingGraph};
use crate::kernel::StateView;
use crate::mode::AnalysisMode;

/// The kernel's solver choke point, handed to a policy as a callback: one
/// stage solve under the load the policy chose. Counting (logical calls,
/// cache hits, Newton solves), the reuse layers and the fault harness all
/// sit behind it, so a policy decides *what* to solve, never *how*.
pub type ArcSolve<'s> = dyn FnMut(Load) -> Result<Waveform, StageError> + 's;

/// Read-only context of one timing arc about to be solved.
pub struct ArcCtx<'c> {
    pub(crate) graph: &'c TimingGraph,
    pub(crate) view: &'c StateView<'c>,
    pub(crate) si: StageId,
    pub(crate) out_rising: bool,
    pub(crate) vdd: f64,
    pub(crate) vth: f64,
}

/// One analysis mode's treatment of coupling capacitances.
///
/// Implementations must be pure functions of the arc context (plus any
/// state captured at construction, such as a previous pass's quiet table):
/// the kernel evaluates stages in parallel and relies on identical inputs
/// producing bit-identical loads.
pub trait CouplingPolicy: Sync {
    /// Short human-readable name, for diagnostics and traces.
    fn name(&self) -> &'static str;

    /// Whether the mode keeps *earliest* arrivals (min-delay analysis:
    /// earliest merge wins, fastest sensitization tables).
    fn earliest(&self) -> bool {
        false
    }

    /// Whether [`Self::solve_arc`] reads computed aggressor states from
    /// the in-flight pass. The wavefront scheduler then adds aggressor
    /// edges to the dependency graph so those reads always see finalized
    /// cells.
    fn aggressor_aware(&self) -> bool {
        false
    }

    /// Solves one timing arc: chooses the load (or loads — the one-step
    /// test may solve a best-case trial first) and calls `solve` for each.
    ///
    /// # Errors
    ///
    /// Propagates the solver's [`StageError`]; the kernel degrades it to a
    /// conservative fallback (or aborts, in strict mode).
    fn solve_arc(&self, arc: &ArcCtx<'_>, solve: &mut ArcSolve<'_>)
        -> Result<Waveform, StageError>;

    /// Incremental sweeps only: whether this stage's cached result can
    /// differ because of its coupling caps, even though no electrical
    /// input changed. Called only for stages that have couplings.
    /// `changed` flags nodes replaced so far in the sweep; `quiet_dirty`
    /// (refinement passes) flags nets whose quiet-table entry differs from
    /// the one the cached pass consumed.
    fn coupling_dirty(
        &self,
        graph: &TimingGraph,
        si: StageId,
        level: usize,
        changed: &[bool],
        quiet_dirty: Option<&[bool]>,
    ) -> bool {
        let _ = (graph, si, level, changed, quiet_dirty);
        false
    }
}

/// The load every uniform policy solves with: the stage's ground
/// capacitance plus each coupling under one fixed [`CouplingMode`].
fn uniform_load(arc: &ArcCtx<'_>, mode: CouplingMode) -> Load {
    Load {
        cground: arc.graph.stages[arc.si.index()].cground,
        couplings: arc
            .graph
            .couplings_of(arc.si)
            .iter()
            .map(|&(_, c)| Coupling::new(c, mode))
            .collect(),
    }
}

/// The policy of a single-pass analysis mode.
///
/// The iterative mode is multi-pass by construction and has no single
/// policy — it runs through [`iterative::refine`].
pub(crate) fn for_single_pass(mode: AnalysisMode) -> Box<dyn CouplingPolicy> {
    match mode {
        AnalysisMode::BestCase => Box::new(quiet::AllQuiet),
        AnalysisMode::StaticDoubled => Box::new(doubled::Doubled),
        AnalysisMode::WorstCase => Box::new(worst_case::AlwaysActive),
        AnalysisMode::OneStep => Box::new(one_step::OneStep { prev: None }),
        AnalysisMode::MinDelay => Box::new(min_delay::EarliestAssist),
        AnalysisMode::Iterative { .. } => {
            unreachable!("iterative mode runs through policy::iterative::refine")
        }
    }
}
