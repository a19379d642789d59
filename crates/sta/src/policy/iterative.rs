//! Iterative refinement (§5.2): the shared fixed-point driver.
//!
//! The iterative mode is not a sixth load decision — every pass solves
//! under the [one-step policy](super::one_step::OneStep). What defines it
//! is the loop: pass 1 runs plain one-step, then each refinement pass
//! re-solves against the *previous* pass's quiet table, monotonically
//! shrinking the set of active aggressors until the longest delay settles.
//!
//! Both engines run this exact loop — the batch engine over full passes,
//! the incremental (ECO) engine over cached dirty sweeps — so the loop
//! body lives here once, behind the `RefineHost` trait: the `refine`
//! driver owns pass sequencing, the convergence test and the divergence
//! watchdog; the host owns how a pass is executed and where its states
//! live. Keeping one driver is what keeps the two engines' pass
//! trajectories (and therefore their reports) bit-identical.

use crate::engine::StaError;
use crate::kernel::{NodeState, PassOutput, PropagationCore, Quiet};
use crate::policy::one_step::OneStep;
use crate::report::{PassStat, SolveCounters};

/// One engine's execution of refinement passes.
///
/// The driver distinguishes the *latest* pass (just produced, under
/// convergence judgment) from the *best* pass (last accepted — the result
/// so far). [`accept`](Self::accept) promotes latest to best; a diverged
/// pass is never accepted, which is how the watchdog keeps the previous
/// conservative bound.
pub(crate) trait RefineHost {
    /// Runs pass 1: plain one-step, no quiet table.
    fn run_first(&mut self) -> Result<SolveCounters, StaError>;

    /// Runs one refinement pass against `quiet` (the best pass's quiet
    /// table). `esperance_delay` is the current longest delay when the
    /// Esperance optimization should skip off-path stages.
    fn run_refinement(
        &mut self,
        quiet: &[[Quiet; 2]],
        esperance_delay: Option<f64>,
    ) -> Result<SolveCounters, StaError>;

    /// States of the most recently run pass.
    fn latest(&self) -> &[NodeState];

    /// States of the last accepted pass.
    fn best(&self) -> &[NodeState];

    /// Promotes the latest pass to the accepted result.
    fn accept(&mut self);
}

/// Drives the §5.2 refinement loop over `host` to its fixed point.
///
/// Semantics (shared verbatim by batch and ECO):
/// - convergence tolerance `1e-13 + 1e-3 * delay` — stop once a pass
///   improves the longest delay by less than 0.1%;
/// - a hard cap of 10 refinement passes, with a diagnostic if reached;
/// - divergence watchdog: a pass whose delay *rises* beyond the tolerance
///   (oscillation — §5.2 assumes the refinement settles, a production run
///   cannot) is discarded in favour of the previous pass, which is already
///   a guaranteed-conservative one-step bound. In strict mode it is an
///   [`StaError::Unstable`] error instead.
///
/// Pushes one [`PassStat`] per executed pass (including a discarded
/// diverged pass) onto `pass_stats`.
pub(crate) fn refine(
    core: &PropagationCore<'_>,
    host: &mut dyn RefineHost,
    esperance: bool,
    pass_stats: &mut Vec<PassStat>,
) -> Result<(), StaError> {
    // Pass 1: the plain one-step analysis.
    let work = host.run_first()?;
    let mut delay = core
        .longest(host.latest())
        .map(|(_, _, d)| d)
        .ok_or(StaError::NoArrivals)?;
    pass_stats.push(PassStat { delay, work });
    host.accept();

    let mut capped = true;
    for _ in 0..10 {
        let quiet = core.quiet_table(host.best());
        let work = host.run_refinement(&quiet, esperance.then_some(delay))?;
        let next_delay = core
            .longest(host.latest())
            .map(|(_, _, d)| d)
            .ok_or(StaError::NoArrivals)?;
        pass_stats.push(PassStat {
            delay: next_delay,
            work,
        });
        let tolerance = 1e-13 + 1e-3 * delay;
        if next_delay > delay + tolerance {
            if core.exec.config().strict {
                return Err(StaError::Unstable { delay: next_delay });
            }
            core.exec.push_diagnostic(crate::diag::Diagnostic {
                severity: crate::diag::Severity::Warning,
                node: "(iterative refinement)".to_string(),
                fault: crate::diag::FaultClass::FixedPointDivergence,
                substituted_bound: Some(delay),
                detail: format!(
                    "pass delay rose from {:.4} ns to {:.4} ns; \
                     keeping the previous conservative pass",
                    delay * 1e9,
                    next_delay * 1e9
                ),
            });
            capped = false;
            break;
        }
        // Converged when the improvement drops below 0.1% — the paper's
        // refinement settles within a few passes.
        let improved = next_delay < delay - tolerance;
        host.accept();
        delay = next_delay.min(delay);
        if !improved {
            capped = false;
            break;
        }
    }
    if capped {
        core.exec.push_diagnostic(crate::diag::Diagnostic {
            severity: crate::diag::Severity::Warning,
            node: "(iterative refinement)".to_string(),
            fault: crate::diag::FaultClass::FixedPointDivergence,
            substituted_bound: Some(delay),
            detail: "pass cap (10) reached before convergence".to_string(),
        });
    }
    Ok(())
}

/// The batch engine's host: each pass is a full propagation over the
/// kernel, states held in [`PassOutput`]s.
struct BatchRefine<'c, 'a> {
    core: &'c PropagationCore<'a>,
    current: Option<PassOutput>,
    best: Option<PassOutput>,
}

impl RefineHost for BatchRefine<'_, '_> {
    fn run_first(&mut self) -> Result<SolveCounters, StaError> {
        let out = self.core.run_pass(&OneStep { prev: None }, None, None)?;
        let counters = out.counters;
        self.current = Some(out);
        Ok(counters)
    }

    fn run_refinement(
        &mut self,
        quiet: &[[Quiet; 2]],
        esperance_delay: Option<f64>,
    ) -> Result<SolveCounters, StaError> {
        let best = self.best.as_ref().expect("refinement follows pass 1");
        let recompute = esperance_delay.map(|d| self.core.long_path_stages(&best.states, d));
        let out = self.core.run_pass(
            &OneStep { prev: Some(quiet) },
            Some(&best.states),
            recompute.as_deref(),
        )?;
        let counters = out.counters;
        self.current = Some(out);
        Ok(counters)
    }

    fn latest(&self) -> &[NodeState] {
        &self.current.as_ref().expect("a pass has run").states
    }

    fn best(&self) -> &[NodeState] {
        &self.best.as_ref().expect("a pass was accepted").states
    }

    fn accept(&mut self) {
        if let Some(out) = self.current.take() {
            self.best = Some(out);
        }
    }
}

/// Runs the full iterative analysis on the batch engine and returns the
/// accepted final states.
pub(crate) fn refine_batch(
    core: &PropagationCore<'_>,
    esperance: bool,
    pass_stats: &mut Vec<PassStat>,
) -> Result<Vec<NodeState>, StaError> {
    let mut host = BatchRefine {
        core,
        current: None,
        best: None,
    };
    refine(core, &mut host, esperance, pass_stats)?;
    Ok(host.best.expect("refine accepted at least pass 1").states)
}
