//! Transistor-level solution of one complementary-CMOS stage under
//! capacitive coupling — the paper's §2 + §3 in executable form.
//!
//! [`StageSolver::solve`] integrates the output node of a [`Stage`] with
//! backward Euler, solving the nonlinear device equations at every timestep
//! with Newton iteration against the table models. The output load is a
//! lumped ground capacitance plus any number of coupling capacitances, each
//! in one of three modes:
//!
//! - [`CouplingMode::Grounded`]: the aggressor is provably quiet; the cap is
//!   an ordinary grounded load at face value (paper's "best case").
//! - [`CouplingMode::Doubled`]: grounded at twice its value — the classical
//!   static crosstalk margin the paper argues against ("static doubled").
//! - [`CouplingMode::Active`]: the paper's three-phase worst-case model.
//!   The cap loads the net as a grounded cap until the victim waveform
//!   reaches the trigger voltage `Vth + dV` (with `dV = Vdd*Cc/Ctot` the
//!   capacitive-divider step of an instantaneous opposite transition on the
//!   aggressor); at that instant the victim snaps back to `Vth`, the cap
//!   becomes passive again, and the *propagated* waveform is restarted at
//!   `Vth` — so crosstalk appears purely as extra delay and waveforms stay
//!   monotone.

use std::fmt;

use xtalk_tech::cell::Stage;
use xtalk_tech::mosfet::DeviceType;
use xtalk_tech::Process;

use crate::network::{NetworkEval, WarmStart};
use crate::pwl::{Waveform, WaveformError};

/// How a coupling capacitance participates in a stage solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CouplingMode {
    /// Aggressor quiet: grounded cap at face value.
    Grounded,
    /// Classical pessimism: grounded cap at twice its value.
    Doubled,
    /// Worst-case active coupling per the three-phase model.
    Active,
    /// Aggressor switching in the *same* direction simultaneously: the
    /// charge across the cap barely changes, so it loads the victim with
    /// (at most) nothing — the fastest case. Used by min-delay (hold)
    /// analysis, the extension the paper leaves out of scope ("switching in
    /// the same direction may occur, but this is not within the scope of
    /// this discussion", §5.1).
    Assisting,
}

/// One coupling capacitance on the victim net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coupling {
    /// Capacitance to the aggressor wire, farads.
    pub c: f64,
    /// Treatment during this solve.
    pub mode: CouplingMode,
}

impl Coupling {
    /// Creates a coupling capacitance.
    pub fn new(c: f64, mode: CouplingMode) -> Self {
        Coupling { c, mode }
    }
}

/// The lumped load a stage drives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Load {
    /// Grounded capacitance: diffusion + wire-to-ground + fan-in pin caps.
    pub cground: f64,
    /// Coupling capacitances with their modes.
    pub couplings: Vec<Coupling>,
}

impl Load {
    /// A purely grounded load.
    pub fn grounded(cground: f64) -> Self {
        Load {
            cground,
            couplings: Vec::new(),
        }
    }

    /// Total capacitance seen by the integrator (Active and Grounded caps
    /// load at face value, Doubled at twice).
    pub fn total_cap(&self) -> f64 {
        self.cground
            + self
                .couplings
                .iter()
                .map(|c| match c.mode {
                    CouplingMode::Grounded | CouplingMode::Active => c.c,
                    CouplingMode::Doubled => 2.0 * c.c,
                    CouplingMode::Assisting => 0.0,
                })
                .sum::<f64>()
    }
}

/// A coupling event fired during integration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snap {
    /// Time of the aggressor transition.
    pub time: f64,
    /// Magnitude of the capacitive-divider step, volts.
    pub delta_v: f64,
}

/// Result of a stage solution.
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// The propagated output waveform (restarted at `Vth` after the last
    /// snap, per the paper's model).
    pub wave: Waveform,
    /// Coupling events that fired, in time order.
    pub snaps: Vec<Snap>,
    /// Raw integration trace including the snap dips (for plotting and for
    /// the Fig. 1 reproduction); not monotone when snaps fired.
    pub raw: Vec<(f64, f64)>,
    /// Timesteps taken.
    pub steps: usize,
    /// Newton iterations consumed, summed over all timesteps.
    pub newton_iters: usize,
}

/// Lean result of [`StageSolver::solve_with`]: the propagated waveform plus
/// work counters, without the raw trace and snap clones of [`StageResult`]
/// (those stay in the [`StageScratch`] until the next solve).
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedWave {
    /// The propagated output waveform.
    pub wave: Waveform,
    /// Timesteps taken.
    pub steps: usize,
    /// Newton iterations consumed, summed over all timesteps.
    pub newton_iters: usize,
}

/// Reusable workspace for stage solves.
///
/// The integrator's hot loop needs several growable buffers (PWL trace,
/// pending coupling events, node-voltage side values, series-stack
/// warm-start storage). Allocating them per solve dominates short solves,
/// so long-lived owners — a wavefront worker, the serial pass driver, a
/// bench harness — hold one `StageScratch` and pass it to
/// [`StageSolver::solve_with`]. Every buffer is fully reset at the start of
/// each solve, so results are bit-identical to a fresh scratch; only the
/// allocations persist.
#[derive(Debug, Clone, Default)]
pub struct StageScratch {
    gates: Vec<f64>,
    pending: Vec<(f64, f64)>,
    points: Vec<(f64, f64)>,
    snaps: Vec<Snap>,
    warm_p: WarmStart,
    warm_n: WarmStart,
    /// The family members riding the shared trajectory besides its carrier.
    riders: Vec<Rider>,
    /// Parked forks; the first `forked` are live, the rest keep their
    /// allocations for the next family.
    forks: Vec<Fork>,
    forked: usize,
}

impl StageScratch {
    /// Creates an empty scratch workspace.
    pub fn new() -> Self {
        StageScratch::default()
    }
}

/// Integrator state after an accepted step: everything the rest of a
/// trajectory depends on besides its pending coupling events, its trace
/// and its warm starts.
#[derive(Debug, Clone, Copy, Default)]
struct Track {
    t: f64,
    v: f64,
    h: f64,
    steps: usize,
    newton_iters: usize,
    /// The accepted point before `(t, v)`, for the warm-started Newton
    /// guess; `None` across discontinuities (start, snap restarts).
    last_accepted: Option<(f64, f64)>,
    /// Voltage change of the last accepted step, for step growth.
    dv_step: f64,
}

/// A family member riding the carrier's trajectory: its load index and
/// its first trigger voltage (`None` for a quiet member, which rides to
/// the end).
#[derive(Debug, Clone, Copy)]
struct Rider {
    member: usize,
    trigger: Option<f64>,
}

/// A family member that left the shared trajectory at an accepted step:
/// the integrator state it resumes from.
#[derive(Debug, Clone, Default)]
struct Fork {
    member: usize,
    track: Track,
    /// The trace's last two points: a snap interpolates inside their
    /// segment.
    tail: [(f64, f64); 2],
    warm_p: WarmStart,
    warm_n: WarmStart,
}

/// Step budget of one trajectory.
const MAX_STEPS: usize = 200_000;
/// Smallest timestep the step-size control halves down to, seconds.
const H_MIN: f64 = 1e-15;
/// Largest timestep, seconds.
const H_MAX: f64 = 2e-10;

/// The constants of one stage solve, shared by every member of a family.
struct Drive<'s> {
    stage: &'s Stage,
    switching: usize,
    input: &'s Waveform,
    ev_p: NetworkEval<'s>,
    ev_n: NetworkEval<'s>,
    vdd: f64,
    vth: f64,
    /// Output direction (the complement of the input's).
    rising: bool,
    t0: f64,
    input_end: f64,
    input_dur: f64,
}

impl Drive<'_> {
    /// Whether the node has reached `trigger` in the output direction.
    fn hits(&self, v: f64, trigger: f64) -> bool {
        if self.rising {
            v >= trigger
        } else {
            v <= trigger
        }
    }

    /// Whether `tr` is settled at the far rail with the input done: the end
    /// of a trajectory with no coupling event left.
    fn reached_end(&self, tr: &Track) -> bool {
        let end = if self.rising {
            0.995 * self.vdd
        } else {
            0.005 * self.vdd
        };
        self.hits(tr.v, end) && tr.t >= self.input_end
    }

    /// The victim's restart voltage after a snap (paper §2).
    fn reset_v(&self) -> f64 {
        if self.rising {
            self.vth
        } else {
            self.vdd - self.vth
        }
    }

    /// `load`'s active-coupling events `(trigger, dV)`, unordered (§2).
    fn events<'l>(&self, load: &'l Load, ctot: f64) -> impl Iterator<Item = (f64, f64)> + 'l {
        let (vdd, vth, rising) = (self.vdd, self.vth, self.rising);
        load.couplings
            .iter()
            .filter(|c| c.mode == CouplingMode::Active)
            .map(move |c| {
                let dv = vdd * c.c / ctot;
                let trig = if rising {
                    (vth + dv).min(0.98 * vdd)
                } else {
                    (vdd - vth - dv).max(0.02 * vdd)
                };
                (trig, dv)
            })
    }

    /// The trigger `load`'s first snap fires at, or `None` without an
    /// active coupling.
    fn first_trigger(&self, load: &Load, ctot: f64) -> Option<f64> {
        let triggers = self.events(load, ctot).map(|(trig, _)| trig);
        if self.rising {
            triggers.min_by(f64::total_cmp)
        } else {
            triggers.max_by(f64::total_cmp)
        }
    }

    /// Fills `pending` with `load`'s events in firing order.
    fn schedule(&self, load: &Load, ctot: f64, pending: &mut Vec<(f64, f64)>) {
        pending.clear();
        pending.extend(self.events(load, ctot));
        if self.rising {
            pending.sort_by(|a, b| a.0.total_cmp(&b.0));
        } else {
            pending.sort_by(|a, b| b.0.total_cmp(&a.0));
        }
    }
}

/// Loads whose every capacitance is finite. A NaN capacitance would
/// otherwise vanish into `total_cap().max(1e-18)` (since `f64::max`
/// ignores NaN) and yield a silently *optimistic* delay.
fn finite_caps(load: &Load) -> bool {
    load.cground.is_finite() && load.couplings.iter().all(|c| c.c.is_finite())
}

/// The capacitance the integrator charges: a family shares one trajectory
/// only while this is bit-equal.
fn integrated_cap(load: &Load) -> f64 {
    load.total_cap().max(1e-18)
}

impl StageResult {
    /// Stage delay: output crossing of `threshold` minus input crossing.
    pub fn delay_from(&self, input: &Waveform, threshold: f64) -> Option<f64> {
        Some(self.wave.crossing(threshold)? - input.crossing(threshold)?)
    }
}

/// Errors from [`StageSolver::solve`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StageError {
    /// A non-switching input slot has no side value.
    MissingSideValue {
        /// The slot lacking a value.
        slot: usize,
    },
    /// The switching slot index is out of range.
    BadSlot {
        /// The offending slot.
        slot: usize,
    },
    /// The integrator exceeded its step budget.
    DidNotConverge,
    /// The integration produced an invalid waveform (should not happen).
    Waveform(WaveformError),
    /// A load capacitance or side voltage is NaN or infinite. Rejected up
    /// front: a NaN capacitance would otherwise vanish into
    /// `total_cap().max(1e-18)` (since `f64::max` ignores NaN) and yield a
    /// silently *optimistic* delay.
    NonFiniteInput,
    /// The Newton iterate left the finite domain and the bisection fallback
    /// could not recover it (e.g. a poisoned device table).
    NumericalBlowup,
}

impl fmt::Display for StageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageError::MissingSideValue { slot } => {
                write!(f, "no side value for input slot {slot}")
            }
            StageError::BadSlot { slot } => write!(f, "switching slot {slot} out of range"),
            StageError::DidNotConverge => write!(f, "stage integration exceeded step budget"),
            StageError::Waveform(e) => write!(f, "invalid output waveform: {e}"),
            StageError::NonFiniteInput => {
                write!(f, "stage input has a non-finite load or side voltage")
            }
            StageError::NumericalBlowup => {
                write!(f, "stage integration produced a non-finite node voltage")
            }
        }
    }
}

impl std::error::Error for StageError {}

impl From<WaveformError> for StageError {
    fn from(e: WaveformError) -> Self {
        StageError::Waveform(e)
    }
}

/// Transistor-level solver for single stages.
#[derive(Debug, Clone, Copy)]
pub struct StageSolver<'a> {
    process: &'a Process,
    warm_newton: bool,
}

impl<'a> StageSolver<'a> {
    /// Creates a solver bound to a process (device tables, Vdd, thresholds).
    ///
    /// Warm-started Newton (trajectory extrapolation of the initial guess,
    /// see [`StageSolver::with_warm_newton`]) is on by default.
    pub fn new(process: &'a Process) -> Self {
        StageSolver {
            process,
            warm_newton: true,
        }
    }

    /// Enables or disables the warm-started Newton initial guess.
    ///
    /// When on, each backward-Euler step seeds its Newton iteration by
    /// linearly extrapolating the last two *accepted* trajectory points
    /// instead of starting from the previous node voltage. The guess is a
    /// pure function of the solve inputs — results stay deterministic and
    /// independent of scheduling — but it does change the converged bits
    /// (fewer, different Newton steps), so A/B comparisons against the
    /// cold-start integrator must toggle this explicitly.
    #[must_use]
    pub fn with_warm_newton(mut self, warm: bool) -> Self {
        self.warm_newton = warm;
        self
    }

    /// The process this solver evaluates against.
    pub fn process(&self) -> &Process {
        self.process
    }

    /// Solves the stage's output transition for a transition of `input` on
    /// input slot `switching`, with the remaining inputs held at
    /// `side[slot]` volts (`side` may be empty for single-input stages).
    ///
    /// The output direction is the complement of the input direction (all
    /// stages are inverting complementary CMOS).
    ///
    /// Allocates a fresh [`StageScratch`] per call; hot loops should hold a
    /// scratch and call [`StageSolver::solve_with`] instead.
    ///
    /// # Errors
    ///
    /// See [`StageError`].
    pub fn solve(
        &self,
        stage: &Stage,
        switching: usize,
        input: &Waveform,
        side: &[f64],
        load: Load,
    ) -> Result<StageResult, StageError> {
        let mut scratch = StageScratch::new();
        let solved = self.solve_with(&mut scratch, stage, switching, input, side, &load)?;
        // A family of one never forks, so the trace is the whole trajectory.
        Ok(StageResult {
            wave: solved.wave,
            snaps: std::mem::take(&mut scratch.snaps),
            raw: std::mem::take(&mut scratch.points),
            steps: solved.steps,
            newton_iters: solved.newton_iters,
        })
    }

    /// Like [`StageSolver::solve`] but reuses `scratch`'s buffers, borrows
    /// the load (the caller keeps ownership for caching layers) and skips
    /// materialising the raw trace and snap list, returning the lean
    /// [`SolvedWave`]. Results are bit-identical to [`StageSolver::solve`]
    /// for the same inputs regardless of what the scratch previously held.
    /// It is [`StageSolver::solve_family`] of one load.
    ///
    /// # Errors
    ///
    /// See [`StageError`].
    pub fn solve_with(
        &self,
        scratch: &mut StageScratch,
        stage: &Stage,
        switching: usize,
        input: &Waveform,
        side: &[f64],
        load: &Load,
    ) -> Result<SolvedWave, StageError> {
        // A family answers each of its loads exactly once.
        let mut solved = Err(StageError::DidNotConverge);
        self.solve_family(
            scratch,
            stage,
            switching,
            input,
            side,
            std::slice::from_ref(load),
            |_, r| solved = r,
        );
        solved
    }

    /// Solves one input against several loads, calling `each(i, result)`
    /// exactly once per `loads[i]`, in no particular order. Every result is
    /// bit-identical to [`StageSolver::solve_with`] of that load alone —
    /// waveform, `steps`, `newton_iters` and errors.
    ///
    /// Loads whose `total_cap()` is bit-equal share one integration. In the
    /// paper's three-phase model (§2) an active coupling loads the victim
    /// exactly like a grounded cap until its trigger `Vth + Vdd·Cc/Ctot`,
    /// so such loads follow one trajectory until a first trigger is hit.
    /// The shared trajectory is integrated once and carries a quiet load
    /// when the family has one (it rides to the end), else the active load
    /// whose first trigger is hit last. Every other active load forks off at
    /// the accepted step where its own first trigger is hit — keeping the
    /// trajectory's time, voltage, step size, counters, last two trace
    /// points and warm starts — and integrates the rest on its own.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_family(
        &self,
        scratch: &mut StageScratch,
        stage: &Stage,
        switching: usize,
        input: &Waveform,
        side: &[f64],
        loads: &[Load],
        mut each: impl FnMut(usize, Result<SolvedWave, StageError>),
    ) {
        if let Err(e) = hold_side_inputs(&mut scratch.gates, stage, switching, side) {
            for member in 0..loads.len() {
                each(member, Err(e.clone()));
            }
            return;
        }
        let t0 = input.start_time();
        let input_end = input.end_time();
        let d = Drive {
            stage,
            switching,
            input,
            ev_p: NetworkEval::new(self.process, DeviceType::Pmos),
            ev_n: NetworkEval::new(self.process, DeviceType::Nmos),
            vdd: self.process.vdd,
            vth: self.process.coupling_vth,
            rising: !input.is_rising(),
            t0,
            input_end,
            input_dur: (input_end - t0).max(1e-14),
        };
        for (i, load) in loads.iter().enumerate() {
            if !finite_caps(load) {
                each(i, Err(StageError::NonFiniteInput));
                continue;
            }
            let ctot = integrated_cap(load);
            let joins = |l: &Load| finite_caps(l) && integrated_cap(l).to_bits() == ctot.to_bits();
            // A load sharing an earlier load's cap rode that family.
            if loads[..i].iter().any(joins) {
                continue;
            }
            let family = || (i..loads.len()).filter(|&m| joins(&loads[m]));
            let trigger = |m: usize| d.first_trigger(&loads[m], ctot);
            // The carrier forks last: a quiet member, else the latest first
            // trigger (ties fork at the same step).
            let last_hit = |a: &usize, b: &usize| match (trigger(*a), trigger(*b)) {
                (Some(x), Some(y)) if d.rising => x.total_cmp(&y),
                (Some(x), Some(y)) => y.total_cmp(&x),
                (x, y) => x.is_none().cmp(&y.is_none()),
            };
            let carrier = family().max_by(last_hit).unwrap_or(i);
            scratch.riders.clear();
            scratch
                .riders
                .extend(family().filter(|&m| m != carrier).map(|member| Rider {
                    member,
                    trigger: trigger(member),
                }));
            self.solve_carrier(scratch, &d, ctot, loads, carrier, &mut each);
        }
    }

    /// Integrates a family's shared trajectory for its `carrier`, answers
    /// the carrier and the riders that never left it, then resumes and
    /// answers every fork.
    fn solve_carrier(
        &self,
        scratch: &mut StageScratch,
        d: &Drive,
        ctot: f64,
        loads: &[Load],
        carrier: usize,
        each: &mut impl FnMut(usize, Result<SolvedWave, StageError>),
    ) {
        d.schedule(&loads[carrier], ctot, &mut scratch.pending);
        scratch.warm_p.reset();
        scratch.warm_n.reset();
        scratch.snaps.clear();
        scratch.points.clear();
        scratch.forked = 0;
        let v0 = if d.rising { 0.0 } else { d.vdd };
        scratch.points.push((d.t0, v0));
        let mut tr = Track {
            t: d.t0,
            v: v0,
            h: (d.input_dur / 24.0).clamp(1e-13, H_MAX),
            ..Track::default()
        };
        let shared = self.integrate(d, ctot, scratch, &mut tr, false);
        let solved = shared.and_then(|()| self.finish(d, scratch, &tr));
        // Riders still aboard are quiet twins of a quiet carrier, or met the
        // carrier's failure before their first trigger.
        for rider in &scratch.riders {
            each(rider.member, solved.clone());
        }
        scratch.riders.clear();
        each(carrier, solved);
        for k in 0..scratch.forked {
            let StageScratch {
                points,
                warm_p,
                warm_n,
                snaps,
                pending,
                forks,
                ..
            } = &mut *scratch;
            let fork = &forks[k];
            points.clear();
            points.extend_from_slice(&fork.tail);
            warm_p.copy_from(&fork.warm_p);
            warm_n.copy_from(&fork.warm_n);
            snaps.clear();
            let (member, mut tr) = (fork.member, fork.track);
            d.schedule(&loads[member], ctot, pending);
            let solved = self
                .integrate(d, ctot, scratch, &mut tr, true)
                .and_then(|()| self.finish(d, scratch, &tr));
            each(member, solved);
        }
    }

    /// Integrates `tr` until its trajectory is done. A `resumed` fork first
    /// settles the step it forked at. Riders leave at the accepted step
    /// where their first trigger is hit, or where the shared trajectory
    /// ends, and are parked in the scratch's forks.
    fn integrate(
        &self,
        d: &Drive,
        ctot: f64,
        scratch: &mut StageScratch,
        tr: &mut Track,
        resumed: bool,
    ) -> Result<(), StageError> {
        let StageScratch {
            gates,
            pending,
            points,
            snaps,
            warm_p,
            warm_n,
            riders,
            forks,
            forked,
        } = scratch;
        if resumed && settle(d, tr, pending, points, snaps) {
            return Ok(());
        }
        loop {
            self.advance(d, ctot, gates, tr, warm_p, warm_n, points)?;
            if riders.iter().any(|r| r.trigger.is_some()) {
                let ending = pending.is_empty() && d.reached_end(tr);
                riders.retain(|r| {
                    let leaves = r.trigger.is_some_and(|trig| ending || d.hits(tr.v, trig));
                    if leaves {
                        if *forked == forks.len() {
                            forks.push(Fork::default());
                        }
                        let fork = &mut forks[*forked];
                        *forked += 1;
                        fork.member = r.member;
                        fork.track = *tr;
                        fork.tail = [points[points.len() - 2], points[points.len() - 1]];
                        fork.warm_p.copy_from(warm_p);
                        fork.warm_n.copy_from(warm_n);
                    }
                    !leaves
                });
            }
            if settle(d, tr, pending, points, snaps) {
                return Ok(());
            }
        }
    }

    /// Takes one accepted backward-Euler step, redoing overly large ones
    /// at half the step, and appends it to the trace.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn advance(
        &self,
        d: &Drive,
        ctot: f64,
        gates: &mut [f64],
        tr: &mut Track,
        warm_p: &mut WarmStart,
        warm_n: &mut WarmStart,
        points: &mut Vec<(f64, f64)>,
    ) -> Result<(), StageError> {
        let vdd = d.vdd;
        loop {
            tr.steps += 1;
            if tr.steps > MAX_STEPS {
                return Err(StageError::DidNotConverge);
            }
            // Keep resolution while the input is still moving.
            let h_eff = if tr.t < d.input_end {
                tr.h.min(d.input_dur / 10.0)
            } else {
                tr.h
            };
            let t1 = tr.t + h_eff;
            let vin = d.input.value_at(t1).clamp(0.0, vdd);
            gates[d.switching] = vin;

            // Backward Euler: ctot*(v1 - v)/h = i_net(t1, v1), Newton on v1.
            // Warm start: extrapolate the last two accepted points to t1 —
            // on the smooth segments between snaps the trajectory is locally
            // linear, so the seed lands within one Newton step of the root.
            let v = tr.v;
            let mut v1 = v;
            if self.warm_newton {
                if let Some((tp, vp)) = tr.last_accepted {
                    let dt = tr.t - tp;
                    if dt > 0.0 {
                        let guess = v + (v - vp) / dt * h_eff;
                        if guess.is_finite() {
                            v1 = guess.clamp(-0.5, vdd + 0.5);
                        }
                    }
                }
            }
            for _ in 0..14 {
                tr.newton_iters += 1;
                let pu = d.ev_p.current(&d.stage.pullup, v1, vdd, gates, warm_p);
                let pd = d.ev_n.current(&d.stage.pulldown, v1, 0.0, gates, warm_n);
                let i_net = -(pu.i + pd.i); // current *into* the output node
                let di_dv = -(pu.di_da + pd.di_da);
                let g = ctot * (v1 - v) / h_eff - i_net;
                let dg = ctot / h_eff - di_dv;
                if dg.abs() < 1e-30 {
                    break;
                }
                let step = g / dg;
                let next = v1 - step;
                if next.is_finite() {
                    v1 = next.clamp(-0.5, vdd + 0.5);
                    if step.abs() < 1e-6 {
                        break;
                    }
                } else {
                    // Newton blew up (non-finite residual or derivative, e.g.
                    // a corrupted table entry): damp to a bisection step
                    // toward the midpoint of the static bracket
                    // [-0.5, vdd + 0.5] so the iterate stays finite.
                    v1 = 0.5 * (v1 + 0.5 * vdd);
                }
            }
            if !v1.is_finite() {
                return Err(StageError::NumericalBlowup);
            }

            // Step-size control: redo overly large steps.
            let dv_step = (v1 - v).abs();
            if dv_step > vdd / 12.0 && h_eff > 2.0 * H_MIN {
                tr.h = (h_eff * 0.5).max(H_MIN);
                continue;
            }
            tr.last_accepted = Some((tr.t, v));
            tr.t = t1;
            tr.v = v1;
            tr.dv_step = dv_step;
            points.push((t1, v1));
            return Ok(());
        }
    }

    /// The propagated waveform of a finished trajectory: everything before
    /// the last snap is discarded and the waveform restarts at `Vth`
    /// (paper §2).
    fn finish(
        &self,
        d: &Drive,
        scratch: &StageScratch,
        tr: &Track,
    ) -> Result<SolvedWave, StageError> {
        let (points, snaps) = (&scratch.points, &scratch.snaps);
        let start_idx = if let Some(last) = snaps.last() {
            points
                .iter()
                .position(|&(t, _)| t >= last.time + 0.5e-15)
                .unwrap_or(points.len() - 2)
        } else {
            0
        };
        let mut final_pts: Vec<(f64, f64)> = points[start_idx..].to_vec();
        // Monotone clamp against sub-microvolt Newton noise near the rails.
        if d.rising {
            let mut run = f64::NEG_INFINITY;
            for p in &mut final_pts {
                run = run.max(p.1);
                p.1 = run;
            }
        } else {
            let mut run = f64::INFINITY;
            for p in &mut final_pts {
                run = run.min(p.1);
                p.1 = run;
            }
        }
        if final_pts.len() < 2 {
            let last = *points.last().expect("at least one point");
            final_pts = vec![(last.0 - 1e-15, d.reset_v()), last];
        }
        Ok(SolvedWave {
            wave: Waveform::new(final_pts)?.simplify(2e-3),
            steps: tr.steps,
            newton_iters: tr.newton_iters,
        })
    }
}

/// Sets the non-switching gates to their side values, rejecting a bad
/// slot, a missing side value or a non-finite one.
fn hold_side_inputs(
    gates: &mut Vec<f64>,
    stage: &Stage,
    switching: usize,
    side: &[f64],
) -> Result<(), StageError> {
    let n_slots = stage.inputs.len();
    if switching >= n_slots {
        return Err(StageError::BadSlot { slot: switching });
    }
    gates.clear();
    gates.resize(n_slots, 0.0);
    for (slot, gate) in gates.iter_mut().enumerate() {
        if slot == switching {
            continue;
        }
        *gate = *side
            .get(slot)
            .ok_or(StageError::MissingSideValue { slot })?;
    }
    if gates.iter().any(|g| !g.is_finite()) {
        return Err(StageError::NonFiniteInput);
    }
    Ok(())
}

/// Fires the coupling events `tr`'s accepted step reached (§2: snap back
/// to `Vth` when a trigger is hit), grows the step when the node barely
/// moved, and reports whether the trajectory is done.
#[inline(always)]
fn settle(
    d: &Drive,
    tr: &mut Track,
    pending: &mut Vec<(f64, f64)>,
    points: &mut Vec<(f64, f64)>,
    snaps: &mut Vec<Snap>,
) -> bool {
    while let Some(&(trig, dv)) = pending.first() {
        if !d.hits(tr.v, trig) {
            break;
        }
        // Interpolate the exact crossing inside the last segment.
        let (t, v) = (tr.t, tr.v);
        let (tp, vp) = points[points.len() - 2];
        let frac = if (v - vp).abs() > 1e-15 {
            ((trig - vp) / (v - vp)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let t_cross = tp + (t - tp) * frac;
        points.pop();
        // Guard against zero-width segments.
        let t_cross = t_cross.max(tp + 1e-16);
        points.push((t_cross, trig));
        let t_after = t_cross + 1e-15;
        let reset_v = d.reset_v();
        points.push((t_after, reset_v));
        snaps.push(Snap {
            time: t_cross,
            delta_v: dv,
        });
        pending.remove(0);
        tr.t = t_after;
        tr.v = reset_v;
        // The snap is a discontinuity — extrapolating across it would
        // seed Newton far from the restarted trajectory.
        tr.last_accepted = None;
    }

    // Grow the step when the node barely moves.
    if tr.dv_step < d.vdd / 150.0 {
        tr.h = (tr.h * 1.6).min(H_MAX);
    }
    pending.is_empty() && d.reached_end(tr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_tech::{Library, Process};

    fn setup() -> (Process, Library) {
        let p = Process::c05um();
        let l = Library::c05um(&p);
        (p, l)
    }

    fn falling_input(p: &Process) -> Waveform {
        Waveform::ramp(0.0, 0.2e-9, p.vdd, 0.0).expect("ramp")
    }

    fn rising_input(p: &Process) -> Waveform {
        Waveform::ramp(0.0, 0.2e-9, 0.0, p.vdd).expect("ramp")
    }

    #[test]
    fn inverter_rise_delay_plausible() {
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = falling_input(&p);
        // FO4-ish load.
        let load = Load::grounded(4.0 * inv.input_cap[0] + 6e-15);
        let r = solver
            .solve(&inv.stages[0], 0, &input, &[], load)
            .expect("solve");
        assert!(r.wave.is_rising());
        let d = r.delay_from(&input, p.delay_threshold()).expect("delay");
        // 0.5um FO4: tens to a few hundred ps.
        assert!(d > 20e-12 && d < 500e-12, "FO4 rise delay {d}");
    }

    #[test]
    fn inverter_fall_delay_plausible() {
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = rising_input(&p);
        let load = Load::grounded(4.0 * inv.input_cap[0] + 6e-15);
        let r = solver
            .solve(&inv.stages[0], 0, &input, &[], load)
            .expect("solve");
        assert!(!r.wave.is_rising());
        let d = r.delay_from(&input, p.delay_threshold()).expect("delay");
        assert!(d > 10e-12 && d < 500e-12, "FO4 fall delay {d}");
    }

    #[test]
    fn heavier_load_is_slower() {
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = falling_input(&p);
        let d1 = solver
            .solve(&inv.stages[0], 0, &input, &[], Load::grounded(20e-15))
            .expect("light")
            .delay_from(&input, p.delay_threshold())
            .expect("delay");
        let d2 = solver
            .solve(&inv.stages[0], 0, &input, &[], Load::grounded(80e-15))
            .expect("heavy")
            .delay_from(&input, p.delay_threshold())
            .expect("delay");
        assert!(d2 > 2.0 * d1, "4x load must be much slower: {d1} vs {d2}");
    }

    #[test]
    fn nand_slower_than_inverter_for_same_load() {
        let (p, l) = setup();
        let solver = StageSolver::new(&p);
        let input = rising_input(&p); // output falls through the NMOS stack
        let load = Load::grounded(40e-15);
        let inv = l.cell("INVX1").expect("inv");
        let nand = l.cell("NAND2X1").expect("nand");
        let d_inv = solver
            .solve(&inv.stages[0], 0, &input, &[], load.clone())
            .expect("inv")
            .delay_from(&input, p.delay_threshold())
            .expect("delay");
        let d_nand = solver
            .solve(&nand.stages[0], 0, &input, &[0.0, p.vdd], load)
            .expect("nand")
            .delay_from(&input, p.delay_threshold())
            .expect("delay");
        // NAND2 NMOS is upsized 2x to compensate the stack, so the fall
        // delays are close; the stack plus higher diffusion still makes it
        // no faster than the inverter.
        assert!(
            d_nand > 0.6 * d_inv && d_nand < 1.6 * d_inv,
            "NAND2 fall {d_nand} vs INV fall {d_inv}"
        );
        // The rise arc uses a single PMOS of the same size as the inverter's
        // but carries more diffusion, so it must not be faster.
        let input_f = falling_input(&p);
        let r_inv = solver
            .solve(&inv.stages[0], 0, &input_f, &[], Load::grounded(40e-15))
            .expect("inv rise")
            .delay_from(&input_f, p.delay_threshold())
            .expect("delay");
        let r_nand = solver
            .solve(
                &nand.stages[0],
                0,
                &input_f,
                &[p.vdd, p.vdd],
                Load::grounded(40e-15),
            )
            .expect("nand rise")
            .delay_from(&input_f, p.delay_threshold())
            .expect("delay");
        assert!(
            r_nand > 0.95 * r_inv,
            "NAND2 rise {r_nand} vs INV rise {r_inv}"
        );
    }

    #[test]
    fn coupling_mode_ordering_matches_paper() {
        // best (grounded) < doubled < active, for the same coupling cap.
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = falling_input(&p);
        let cc = 15e-15;
        let mk = |mode| Load {
            cground: 25e-15,
            couplings: vec![Coupling::new(cc, mode)],
        };
        let th = p.delay_threshold();
        let d = |mode| {
            solver
                .solve(&inv.stages[0], 0, &input, &[], mk(mode))
                .expect("solve")
                .delay_from(&input, th)
                .expect("delay")
        };
        let best = d(CouplingMode::Grounded);
        let doubled = d(CouplingMode::Doubled);
        let active = d(CouplingMode::Active);
        assert!(best < doubled, "grounded {best} < doubled {doubled}");
        assert!(
            doubled < active,
            "the active model exceeds the passive doubled-cap model: {doubled} vs {active}"
        );
    }

    #[test]
    fn assisting_coupling_is_fastest() {
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = falling_input(&p);
        let th = p.delay_threshold();
        let d = |mode| {
            solver
                .solve(
                    &inv.stages[0],
                    0,
                    &input,
                    &[],
                    Load {
                        cground: 25e-15,
                        couplings: vec![Coupling::new(15e-15, mode)],
                    },
                )
                .expect("solve")
                .delay_from(&input, th)
                .expect("delay")
        };
        let assisting = d(CouplingMode::Assisting);
        let grounded = d(CouplingMode::Grounded);
        let active = d(CouplingMode::Active);
        assert!(assisting < grounded, "{assisting} < {grounded}");
        assert!(grounded < active);
    }

    #[test]
    fn active_coupling_fires_one_snap_per_cap() {
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = falling_input(&p);
        let load = Load {
            cground: 25e-15,
            couplings: vec![
                Coupling::new(8e-15, CouplingMode::Active),
                Coupling::new(5e-15, CouplingMode::Active),
                Coupling::new(3e-15, CouplingMode::Grounded),
            ],
        };
        let r = solver
            .solve(&inv.stages[0], 0, &input, &[], load)
            .expect("solve");
        assert_eq!(r.snaps.len(), 2);
        assert!(r.snaps[0].time <= r.snaps[1].time);
        // The propagated waveform restarts at Vth.
        assert!((r.wave.initial_value() - p.coupling_vth).abs() < 1.5e-2);
        assert!(r.wave.is_rising());
    }

    #[test]
    fn falling_victim_snaps_toward_vdd() {
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = rising_input(&p); // output falls
        let load = Load {
            cground: 25e-15,
            couplings: vec![Coupling::new(10e-15, CouplingMode::Active)],
        };
        let r = solver
            .solve(&inv.stages[0], 0, &input, &[], load)
            .expect("solve");
        assert_eq!(r.snaps.len(), 1);
        assert!(!r.wave.is_rising());
        assert!((r.wave.initial_value() - (p.vdd - p.coupling_vth)).abs() < 1.5e-2);
    }

    #[test]
    fn side_value_required_for_multi_input() {
        let (p, l) = setup();
        let nand = l.cell("NAND2X1").expect("nand");
        let solver = StageSolver::new(&p);
        let input = rising_input(&p);
        let err = solver
            .solve(&nand.stages[0], 0, &input, &[], Load::grounded(10e-15))
            .unwrap_err();
        assert_eq!(err, StageError::MissingSideValue { slot: 1 });
    }

    #[test]
    fn bad_slot_rejected() {
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = rising_input(&p);
        let err = solver
            .solve(&inv.stages[0], 3, &input, &[], Load::grounded(10e-15))
            .unwrap_err();
        assert_eq!(err, StageError::BadSlot { slot: 3 });
    }

    #[test]
    fn output_wave_is_full_swing_without_coupling() {
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = falling_input(&p);
        let r = solver
            .solve(&inv.stages[0], 0, &input, &[], Load::grounded(30e-15))
            .expect("solve");
        assert!(r.wave.initial_value() < 0.02 * p.vdd);
        assert!(r.wave.final_value() > 0.97 * p.vdd);
        assert!(r.snaps.is_empty());
        assert!(r.wave.points().len() <= 64, "simplified representation");
    }

    #[test]
    fn faster_input_gives_faster_output() {
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let th = p.delay_threshold();
        let fast = Waveform::ramp(0.0, 0.05e-9, p.vdd, 0.0).expect("ramp");
        let slow = Waveform::ramp(0.0, 0.8e-9, p.vdd, 0.0).expect("ramp");
        let d_fast = solver
            .solve(&inv.stages[0], 0, &fast, &[], Load::grounded(40e-15))
            .expect("fast")
            .delay_from(&fast, th)
            .expect("delay");
        let d_slow = solver
            .solve(&inv.stages[0], 0, &slow, &[], Load::grounded(40e-15))
            .expect("slow")
            .delay_from(&slow, th)
            .expect("delay");
        assert!(d_fast < d_slow, "{d_fast} vs {d_slow}");
    }

    #[test]
    fn non_finite_load_rejected_not_silently_optimistic() {
        // f64::max ignores NaN, so a NaN cap used to fall through
        // total_cap().max(1e-18) as a near-zero load — a silently fast,
        // optimistic solve. It must be a typed error instead.
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = falling_input(&p);
        for bad in [f64::NAN, f64::INFINITY] {
            let err = solver
                .solve(&inv.stages[0], 0, &input, &[], Load::grounded(bad))
                .unwrap_err();
            assert_eq!(err, StageError::NonFiniteInput);
            let err = solver
                .solve(
                    &inv.stages[0],
                    0,
                    &input,
                    &[],
                    Load {
                        cground: 20e-15,
                        couplings: vec![Coupling::new(bad, CouplingMode::Active)],
                    },
                )
                .unwrap_err();
            assert_eq!(err, StageError::NonFiniteInput);
        }
    }

    #[test]
    fn non_finite_side_value_rejected() {
        let (p, l) = setup();
        let nand = l.cell("NAND2X1").expect("nand");
        let solver = StageSolver::new(&p);
        let input = rising_input(&p);
        let err = solver
            .solve(
                &nand.stages[0],
                0,
                &input,
                &[0.0, f64::NAN],
                Load::grounded(10e-15),
            )
            .unwrap_err();
        assert_eq!(err, StageError::NonFiniteInput);
    }

    #[test]
    fn snap_extra_delay_roughly_matches_recharge_time() {
        // The worst-case extra delay of one snap is the time to recharge
        // from Vth to Vth + dV. Check it is within a factor-2 band of the
        // simple estimate dV * C / I(mid).
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let solver = StageSolver::new(&p);
        let input = falling_input(&p);
        let cc = 12e-15;
        let cg = 30e-15;
        let th = p.delay_threshold();
        let quiet = solver
            .solve(
                &inv.stages[0],
                0,
                &input,
                &[],
                Load {
                    cground: cg,
                    couplings: vec![Coupling::new(cc, CouplingMode::Grounded)],
                },
            )
            .expect("quiet")
            .delay_from(&input, th)
            .expect("delay");
        let noisy = solver
            .solve(
                &inv.stages[0],
                0,
                &input,
                &[],
                Load {
                    cground: cg,
                    couplings: vec![Coupling::new(cc, CouplingMode::Active)],
                },
            )
            .expect("noisy")
            .delay_from(&input, th)
            .expect("delay");
        let extra = noisy - quiet;
        assert!(extra > 0.0);
        let ctot = cg + cc;
        let dv = p.vdd * cc / ctot;
        // Mid-rise PMOS current of INVX1 at vgs = vdd.
        let i = p
            .table(DeviceType::Pmos)
            .ids(p.vdd, p.vdd - p.coupling_vth, 4.0e-6);
        let est = dv * ctot / i;
        assert!(
            extra > 0.3 * est && extra < 3.0 * est,
            "extra {extra} vs estimate {est}"
        );
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        // solve_with over one reused scratch must reproduce solve() exactly
        // — same waveform bits, same step and iteration counts — no matter
        // what the previous solve left in the buffers.
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let nand = l.cell("NAND2X1").expect("nand");
        let solver = StageSolver::new(&p);
        let mut scratch = StageScratch::new();
        let inputs = [falling_input(&p), rising_input(&p)];
        let loads = [
            Load::grounded(12e-15),
            Load {
                cground: 25e-15,
                couplings: vec![Coupling::new(10e-15, CouplingMode::Active)],
            },
        ];
        let nand_side = [p.vdd, p.vdd];
        let arcs: [(&Stage, &[f64]); 2] = [(&inv.stages[0], &[]), (&nand.stages[0], &nand_side)];
        for input in &inputs {
            for load in &loads {
                for &(stage, side) in &arcs {
                    let fresh = solver
                        .solve(stage, 0, input, side, load.clone())
                        .expect("fresh solve");
                    let lean = solver
                        .solve_with(&mut scratch, stage, 0, input, side, load)
                        .expect("scratch solve");
                    assert_eq!(fresh.wave, lean.wave, "waveform bits differ");
                    assert_eq!(fresh.steps, lean.steps);
                    assert_eq!(fresh.newton_iters, lean.newton_iters);
                }
            }
        }
    }

    #[test]
    fn warm_newton_cuts_iterations() {
        // The extrapolated initial guess must strictly reduce Newton work on
        // a plain smooth transition while landing on (numerically) the same
        // delay — both integrators converge to the 1e-6 V step tolerance.
        let (p, l) = setup();
        let inv = l.cell("INVX1").expect("inv");
        let warm = StageSolver::new(&p);
        let cold = StageSolver::new(&p).with_warm_newton(false);
        let input = falling_input(&p);
        let load = Load::grounded(40e-15);
        let rw = warm
            .solve(&inv.stages[0], 0, &input, &[], load.clone())
            .expect("warm");
        let rc = cold
            .solve(&inv.stages[0], 0, &input, &[], load)
            .expect("cold");
        assert!(
            rw.newton_iters < rc.newton_iters,
            "warm {} must beat cold {}",
            rw.newton_iters,
            rc.newton_iters
        );
        assert!(rw.newton_iters > 0 && rc.newton_iters >= rc.steps);
        let th = p.delay_threshold();
        let dw = rw.delay_from(&input, th).expect("warm delay");
        let dc = rc.delay_from(&input, th).expect("cold delay");
        assert!(
            (dw - dc).abs() < 0.02 * dc,
            "warm delay {dw} vs cold delay {dc}"
        );
    }

    /// Bitwise equality of two solve outcomes: waveform bits, steps and
    /// Newton iterations, or equal errors.
    fn assert_same_solve(
        got: &Result<SolvedWave, StageError>,
        want: &Result<SolvedWave, StageError>,
        what: &str,
    ) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                let bits = |s: &SolvedWave| -> Vec<(u64, u64)> {
                    s.wave
                        .points()
                        .iter()
                        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
                        .collect()
                };
                assert_eq!(bits(g), bits(w), "{what}: waveform bits");
                assert_eq!(g.steps, w.steps, "{what}: steps");
                assert_eq!(g.newton_iters, w.newton_iters, "{what}: Newton iterations");
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "{what}: error"),
            _ => panic!("{what}: family {got:?} vs alone {want:?}"),
        }
    }

    /// A family solve answers every load exactly as a solve of that load
    /// alone. The families are the macromodel grid's — at every grid slew
    /// and load, for both input shapes, the quiet load plus one active load
    /// per grid ratio — joined by a member with two active couplings, one
    /// with a doubled coupling and one with a NaN cap. Seven of the forty
    /// load/ratio pairs miss the quiet load's total cap by an ulp and so
    /// integrate alone.
    #[test]
    fn family_solve_matches_each_load_solved_alone() {
        use crate::macromodel::{GRID_LOADS, GRID_RATIOS, GRID_SLEWS};
        let (p, l) = setup();
        let solver = StageSolver::new(&p);
        let (slo, shi) = p.slew_thresholds();
        let mut alone = StageScratch::new();
        let mut shared = StageScratch::new();
        let mismatched = GRID_LOADS
            .iter()
            .flat_map(|&c| GRID_RATIOS.iter().map(move |&r| (c, r)))
            .filter(|&(c, r)| (c * (1.0 - r) + c * r).to_bits() != c.to_bits())
            .count();
        assert_eq!(mismatched, 7, "load/ratio pairs off the quiet cap");
        for (cell, slot, out_rising) in [
            ("INVX1", 0, true),
            ("NAND2X1", 1, false),
            ("NAND4X1", 3, true),
        ] {
            let stage = &l.cell(cell).expect("cell").stages[0];
            let side = crate::sensitize::side_values(stage, slot, out_rising, p.vdd).expect("side");
            // Full swing, and the snapped swing restarting at the coupling
            // threshold.
            for snapped in [false, true] {
                let swing = if snapped {
                    p.vdd - p.coupling_vth
                } else {
                    p.vdd
                };
                let (from, to) = if out_rising {
                    (swing, 0.0)
                } else {
                    (p.vdd - swing, p.vdd)
                };
                for slew in GRID_SLEWS {
                    let dur = slew * swing / (shi - slo);
                    let input =
                        Waveform::ramp(4.0 * slew + 1e-9 - 0.5 * dur, dur, from, to).expect("ramp");
                    for c in GRID_LOADS {
                        let mut loads = vec![Load::grounded(c)];
                        loads.extend(GRID_RATIOS.iter().map(|&r| Load {
                            cground: c * (1.0 - r),
                            couplings: vec![Coupling::new(c * r, CouplingMode::Active)],
                        }));
                        loads.push(Load {
                            cground: 0.5 * c,
                            couplings: vec![
                                Coupling::new(0.2 * c, CouplingMode::Active),
                                Coupling::new(0.3 * c, CouplingMode::Active),
                            ],
                        });
                        loads.push(Load {
                            cground: 0.6 * c,
                            couplings: vec![Coupling::new(0.2 * c, CouplingMode::Doubled)],
                        });
                        loads.push(Load::grounded(f64::NAN));
                        let mut got = vec![None; loads.len()];
                        solver.solve_family(
                            &mut shared,
                            stage,
                            slot,
                            &input,
                            &side,
                            &loads,
                            |m, r| {
                                assert!(got[m].is_none(), "load {m} answered twice");
                                got[m] = Some(r);
                            },
                        );
                        for (m, load) in loads.iter().enumerate() {
                            let want =
                                solver.solve_with(&mut alone, stage, slot, &input, &side, load);
                            let what =
                                format!("{cell} snapped={snapped} slew={slew} load={c} member {m}");
                            let got = got[m]
                                .as_ref()
                                .unwrap_or_else(|| panic!("{what}: unanswered"));
                            assert_same_solve(got, &want, &what);
                        }
                    }
                }
            }
        }
        // A failure every member shares reaches every member.
        let inv = l.cell("INVX1").expect("inv");
        let loads = [Load::grounded(10e-15), Load::grounded(20e-15)];
        let mut answered = 0;
        solver.solve_family(
            &mut shared,
            &inv.stages[0],
            2,
            &rising_input(&p),
            &[],
            &loads,
            |_, r| {
                assert_eq!(r, Err(StageError::BadSlot { slot: 2 }));
                answered += 1;
            },
        );
        assert_eq!(answered, loads.len());
    }
}
