//! Characterized stage macromodels: the table-lookup fast path.
//!
//! The paper's refinement loops (§5) consume only a handful of scalar
//! features of each stage response — the delay-threshold crossing, the
//! 10–90% transition time, the entry into the coupling threshold band and
//! the quiescent time. All four are smooth functions of the stage's input
//! slew, its total effective load and (for a coupled solve) the active
//! coupling ratio, which is exactly what an NLDM-style characterized table
//! captures. This module pre-characterizes each timing arc against the
//! transistor solver on a fixed grid and then answers in-grid stage solves
//! by interpolation, with a *measured, conservative* error bound:
//!
//! - **Exact load folding.** The backward-Euler integrator depends on a
//!   quiet load only through `Load::total_cap()`, and on a single active
//!   coupling only through `(ctot, c_active/ctot)` (the capacitive-divider
//!   step is `vdd * c / ctot`). A runtime load therefore maps *exactly*
//!   onto a characterization load of the same `(L, r)`; only interpolation
//!   between grid points and input-shape substitution are approximate.
//! - **Certified padding.** After building the tables, a validation pass
//!   probes grid-cell midpoints and realistic (solver-shaped, wire-
//!   stretched) inputs, measuring the worst *optimistic* residual of each
//!   tabulated quantity (table earlier/narrower than the transistor solve).
//!   That residual, inflated by a safety margin, becomes the arc's pad:
//!   reported delays are padded *later*, slews *wider*, quiescent times
//!   *later* and threshold-band entries *earlier*, so a table answer is
//!   never optimistic for max-delay analysis. The worst *pessimistic*
//!   residual plus the pad is the arc's certified bound — how far on the
//!   conservative side of the transistor solve a padded answer can land.
//! - **Bounded-error admission.** An arc whose certified bounds exceed the
//!   admission tolerances ([`TOL_DELAY`], [`TOL_SLEW`], [`TOL_AUX`]) is
//!   marked unusable and every query falls back to the full Newton solve,
//!   as does any query outside the grid, with two or more active
//!   couplings, with an assisting coupling, or with an unclassifiable
//!   input shape.
//!
//! Models live in a process-global store keyed by a stable hash of the
//! process, cell, stage, switching slot, output direction and side values
//! (see [`arc_key`]), so characterization is paid once per process however
//! many analyzers are built. Characterization itself is a deterministic
//! pure function of `(process, arc)` and the store insert is first-wins,
//! so *when* and *on which thread* an arc is characterized — by the
//! analyzer's design-driven binding, by the library-wide sweep for tools
//! and benchmarks ([`prewarm_library`]), or by replay from an on-disk
//! store ([`insert_model`] of [`ArcModel::from_bytes`]) — cannot change
//! the bits a lookup serves. The analyzer resolves each of its design's
//! arcs to a model once, when it binds its timing graph, so the solve
//! path reads a bound model and never touches this store.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use xtalk_tech::cell::{Stage, StageSignal};
use xtalk_tech::{DeviceType, Library, Process};

use crate::pwl::Waveform;
use crate::sensitize;
use crate::signature::{canon_bits, StableHasher};
use crate::stage::{Coupling, CouplingMode, Load, StageScratch, StageSolver};

/// Input-slew grid (10–90% transition time, seconds).
pub const GRID_SLEWS: [f64; 8] = [
    20e-12, 40e-12, 80e-12, 160e-12, 320e-12, 640e-12, 1200e-12, 2000e-12,
];

/// Total effective load grid (`Load::total_cap()`, farads).
pub const GRID_LOADS: [f64; 8] = [
    1.5e-15, 3e-15, 7e-15, 15e-15, 35e-15, 80e-15, 180e-15, 400e-15,
];

/// Active-coupling ratio grid (`c_active / ctot`) for the coupled slices.
/// Quiet solves use a dedicated `r = 0` slice; ratios below the first grid
/// point fall back to Newton rather than interpolating across the snap
/// discontinuity at `r = 0`.
pub const GRID_RATIOS: [f64; 5] = [0.03, 0.1, 0.2, 0.32, 0.5];

/// Admission tolerance on the certified delay bound, seconds.
pub const TOL_DELAY: f64 = 40.0e-12;
/// Admission tolerance on the certified output-slew bound, seconds.
pub const TOL_SLEW: f64 = 90.0e-12;
/// Admission tolerance on the auxiliary (threshold-band entry, quiescent
/// time) bounds, seconds. These only shift coupling-overlap decisions — in
/// the conservative direction — so they tolerate more than the delay pad.
pub const TOL_AUX: f64 = 180.0e-12;

/// Safety margin multiplied onto the worst measured optimistic residual.
const PAD_MARGIN: f64 = 1.25;
/// Absolute floor added to every pad, seconds.
const PAD_FLOOR: f64 = 0.1e-12;
/// Table format / grid revision, part of every arc key.
/// v5: the process token carries the PVT corner signature, so tables
/// characterized at one corner are never served at another.
const GRID_VERSION: u64 = 5;
/// Minimum time separation between synthesized waveform points.
const EPS_T: f64 = 1e-13;

const NS: usize = GRID_SLEWS.len();
const NL: usize = GRID_LOADS.len();
const NR: usize = GRID_RATIOS.len();

/// Serialized length of one format-v1 [`ArcModel`]: version and usable
/// bytes, 11 scalar doubles, two quiet slices and two active slices of
/// four tables each.
const MODEL_V1_LEN: usize = 2 + 11 * 8 + 2 * 4 * (NS * NL) * 8 + 2 * 4 * (NR * NS * NL) * 8;

/// The two input/output waveform classes the solver produces.
///
/// A quiet solve swings rail to rail; a solve with an active coupling is
/// restarted at the coupling threshold (`Vth` rising, `Vdd − Vth` falling)
/// after the last snap, so its waveform begins *at* the threshold-band
/// boundary. Waveforms starting anywhere else are unclassifiable and fall
/// back to Newton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputShape {
    /// Full rail-to-rail swing.
    Full,
    /// Snapped partial swing restarting at the coupling threshold.
    Snapped,
}

/// Number of [`FallbackReason`] histogram buckets.
pub const FALLBACK_REASONS: usize = 5;

/// Why a table lookup declined a query and fell back to the Newton solver.
///
/// The discriminant indexes the fallback-reason histograms
/// (`[usize; FALLBACK_REASONS]`) carried through the pass counters, the
/// mode report and the serve stats — the data needed to attack the
/// residual fallback population (grow a grid axis, admit a load family...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The total (or sub-floor base) load sits off the load grid.
    OutOfGridLoad = 0,
    /// The input slew sits off the slew grid.
    OutOfGridSlew = 1,
    /// The load carries an assisting (or malformed) coupling.
    AssistingCoupling = 2,
    /// Family rule: a structural worst-case labeling (doubled coupling or
    /// all-active ratio) leaves the grid, so no labeling is served.
    FamilyRule = 3,
    /// Unusable model, wrong direction, or unclassifiable input/output
    /// waveform shape.
    Shape = 4,
}

impl FallbackReason {
    /// Short telemetry label of this reason.
    pub fn label(self) -> &'static str {
        match self {
            FallbackReason::OutOfGridLoad => "load",
            FallbackReason::OutOfGridSlew => "slew",
            FallbackReason::AssistingCoupling => "assist",
            FallbackReason::FamilyRule => "family",
            FallbackReason::Shape => "shape",
        }
    }

    /// All reasons, in histogram-index order.
    pub fn all() -> [FallbackReason; FALLBACK_REASONS] {
        [
            FallbackReason::OutOfGridLoad,
            FallbackReason::OutOfGridSlew,
            FallbackReason::AssistingCoupling,
            FallbackReason::FamilyRule,
            FallbackReason::Shape,
        ]
    }
}

/// Voltage ladder of one characterization, precomputed from the process.
#[derive(Debug, Clone, Copy)]
struct Volts {
    vdd: f64,
    vth: f64,
    th: f64,
    slo: f64,
    shi: f64,
}

impl Volts {
    /// The ladder must be strictly ordered for the synthesized waveform
    /// point sequences to be monotone: `0 < vth < slo < th < shi <
    /// vdd − vth < vdd`.
    fn of(process: &Process) -> Option<Volts> {
        let vdd = process.vdd;
        let vth = process.coupling_vth;
        let th = process.delay_threshold();
        let (slo, shi) = process.slew_thresholds();
        let ordered = 0.0 < vth && vth < slo && slo < th && th < shi && shi < vdd - vth;
        ordered.then_some(Volts {
            vdd,
            vth,
            th,
            slo,
            shi,
        })
    }
}

/// The four tabulated response features of one solve.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    /// Delay-threshold crossing minus the input's crossing.
    delay: f64,
    /// 10–90% output transition time.
    slew: f64,
    /// Coupling-band entry minus the output's threshold crossing (≤ 0).
    aoff: f64,
    /// Quiescent crossing minus the output's threshold crossing (≥ 0).
    qoff: f64,
}

/// One shape's tables over `[ratio][slew][load]` (`nr == 1` for the quiet
/// slice).
#[derive(Debug, Clone, Default)]
struct SliceTables {
    delay: Vec<f64>,
    slew: Vec<f64>,
    aoff: Vec<f64>,
    qoff: Vec<f64>,
}

/// A characterized timing arc: interpolation tables plus certified pads.
#[derive(Debug, Clone, Default)]
pub struct ArcModel {
    usable: bool,
    vdd: f64,
    vth: f64,
    th: f64,
    slo: f64,
    shi: f64,
    /// Quiet (`r = 0`) tables, indexed by input shape.
    quiet: [SliceTables; 2],
    /// Active-coupling tables over [`GRID_RATIOS`], indexed by input shape.
    active: [SliceTables; 2],
    pad_delay: f64,
    pad_slew: f64,
    pad_aoff: f64,
    pad_qoff: f64,
    cert_delay: f64,
    cert_slew: f64,
}

/// Process-global model-store statistics, for telemetry. Table hits and
/// fallbacks are solver work, counted per analysis by the caller.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Models in the process-global store.
    pub models: usize,
    /// Models that passed bounded-error admission.
    pub usable: usize,
    /// Lifetime characterization Newton solves performed by
    /// [`characterize_arc`] (grid sweep plus validation probes) — the cost
    /// the characterization store amortizes away.
    pub char_solves: usize,
}

impl ArcModel {
    /// Whether the arc passed bounded-error admission.
    pub fn usable(&self) -> bool {
        self.usable
    }

    /// The certified delay bound: on the validation sample, reported table
    /// delays are never earlier than the transistor solve's and exceed it
    /// by at most this value.
    pub fn certified_delay_bound(&self) -> f64 {
        self.cert_delay
    }

    /// The certified output-slew bound (never narrower, wider by at most
    /// this value).
    pub fn certified_slew_bound(&self) -> f64 {
        self.cert_slew
    }

    /// Serializes the model for the on-disk characterization store:
    /// format v1, fixed length, little-endian doubles. The byte image is a
    /// pure function of the table contents, so identical models serialize
    /// identically on every platform.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MODEL_V1_LEN);
        out.push(1u8);
        out.push(self.usable as u8);
        for x in [
            self.vdd,
            self.vth,
            self.th,
            self.slo,
            self.shi,
            self.pad_delay,
            self.pad_slew,
            self.pad_aoff,
            self.pad_qoff,
            self.cert_delay,
            self.cert_slew,
        ] {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for slice in self.quiet.iter().chain(self.active.iter()) {
            for table in [&slice.delay, &slice.slew, &slice.aoff, &slice.qoff] {
                for &x in table.iter() {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        out
    }

    /// Deserializes a format-v1 model, or `None` when the bytes are not a
    /// well-formed record of the exact expected length with finite values
    /// throughout — the store treats `None` as corruption: skip the
    /// record and re-characterize, never serve it.
    pub fn from_bytes(bytes: &[u8]) -> Option<ArcModel> {
        fn read_f64(bytes: &[u8], at: &mut usize) -> Option<f64> {
            let head: [u8; 8] = bytes.get(*at..*at + 8)?.try_into().ok()?;
            *at += 8;
            let x = f64::from_le_bytes(head);
            x.is_finite().then_some(x)
        }
        fn read_slice(bytes: &[u8], at: &mut usize, n: usize) -> Option<SliceTables> {
            let mut tables: [Vec<f64>; 4] = Default::default();
            for table in &mut tables {
                let mut t = vec![0.0; n];
                for x in &mut t {
                    *x = read_f64(bytes, at)?;
                }
                *table = t;
            }
            let [delay, slew, aoff, qoff] = tables;
            Some(SliceTables {
                delay,
                slew,
                aoff,
                qoff,
            })
        }
        if bytes.len() != MODEL_V1_LEN || bytes[0] != 1 || bytes[1] > 1 {
            return None;
        }
        let usable = bytes[1] == 1;
        let mut at = 2usize;
        let mut scalars = [0.0f64; 11];
        for s in &mut scalars {
            *s = read_f64(bytes, &mut at)?;
        }
        let quiet = [
            read_slice(bytes, &mut at, NS * NL)?,
            read_slice(bytes, &mut at, NS * NL)?,
        ];
        let active = [
            read_slice(bytes, &mut at, NR * NS * NL)?,
            read_slice(bytes, &mut at, NR * NS * NL)?,
        ];
        let [vdd, vth, th, slo, shi, pad_delay, pad_slew, pad_aoff, pad_qoff, cert_delay, cert_slew] =
            scalars;
        Some(ArcModel {
            usable,
            vdd,
            vth,
            th,
            slo,
            shi,
            quiet,
            active,
            pad_delay,
            pad_slew,
            pad_aoff,
            pad_qoff,
            cert_delay,
            cert_slew,
        })
    }

    /// Answers a stage solve by table lookup, or `None` when the query
    /// must fall back to the transistor solver. A `Some` waveform is
    /// conservatively padded: its delay-threshold crossing is never
    /// earlier than the true solve's (within the certified bound), its
    /// slew never narrower, its quiescent time never earlier and its
    /// coupling-band entry never later.
    pub fn lookup(&self, in_wave: &Waveform, load: &Load, out_rising: bool) -> Option<Waveform> {
        self.lookup_classified(in_wave, load, out_rising).ok()
    }

    /// [`lookup`](Self::lookup) with the decline classified: `Err` carries
    /// *why* the query must fall back to the transistor solver, feeding
    /// the fallback-reason histogram.
    pub fn lookup_classified(
        &self,
        in_wave: &Waveform,
        load: &Load,
        out_rising: bool,
    ) -> Result<Waveform, FallbackReason> {
        if !self.usable {
            return Err(FallbackReason::Shape);
        }
        // The solver inverts: the input must run opposite to the output.
        if in_wave.is_rising() == out_rising {
            return Err(FallbackReason::Shape);
        }
        let shape = self
            .classify(in_wave, !out_rising)
            .ok_or(FallbackReason::Shape)?;
        let slew_in = in_wave
            .slew(self.slo, self.shi)
            .ok_or(FallbackReason::Shape)?;
        let t_in = in_wave.crossing(self.th).ok_or(FallbackReason::Shape)?;
        let (ctot, ratio) = fold_load(load)?;
        let (si, fs) = axis(&GRID_SLEWS, slew_in).ok_or(FallbackReason::OutOfGridSlew)?;
        let (li, fl) = axis(&GRID_LOADS, ctot).ok_or(FallbackReason::OutOfGridLoad)?;
        let sh = shape as usize;
        let sample = match ratio {
            None => {
                let t = &self.quiet[sh];
                Sample {
                    delay: bilerp(&t.delay, 0, si, fs, li, fl),
                    slew: bilerp(&t.slew, 0, si, fs, li, fl),
                    aoff: bilerp(&t.aoff, 0, si, fs, li, fl),
                    qoff: bilerp(&t.qoff, 0, si, fs, li, fl),
                }
            }
            Some(r) => {
                // Ratios below the grid floor (tiny aggressors, or a small
                // active subset of a larger family) are clamped up: the
                // true delay grows with the ratio, so sampling at the
                // floor errs late. `fold_load` capped the family's total
                // ratio, so only the low side can clamp.
                let clamped = r < GRID_RATIOS[0];
                let (ri, fr) =
                    axis(&GRID_RATIOS, r.max(GRID_RATIOS[0])).ok_or(FallbackReason::FamilyRule)?;
                let t = &self.active[sh];
                let mut s = Sample {
                    delay: trilerp(&t.delay, ri, fr, si, fs, li, fl),
                    slew: trilerp(&t.slew, ri, fr, si, fs, li, fl),
                    aoff: trilerp(&t.aoff, ri, fr, si, fs, li, fl),
                    qoff: trilerp(&t.qoff, ri, fr, si, fs, li, fl),
                };
                if clamped {
                    // A clamped query's truth sits between the quiet slice
                    // (its `r -> 0` limit) and the floor slice. Slew and
                    // quiescent offset *shrink* with the ratio (the snap
                    // restart discards the early tail), so the floor
                    // sample under-reports them for a tiny-`r` query; the
                    // band entry grows. Merge in the quiet slice on the
                    // conservative side of each: wider slew, later quiet,
                    // earlier band entry. Delay needs no merge — the floor
                    // sample already bounds the smaller-`r` truth.
                    let q = &self.quiet[sh];
                    s.slew = s.slew.max(bilerp(&q.slew, 0, si, fs, li, fl));
                    s.qoff = s.qoff.max(bilerp(&q.qoff, 0, si, fs, li, fl));
                    s.aoff = s.aoff.min(bilerp(&q.aoff, 0, si, fs, li, fl));
                }
                s
            }
        };
        let padded = Sample {
            delay: sample.delay + self.pad_delay,
            slew: sample.slew + self.pad_slew,
            aoff: sample.aoff - self.pad_aoff,
            qoff: sample.qoff + self.pad_qoff,
        };
        let out_shape = if ratio.is_some() {
            InputShape::Snapped
        } else {
            InputShape::Full
        };
        self.synthesize(out_rising, out_shape, t_in + padded.delay, &padded)
            .ok_or(FallbackReason::Shape)
    }

    /// Classifies a waveform by its initial value against the coupling
    /// threshold band of its direction.
    fn classify(&self, wave: &Waveform, rising: bool) -> Option<InputShape> {
        let v0 = wave.initial_value();
        let band = 0.5 * self.vth;
        let (full_rail, snap_v) = if rising {
            (0.0, self.vth)
        } else {
            (self.vdd, self.vdd - self.vth)
        };
        if (v0 - full_rail).abs() <= band {
            Some(InputShape::Full)
        } else if (v0 - snap_v).abs() <= band {
            Some(InputShape::Snapped)
        } else {
            None
        }
    }

    /// Builds the conservative output waveform: a piecewise-linear wave
    /// whose delay-threshold crossing is `t_cross`, whose 10–90% slew is
    /// `s.slew`, whose coupling-band entry is `t_cross + s.aoff` and whose
    /// quiescent crossing is `t_cross + s.qoff`.
    fn synthesize(
        &self,
        out_rising: bool,
        shape: InputShape,
        t_cross: f64,
        s: &Sample,
    ) -> Option<Waveform> {
        let (vdd, vth, th, slo, shi) = (self.vdd, self.vth, self.th, self.slo, self.shi);
        let span = shi - slo;
        if s.slew <= 0.0 || !s.slew.is_finite() || span <= 0.0 {
            return None;
        }
        // Main-line time of a voltage on the rising transition.
        let line = |v: f64| t_cross + s.slew * (v - th) / span;
        let (t_lo, t_hi) = (line(slo), line(shi));
        if out_rising {
            let t_band = (t_cross + s.aoff).min(t_lo - EPS_T);
            let quiet_v = vdd - vth;
            let t_q = (t_cross + s.qoff).max(t_hi + EPS_T);
            let t_end = t_hi + (t_q - t_hi) * (vdd - shi) / (quiet_v - shi);
            let mut pts = Vec::with_capacity(5);
            if shape == InputShape::Full {
                pts.push((t_band - s.slew * vth / span, 0.0));
            }
            pts.extend([(t_band, vth), (t_lo, slo), (t_hi, shi), (t_end, vdd)]);
            Waveform::new(pts).ok()
        } else {
            // Falling: mirror of the rising ladder. The band entry is the
            // `vdd − vth` crossing (early), the quiescent is `vth` (late).
            let fline = |v: f64| t_cross + s.slew * (th - v) / span;
            let (t_fhi, t_flo) = (fline(shi), fline(slo));
            let t_band = (t_cross + s.aoff).min(t_fhi - EPS_T);
            let t_q = (t_cross + s.qoff).max(t_flo + EPS_T);
            let t_end = t_flo + (t_q - t_flo) * slo / (slo - vth);
            let mut pts = Vec::with_capacity(5);
            if shape == InputShape::Full {
                pts.push((t_band - s.slew * vth / span, vdd));
            }
            pts.extend([
                (t_band, vdd - vth),
                (t_fhi, shi),
                (t_flo, slo),
                (t_end, 0.0),
            ]);
            Waveform::new(pts).ok()
        }
    }
}

/// Folds a runtime load into the table coordinates `(ctot, r)`: `None`
/// ratio for a quiet solve, `Some(sum of active caps / ctot)` for a load
/// with active aggressors. Returns the classified decline (fall back to
/// Newton) when the load is not tabulated.
///
/// The admission predicate is deliberately a function of the load's
/// *structure* (ground cap plus coupling caps), never of the coupling-mode
/// labels a policy attached — the **family rule**. The five analysis modes
/// differ exactly in those labels, and the paper's cross-mode orderings
/// (best <= doubled, best <= one-step <= worst) only survive the table's
/// certified pessimistic padding when every mode routes a given arc
/// through the *same* engine: a padded table answer in one mode next to an
/// exact Newton answer in another can invert an ordering by up to the pad.
/// The structural conditions therefore quantify over every labeling a
/// mode can attach: `cground + sum(c)` (any all-grounded labeling) must
/// sit on the load grid, the doubled treatment `cground + 2*sum(c)` must
/// too, and the all-active ratio `sum(c) / base` — the largest any subset
/// can reach — must not exceed the top of the ratio grid.
///
/// **Multi-aggressor lumping.** A labeling with several active couplings
/// is answered as one equivalent aggressor of capacitance `sum of active
/// caps`. In the paper's three-phase model each active coupling fires one
/// snap when the victim ratchets up to its trigger `Vth + Vdd*c_i/Ctot`,
/// resetting the output to `Vth`; the total ratchet distance climbed is
/// `Vdd * sum(c_i) / Ctot` — exactly the single climb of the lumped
/// aggressor's one snap. The lumped restart happens no earlier than the
/// true last snap (its trigger dominates every individual one), and the
/// victim's drive strengthens over the snap window, so serving the climb
/// early (lumped) is slower than serving it late (staggered): the lumped
/// answer errs pessimistic. Ratios below the grid floor are clamped up in
/// [`ArcModel::lookup`] with a quiet-slice guard rather than rejected, so
/// admission needs no per-coupling floor.
fn fold_load(load: &Load) -> Result<(f64, Option<f64>), FallbackReason> {
    let ctot = load.total_cap();
    if !ctot.is_finite() || ctot <= 0.0 {
        return Err(FallbackReason::OutOfGridLoad);
    }
    let mut csum = 0.0;
    let mut active = 0.0;
    for c in &load.couplings {
        if c.mode == CouplingMode::Assisting || !c.c.is_finite() || c.c < 0.0 {
            return Err(FallbackReason::AssistingCoupling);
        }
        csum += c.c;
        if c.mode == CouplingMode::Active {
            active += c.c;
        }
    }
    if csum == 0.0 {
        // Pure grounded load: identical query under every mode.
        return Ok((ctot, None));
    }
    let base = load.cground + csum;
    if base < GRID_LOADS[0] {
        return Err(FallbackReason::OutOfGridLoad);
    }
    let doubled = load.cground + 2.0 * csum;
    if doubled > GRID_LOADS[NL - 1] || csum / base.max(1e-18) > GRID_RATIOS[NR - 1] {
        return Err(FallbackReason::FamilyRule);
    }
    if active <= 0.0 {
        return Ok((ctot, None));
    }
    Ok((base, Some(active / base.max(1e-18))))
}

/// Locates `x` on a grid axis: the lower cell index and the interpolation
/// fraction, or `None` outside the (closed) grid span.
fn axis(grid: &[f64], x: f64) -> Option<(usize, f64)> {
    let n = grid.len();
    if !x.is_finite() || x < grid[0] || x > grid[n - 1] {
        return None;
    }
    let mut i = 0;
    while i + 2 < n && x >= grid[i + 1] {
        i += 1;
    }
    let w = grid[i + 1] - grid[i];
    Some((i, ((x - grid[i]) / w).clamp(0.0, 1.0)))
}

fn bilerp(vals: &[f64], ri: usize, si: usize, fs: f64, li: usize, fl: f64) -> f64 {
    let at = |s: usize, l: usize| vals[(ri * NS + s) * NL + l];
    let lo = at(si, li) * (1.0 - fl) + at(si, li + 1) * fl;
    let hi = at(si + 1, li) * (1.0 - fl) + at(si + 1, li + 1) * fl;
    lo * (1.0 - fs) + hi * fs
}

fn trilerp(vals: &[f64], ri: usize, fr: f64, si: usize, fs: f64, li: usize, fl: f64) -> f64 {
    let lo = bilerp(vals, ri, si, fs, li, fl);
    let hi = bilerp(vals, ri + 1, si, fs, li, fl);
    lo * (1.0 - fr) + hi * fr
}

/// Builds the characterization input for one grid point: a linear ramp of
/// the given 10–90% slew crossing the delay threshold at `t_cross`, either
/// rail-to-rail or restarted at the coupling threshold.
fn ramp_input(
    v: &Volts,
    rising: bool,
    shape: InputShape,
    slew: f64,
    t_cross: f64,
) -> Option<Waveform> {
    let span = v.shi - v.slo;
    let (swing, from, to) = match (shape, rising) {
        (InputShape::Full, true) => (v.vdd, 0.0, v.vdd),
        (InputShape::Full, false) => (v.vdd, v.vdd, 0.0),
        (InputShape::Snapped, true) => (v.vdd - v.vth, v.vth, v.vdd),
        (InputShape::Snapped, false) => (v.vdd - v.vth, v.vdd - v.vth, 0.0),
    };
    let dur = slew * swing / span;
    let frac = if rising {
        (v.th - from) / (to - from)
    } else {
        (from - v.th) / (from - to)
    };
    Waveform::ramp(t_cross - dur * frac, dur, from, to).ok()
}

/// Measures the four tabulated features of a solved output waveform.
fn measure(v: &Volts, out_rising: bool, t_in_cross: f64, wave: &Waveform) -> Option<Sample> {
    let (band_v, quiet_v) = if out_rising {
        (v.vth, v.vdd - v.vth)
    } else {
        (v.vdd - v.vth, v.vth)
    };
    let t_out = wave.crossing(v.th)?;
    Some(Sample {
        delay: t_out - t_in_cross,
        slew: wave.slew(v.slo, v.shi)?,
        aoff: wave.crossing(band_v)? - t_out,
        qoff: wave.crossing(quiet_v)? - t_out,
    })
}

/// The characterization load of a grid point: `(L, r)` realised exactly as
/// the integrator folds runtime loads.
fn grid_load(l: f64, ratio: Option<f64>) -> Load {
    match ratio {
        None => Load::grounded(l),
        Some(r) => Load {
            cground: l * (1.0 - r),
            couplings: vec![Coupling::new(l * r, CouplingMode::Active)],
        },
    }
}

/// Clamps a `[ratio][slew][load]` table to be monotone non-decreasing
/// (running max) along the load axis, and optionally along the ratio
/// axis. Raising values is conservative for max-delay analysis, and
/// load-monotone tables preserve the paper's mode orderings between
/// in-grid queries that differ only in how much capacitance is switching.
/// The other axes are *not* clamped: a bigger snap genuinely shortens the
/// measured output slew and quiescent offset (the wave restarts at the
/// coupling threshold), and a slower input at a light load crosses the
/// delay threshold *before* its driver does (negative, decreasing delay),
/// so a running max along those axes would pin entries far above the
/// truth and wreck the certified bounds.
fn cummax(vals: &mut [f64], nr: usize, along_ratio: bool) {
    let idx = |r: usize, s: usize, l: usize| (r * NS + s) * NL + l;
    for r in 0..nr {
        for s in 0..NS {
            for l in 1..NL {
                vals[idx(r, s, l)] = vals[idx(r, s, l)].max(vals[idx(r, s, l - 1)]);
            }
        }
    }
    if along_ratio {
        for r in 1..nr {
            for s in 0..NS {
                for l in 0..NL {
                    vals[idx(r, s, l)] = vals[idx(r, s, l)].max(vals[idx(r - 1, s, l)]);
                }
            }
        }
    }
}

/// Characterizes one timing arc against the transistor solver and
/// certifies its interpolation error on a validation grid. Returns an
/// unusable model (every lookup falls back) when the arc does not sweep
/// cleanly or its certified pads exceed the admission tolerances.
pub fn characterize_arc(
    process: &Process,
    stage: &Stage,
    slot: usize,
    side: &[f64],
    out_rising: bool,
) -> ArcModel {
    let Some(v) = Volts::of(process) else {
        return ArcModel::default();
    };
    let solver = StageSolver::new(process);
    let mut scratch = StageScratch::new();
    let in_rising = !out_rising;

    let solve_at =
        |scratch: &mut StageScratch, shape: InputShape, slew: f64, l: f64, ratio: Option<f64>| {
            let t_cross = 4.0 * slew + 1e-9;
            let input = ramp_input(&v, in_rising, shape, slew, t_cross)?;
            let load = grid_load(l, ratio);
            CHAR_SOLVES.fetch_add(1, Ordering::Relaxed);
            let out = solver
                .solve_with(scratch, stage, slot, &input, side, &load)
                .ok()?;
            measure(&v, out_rising, t_cross, &out.wave).map(|s| (s, out.wave))
        };

    let shapes = [InputShape::Full, InputShape::Snapped];
    let mut quiet: [SliceTables; 2] = Default::default();
    let mut active: [SliceTables; 2] = Default::default();
    for (sh, &shape) in shapes.iter().enumerate() {
        let scratch = &mut scratch;
        let mut fill =
            |nr: usize, ratio_of: &dyn Fn(usize) -> Option<f64>| -> Option<SliceTables> {
                let n = nr * NS * NL;
                let mut t = SliceTables {
                    delay: vec![0.0; n],
                    slew: vec![0.0; n],
                    aoff: vec![0.0; n],
                    qoff: vec![0.0; n],
                };
                for r in 0..nr {
                    for (s, &slew) in GRID_SLEWS.iter().enumerate() {
                        for (l, &load) in GRID_LOADS.iter().enumerate() {
                            let (sample, _) = solve_at(scratch, shape, slew, load, ratio_of(r))?;
                            let i = (r * NS + s) * NL + l;
                            t.delay[i] = sample.delay;
                            t.slew[i] = sample.slew;
                            t.aoff[i] = sample.aoff;
                            t.qoff[i] = sample.qoff;
                        }
                    }
                }
                cummax(&mut t.delay, nr, true);
                cummax(&mut t.slew, nr, false);
                cummax(&mut t.qoff, nr, false);
                Some(t)
            };
        let Some(q) = fill(1, &|_| None) else {
            return ArcModel::default();
        };
        let Some(mut a) = fill(NR, &|r| Some(GRID_RATIOS[r])) else {
            return ArcModel::default();
        };
        // An opposing active aggressor never speeds the victim relative to
        // the same capacitance grounded, so clamp the active delay table to
        // the quiet baseline: cross-mode orderings (best-case <= one-step
        // <= worst-case) then survive interpolation noise at small ratios.
        for s in 0..NS {
            for l in 0..NL {
                let floor = q.delay[s * NL + l];
                for r in 0..NR {
                    let i = (r * NS + s) * NL + l;
                    if a.delay[i] < floor {
                        a.delay[i] = floor;
                    }
                }
            }
        }
        quiet[sh] = q;
        active[sh] = a;
    }

    let mut model = ArcModel {
        usable: true,
        vdd: v.vdd,
        vth: v.vth,
        th: v.th,
        slo: v.slo,
        shi: v.shi,
        quiet,
        active,
        pad_delay: 0.0,
        pad_slew: 0.0,
        pad_aoff: 0.0,
        pad_qoff: 0.0,
        cert_delay: 0.0,
        cert_slew: 0.0,
    };

    // Validation: interpolate the (clamped, unpadded) tables at off-grid
    // probes and measure the residual against a fresh transistor solve.
    let mids =
        |grid: &[f64]| -> Vec<f64> { grid.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect() };
    let mid_s = mids(&GRID_SLEWS);
    let mid_l = mids(&GRID_LOADS);
    let mid_r = mids(&GRID_RATIOS);
    let mut probes: Vec<(InputShape, f64, f64, Option<f64>)> = Vec::new();
    for &shape in &shapes {
        for (i, &s) in mid_s.iter().enumerate() {
            for (j, &l) in mid_l.iter().enumerate() {
                probes.push((shape, s, l, None));
                let r = mid_r[(i + j) % mid_r.len()];
                probes.push((shape, s, l, Some(r)));
            }
        }
    }

    // Signed residual envelope: `lo.x` is the worst `truth − interp`
    // (table too early/narrow), `hi.x` the worst `interp − truth`.
    let mut err_lo = Sample::default();
    let mut err_hi = Sample::default();
    let mut checked = 0usize;
    let mut check = |scratch: &mut StageScratch,
                     model: &ArcModel,
                     err_lo: &mut Sample,
                     err_hi: &mut Sample,
                     input: &Waveform,
                     l: f64,
                     ratio: Option<f64>|
     -> Option<()> {
        let shape = model.classify(input, in_rising)?;
        let slew_in = input.slew(v.slo, v.shi)?;
        let t_in = input.crossing(v.th)?;
        let (si, fs) = axis(&GRID_SLEWS, slew_in)?;
        let (li, fl) = axis(&GRID_LOADS, l)?;
        let sh = shape as usize;
        let interp = match ratio {
            None => {
                let t = &model.quiet[sh];
                Sample {
                    delay: bilerp(&t.delay, 0, si, fs, li, fl),
                    slew: bilerp(&t.slew, 0, si, fs, li, fl),
                    aoff: bilerp(&t.aoff, 0, si, fs, li, fl),
                    qoff: bilerp(&t.qoff, 0, si, fs, li, fl),
                }
            }
            Some(r) => {
                let (ri, fr) = axis(&GRID_RATIOS, r)?;
                let t = &model.active[sh];
                Sample {
                    delay: trilerp(&t.delay, ri, fr, si, fs, li, fl),
                    slew: trilerp(&t.slew, ri, fr, si, fs, li, fl),
                    aoff: trilerp(&t.aoff, ri, fr, si, fs, li, fl),
                    qoff: trilerp(&t.qoff, ri, fr, si, fs, li, fl),
                }
            }
        };
        let load = grid_load(l, ratio);
        CHAR_SOLVES.fetch_add(1, Ordering::Relaxed);
        let out = solver
            .solve_with(scratch, stage, slot, input, side, &load)
            .ok()?;
        let truth = measure(&v, out_rising, t_in, &out.wave)?;
        err_lo.delay = err_lo.delay.max(truth.delay - interp.delay);
        err_lo.slew = err_lo.slew.max(truth.slew - interp.slew);
        err_lo.aoff = err_lo.aoff.max(truth.aoff - interp.aoff);
        err_lo.qoff = err_lo.qoff.max(truth.qoff - interp.qoff);
        err_hi.delay = err_hi.delay.max(interp.delay - truth.delay);
        err_hi.slew = err_hi.slew.max(interp.slew - truth.slew);
        err_hi.aoff = err_hi.aoff.max(interp.aoff - truth.aoff);
        err_hi.qoff = err_hi.qoff.max(interp.qoff - truth.qoff);
        checked += 1;
        Some(())
    };

    for &(shape, s, l, ratio) in &probes {
        let t_cross = 4.0 * s + 1e-9;
        if let Some(input) = ramp_input(&v, in_rising, shape, s, t_cross) {
            let _ = check(
                &mut scratch,
                &model,
                &mut err_lo,
                &mut err_hi,
                &input,
                l,
                ratio,
            );
        }
    }
    // Realistic-shape probes: the arc's own solver outputs, mirrored into
    // the input direction, raw and wire-stretched — these fold the
    // ramp-vs-solver shape substitution error into the certified pads.
    for &(s, l) in &[
        (GRID_SLEWS[2], GRID_LOADS[2]),
        (GRID_SLEWS[3], GRID_LOADS[4]),
    ] {
        for ratio in [None, Some(GRID_RATIOS[1])] {
            let Some((_, wave)) = solve_at(&mut scratch, InputShape::Full, s, l, ratio) else {
                continue;
            };
            let as_input = mirror(&wave, v.vdd);
            for factor in [1.0, 1.3] {
                let probe = as_input.stretched_around(v.th, factor);
                for &(lp, rp) in &[(mid_l[1], None), (mid_l[3], Some(mid_r[1]))] {
                    let _ = check(
                        &mut scratch,
                        &model,
                        &mut err_lo,
                        &mut err_hi,
                        &probe,
                        lp,
                        rp,
                    );
                }
            }
        }
    }

    if checked == 0 {
        return ArcModel::default();
    }
    // Pads cover the optimistic side (so padded answers are never early /
    // narrow); the certified bound adds the worst pessimistic residual on
    // top — the total distance a padded answer can sit above the truth.
    // For `aoff` the conservative direction is *earlier* band entry, so
    // its pad covers the `hi` side and its excess the `lo` side.
    model.pad_delay = PAD_MARGIN * err_lo.delay + PAD_FLOOR;
    model.pad_slew = PAD_MARGIN * err_lo.slew + PAD_FLOOR;
    model.pad_aoff = PAD_MARGIN * err_hi.aoff + PAD_FLOOR;
    model.pad_qoff = PAD_MARGIN * err_lo.qoff + PAD_FLOOR;
    model.cert_delay = model.pad_delay + PAD_MARGIN * err_hi.delay + PAD_FLOOR;
    model.cert_slew = model.pad_slew + PAD_MARGIN * err_hi.slew + PAD_FLOOR;
    let cert_aoff = model.pad_aoff + PAD_MARGIN * err_lo.aoff + PAD_FLOOR;
    let cert_qoff = model.pad_qoff + PAD_MARGIN * err_hi.qoff + PAD_FLOOR;
    model.usable = model.cert_delay <= TOL_DELAY
        && model.cert_slew <= TOL_SLEW
        && cert_aoff <= TOL_AUX
        && cert_qoff <= TOL_AUX;
    model
}

/// Voltage mirror `(t, v) → (t, vdd − v)`: flips a waveform's direction
/// while preserving linearity and timing, exactly as the kernel mirrors
/// launch clock edges.
fn mirror(wave: &Waveform, vdd: f64) -> Waveform {
    let pts: Vec<(f64, f64)> = wave.points().iter().map(|&(t, v)| (t, vdd - v)).collect();
    Waveform::new(pts).unwrap_or_else(|_| wave.clone())
}

/// A stable token of the process's electrical identity, folded into every
/// arc key so models never cross processes. Covers the PVT corner
/// signature, the voltage ladder, default slew and the analytical device
/// parameters (the sampled device tables derive from them). The corner
/// signature alone already separates corners — the `tt` corner's
/// electrical constants are bit-identical to the base process's — so
/// certified tables are characterized and served strictly per corner.
fn process_token(process: &Process) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(process.corner_sig());
    for x in [
        process.vdd,
        process.coupling_vth,
        process.delay_threshold(),
        process.slew_thresholds().0,
        process.slew_thresholds().1,
        process.default_input_slew,
    ] {
        h.write_u64(canon_bits(x));
    }
    for dev in [DeviceType::Nmos, DeviceType::Pmos] {
        h.write_bytes(format!("{:?}", process.params(dev)).as_bytes());
    }
    h.finish()
}

/// The process-global store key of one timing arc's model.
///
/// Keyed on the process token, cell name, stage index, switching slot,
/// output direction and exact side values — everything the solve depends
/// on besides the per-query input waveform and load. Cell names are
/// assumed to identify one transistor topology per process (true of the
/// built-in library); [`clear_store`] resets the store if a test rebinds a
/// name.
pub fn arc_key(
    process: &Process,
    cell_name: &str,
    stage_in_cell: usize,
    slot: usize,
    out_rising: bool,
    side: &[f64],
) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(GRID_VERSION);
    h.write_u64(process_token(process));
    h.write_bytes(cell_name.as_bytes());
    h.write_u64(stage_in_cell as u64);
    h.write_u64(slot as u64);
    h.write_u64(out_rising as u64);
    h.write_u64(side.len() as u64);
    for &x in side {
        h.write_u64(canon_bits(x));
    }
    h.finish()
}

/// The stable process token (PVT corner signature plus electrical
/// identity) folded into every [`arc_key`], exposed for store keying
/// outside this module (the liberty table cache keys on it).
pub fn process_sig(process: &Process) -> u64 {
    process_token(process)
}

type Store = RwLock<HashMap<u64, Arc<ArcModel>>>;

fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Newton solves spent characterizing arcs (sweep + validation probes).
static CHAR_SOLVES: AtomicUsize = AtomicUsize::new(0);

/// Fetches a model from the process-global store. Analyzers call it once
/// per design arc when they bind their timing graph, never per solve.
pub fn model_for(key: u64) -> Option<Arc<ArcModel>> {
    let guard = store().read().unwrap_or_else(|e| e.into_inner());
    guard.get(&key).cloned()
}

/// Characterizes and inserts the arc's model unless the store already
/// holds it, returning the stored model either way.
pub fn ensure_model(
    key: u64,
    process: &Process,
    stage: &Stage,
    slot: usize,
    side: &[f64],
    out_rising: bool,
) -> Arc<ArcModel> {
    if let Some(m) = model_for(key) {
        return m;
    }
    let model = Arc::new(characterize_arc(process, stage, slot, side, out_rising));
    let mut guard = store().write().unwrap_or_else(|e| e.into_inner());
    guard.entry(key).or_insert(model).clone()
}

/// Inserts an already-characterized (typically deserialized) model into
/// the process-global store. First insert wins, exactly as
/// [`ensure_model`]: a replayed store record and a live characterization
/// of the same arc are bit-identical, so whichever lands first is the one
/// every reader sees.
pub fn insert_model(key: u64, model: ArcModel) -> Arc<ArcModel> {
    let mut guard = store().write().unwrap_or_else(|e| e.into_inner());
    guard.entry(key).or_insert_with(|| Arc::new(model)).clone()
}

/// Order-independent digest of the store contents: a stable hash over the
/// sorted `(key, serialized model)` pairs. Serial and parallel prewarms of
/// the same library must produce equal digests — the bitwise gate on the
/// parallel characterization path.
pub fn store_digest() -> u64 {
    let guard = store().read().unwrap_or_else(|e| e.into_inner());
    let mut keys: Vec<u64> = guard.keys().copied().collect();
    keys.sort_unstable();
    let mut h = StableHasher::new();
    for key in keys {
        h.write_u64(key);
        h.write_bytes(&guard[&key].to_bytes());
    }
    h.finish()
}

/// Lifetime count of characterization Newton solves — zero deltas across
/// a store-warm analyzer build are the gate that the on-disk
/// characterization store actually amortized the sweep.
pub fn char_solves() -> usize {
    CHAR_SOLVES.load(Ordering::Relaxed)
}

/// Process-lifetime store statistics, for the CLI and the serve daemon.
pub fn stats() -> StoreStats {
    let guard = store().read().unwrap_or_else(|e| e.into_inner());
    StoreStats {
        models: guard.len(),
        usable: guard.values().filter(|m| m.usable).count(),
        char_solves: CHAR_SOLVES.load(Ordering::Relaxed),
    }
}

/// Empties the store (test hygiene for custom libraries that rebind cell
/// names). The lifetime characterization-solve count keeps accumulating.
pub fn clear_store() {
    let mut guard = store().write().unwrap_or_else(|e| e.into_inner());
    guard.clear();
}

/// One characterization work item: a combinational timing arc of a
/// library cell whose model is not yet in the process-global store.
pub struct PrewarmItem<'l> {
    /// Store key of the arc's model ([`arc_key`]).
    pub key: u64,
    /// The stage holding the arc.
    pub stage: &'l Stage,
    /// The switching input slot.
    pub slot: usize,
    /// Side-input values sensitizing the arc.
    pub side: Vec<f64>,
    /// Output transition direction.
    pub out_rising: bool,
}

/// The outstanding characterization work of `library` under `process`:
/// every combinational, sensitizable timing arc whose model is missing
/// from the process-global store, in deterministic library order.
/// Sequential cells are skipped (launch arcs always use the full solver).
/// Each item is an independent, deterministic characterization, so a
/// caller may execute the list in any order on any number of workers and
/// produce bit-identical tables.
fn prewarm_work<'l>(process: &Process, library: &'l Library) -> Vec<PrewarmItem<'l>> {
    let vdd = process.vdd;
    let mut work: Vec<PrewarmItem<'l>> = Vec::new();
    let guard = store().read().unwrap_or_else(|e| e.into_inner());
    for cell in library.iter() {
        if cell.is_sequential() {
            continue;
        }
        for (si, stage) in cell.stages.iter().enumerate() {
            for slot in 0..stage.inputs.len() {
                if matches!(stage.inputs[slot], StageSignal::Launch) {
                    continue;
                }
                for out_rising in [false, true] {
                    let Some(side) = sensitize::side_values(stage, slot, out_rising, vdd) else {
                        continue;
                    };
                    let key = arc_key(process, &cell.name, si, slot, out_rising, &side);
                    if !guard.contains_key(&key) {
                        work.push(PrewarmItem {
                            key,
                            stage,
                            slot,
                            side,
                            out_rising,
                        });
                    }
                }
            }
        }
    }
    work
}

/// The library-wide sweep for tools and benchmarks: characterizes every
/// combinational timing arc of `library` into the process-global store,
/// using up to `threads` worker threads. Analyzers never call it — they
/// characterize only their design's arcs when they bind their timing
/// graph — but the tables it builds are the same bits.
pub fn prewarm_library(process: &Process, library: &Library, threads: usize) {
    let work = prewarm_work(process, library);
    let workers = threads.clamp(1, work.len().max(1));
    characterize_work(process, &work, |sweep| {
        std::thread::scope(|scope| {
            for worker in 1..workers {
                scope.spawn(move || sweep(worker));
            }
            sweep(0);
        });
    });
}

/// Characterizes every item of `work` into the process-global store, each
/// once. `run` receives the sweep's worker body and must call it on every
/// worker it provides; one inline call is the serial sweep. Workers claim
/// items in list order, and each characterization is a pure function of
/// `(process, arc)`, so every worker count builds the same bits.
pub fn characterize_work(
    process: &Process,
    work: &[PrewarmItem<'_>],
    run: impl FnOnce(&(dyn Fn(usize) + Sync)),
) {
    let next = AtomicUsize::new(0);
    run(&|_worker| {
        while let Some(item) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
            ensure_model(
                item.key,
                process,
                item.stage,
                item.slot,
                &item.side,
                item.out_rising,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_tech::Library;

    fn arc(cell: &str, slot: usize, out_rising: bool) -> (Process, ArcModel) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let c = library.cell(cell).expect("cell");
        let stage = &c.stages[0];
        let side =
            sensitize::side_values(stage, slot, out_rising, process.vdd).expect("sensitizable");
        let model = characterize_arc(&process, stage, slot, &side, out_rising);
        (process, model)
    }

    /// Deterministic xorshift for in-grid query sampling.
    fn rng(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn arc_keys_separate_corners_even_at_identical_electricals() {
        let base = Process::c05um();
        let tt = base.corner(&xtalk_tech::Corner::tt());
        let ss = base.corner(&xtalk_tech::Corner::ss());
        let side = [base.vdd];
        let k_base = arc_key(&base, "INVX1", 0, 0, true, &side);
        // tt has bit-identical device constants but its own corner
        // signature: its tables must never be shared with the base process.
        let k_tt = arc_key(&tt, "INVX1", 0, 0, true, &side);
        let k_ss = arc_key(&ss, "INVX1", 0, 0, true, &[ss.vdd]);
        assert_ne!(k_base, k_tt);
        assert_ne!(k_base, k_ss);
        assert_ne!(k_tt, k_ss);
    }

    #[test]
    fn basic_cells_admit_with_small_certified_bounds() {
        for (cell, slot) in [("INVX1", 0), ("NAND2X1", 1)] {
            for out_rising in [false, true] {
                let (_, model) = arc(cell, slot, out_rising);
                assert!(model.usable(), "{cell} slot {slot} rising {out_rising}");
                assert!(model.certified_delay_bound() <= TOL_DELAY);
                assert!(model.certified_slew_bound() <= TOL_SLEW);
            }
        }
    }

    #[test]
    fn random_in_grid_queries_match_newton_within_certified_bound() {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let c = library.cell("INVX1").expect("INVX1");
        let stage = &c.stages[0];
        let solver = StageSolver::new(&process);
        let v = Volts::of(&process).expect("ladder");
        let mut state = 0x9e3779b97f4a7c15u64;
        for out_rising in [false, true] {
            let side = sensitize::side_values(stage, 0, out_rising, process.vdd).expect("side");
            let model = characterize_arc(&process, stage, 0, &side, out_rising);
            assert!(model.usable());
            for i in 0..40 {
                let fs = rng(&mut state);
                let fl = rng(&mut state);
                let slew = GRID_SLEWS[0] + fs * (GRID_SLEWS[NS - 1] - GRID_SLEWS[0]);
                let ratio = if i % 3 == 0 {
                    let fr = rng(&mut state);
                    Some(GRID_RATIOS[0] + fr * (GRID_RATIOS[NR - 1] - GRID_RATIOS[0]))
                } else {
                    None
                };
                // Keep the family rule satisfied: the doubled-coupling
                // sibling `ctot * (1 + r)` must stay inside the load grid.
                let max_load = GRID_LOADS[NL - 1] / (1.0 + ratio.unwrap_or(0.0));
                let load = GRID_LOADS[0] + fl * (max_load - GRID_LOADS[0]);
                let shape = if i % 2 == 0 {
                    InputShape::Full
                } else {
                    InputShape::Snapped
                };
                let t_cross = 4.0 * slew + 1e-9;
                let input = ramp_input(&v, !out_rising, shape, slew, t_cross).expect("probe input");
                let l = grid_load(load, ratio);
                let table = model
                    .lookup(&input, &l, out_rising)
                    .expect("in-grid query admitted");
                let truth = solver
                    .solve(stage, 0, &input, &side, l)
                    .expect("newton truth");
                let t_table = table.crossing(v.th).expect("table crossing");
                let t_true = truth.wave.crossing(v.th).expect("true crossing");
                // Conservative: never earlier, and within the certified
                // bound of the transistor answer.
                assert!(
                    t_table >= t_true - 1e-15,
                    "optimistic table answer: {t_table} < {t_true}"
                );
                assert!(
                    t_table - t_true <= model.certified_delay_bound() + 1e-15,
                    "table residual {} above certified bound {}",
                    t_table - t_true,
                    model.certified_delay_bound()
                );
            }
        }
    }

    /// Multi-aggressor lumping and sub-floor ratio clamping: random loads
    /// with several active couplings (including caps whose individual
    /// ratios sit below the grid floor) must never beat the exact
    /// multi-snap transistor solve, and the pessimism must stay on the
    /// scale of the certified bound plus the clamp/lump slack (a fraction
    /// of the snap climb, itself a fraction of the output slew).
    #[test]
    fn lumped_multi_aggressor_queries_are_conservative() {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let c = library.cell("INVX1").expect("INVX1");
        let stage = &c.stages[0];
        let solver = StageSolver::new(&process);
        let v = Volts::of(&process).expect("ladder");
        let mut state = 0x00c0_ffee_d00d_1234_u64;
        for out_rising in [false, true] {
            let side = sensitize::side_values(stage, 0, out_rising, process.vdd).expect("side");
            let model = characterize_arc(&process, stage, 0, &side, out_rising);
            assert!(model.usable());
            for i in 0..30 {
                let slew = GRID_SLEWS[1] + rng(&mut state) * (GRID_SLEWS[5] - GRID_SLEWS[1]);
                let base = GRID_LOADS[1] + rng(&mut state) * (GRID_LOADS[5] - GRID_LOADS[1]);
                // 2-4 couplings summing to an in-grid total ratio; one in
                // three draws makes the caps tiny (sub-floor ratios).
                let n = 2 + i % 3;
                let r_tot = 0.05 + rng(&mut state) * 0.4;
                let scale = if i % 3 == 0 { 0.04 } else { 1.0 };
                let mut caps = vec![0.0; n];
                let mut sum = 0.0;
                for cap in &mut caps {
                    *cap = 0.2 + rng(&mut state);
                    sum += *cap;
                }
                for cap in &mut caps {
                    *cap *= scale * r_tot * base / sum;
                }
                let csum: f64 = caps.iter().sum();
                let load = Load {
                    cground: base - csum,
                    couplings: caps
                        .iter()
                        .map(|&cc| Coupling::new(cc, CouplingMode::Active))
                        .collect(),
                };
                let t_cross = 4.0 * slew + 1e-9;
                let input = ramp_input(&v, !out_rising, InputShape::Full, slew, t_cross)
                    .expect("probe input");
                let table = model
                    .lookup(&input, &load, out_rising)
                    .expect("lumped query admitted");
                let truth = solver
                    .solve(stage, 0, &input, &side, load)
                    .expect("newton truth");
                let t_table = table.crossing(v.th).expect("table crossing");
                let t_true = truth.wave.crossing(v.th).expect("true crossing");
                assert!(
                    t_table >= t_true - 1e-15,
                    "optimistic lumped answer: {t_table} < {t_true}"
                );
                // The lump/clamp slack: serving the whole snap climb at the
                // clamped ratio, bounded by the climb time for one grid
                // floor of ratio plus the certified interpolation bound.
                let out_slew = truth.wave.slew(v.slo, v.shi).unwrap_or(slew);
                let slack = model.certified_delay_bound() + 0.5 * GRID_RATIOS[0] * slew + out_slew;
                assert!(
                    t_table - t_true <= slack,
                    "lumped pessimism {} above slack {}",
                    t_table - t_true,
                    slack
                );
            }
        }
    }

    #[test]
    fn lookup_rejects_out_of_grid_and_untabulated_loads() {
        let (process, model) = arc("INVX1", 0, true);
        let v = Volts::of(&process).expect("ladder");
        let input = ramp_input(&v, false, InputShape::Full, GRID_SLEWS[2], 2e-9).expect("input");
        // In-grid baseline admits.
        assert!(model
            .lookup(&input, &Load::grounded(20e-15), true)
            .is_some());
        // Load beyond the grid falls back.
        assert!(model
            .lookup(&input, &Load::grounded(2.0 * GRID_LOADS[NL - 1]), true)
            .is_none());
        // Two active couplings lump into one equivalent aggressor.
        let two = Load {
            cground: 10e-15,
            couplings: vec![
                Coupling::new(2e-15, CouplingMode::Active),
                Coupling::new(3e-15, CouplingMode::Active),
            ],
        };
        assert!(model.lookup(&input, &two, true).is_some());
        // ...unless the family's total ratio exceeds the grid top.
        let heavy = Load {
            cground: 1e-15,
            couplings: vec![
                Coupling::new(4e-15, CouplingMode::Active),
                Coupling::new(4e-15, CouplingMode::Active),
            ],
        };
        assert!(model.lookup(&input, &heavy, true).is_none());
        // Assisting couplings fall back.
        let assist = Load {
            cground: 10e-15,
            couplings: vec![Coupling::new(2e-15, CouplingMode::Assisting)],
        };
        assert!(model.lookup(&input, &assist, true).is_none());
        // Wrong input direction falls back.
        let rising_in = ramp_input(&v, true, InputShape::Full, GRID_SLEWS[2], 2e-9).expect("input");
        assert!(model
            .lookup(&rising_in, &Load::grounded(20e-15), true)
            .is_none());
    }

    #[test]
    fn synthesized_wave_controls_all_four_features() {
        let (process, model) = arc("INVX1", 0, true);
        let v = Volts::of(&process).expect("ladder");
        let input = ramp_input(&v, false, InputShape::Full, 200e-12, 2e-9).expect("input");
        let load = Load {
            cground: 18e-15,
            couplings: vec![Coupling::new(4e-15, CouplingMode::Active)],
        };
        let wave = model.lookup(&input, &load, true).expect("admitted");
        // Snapped output class: restarts at the coupling threshold.
        assert!((wave.initial_value() - v.vth).abs() < 1e-9);
        assert!(wave.crossing(v.th).is_some());
        assert!(wave.slew(v.slo, v.shi).is_some());
        assert!(wave.crossing(v.vdd - v.vth).is_some());
        // Quiet output class: full swing from the rail.
        let quiet = model
            .lookup(&input, &Load::grounded(22e-15), true)
            .expect("admitted");
        assert!(quiet.initial_value().abs() < 1e-9);
    }

    #[test]
    fn serialized_model_roundtrips_bitwise() {
        let (_, model) = arc("NAND2X1", 0, true);
        let bytes = model.to_bytes();
        assert_eq!(bytes.len(), MODEL_V1_LEN);
        let back = ArcModel::from_bytes(&bytes).expect("well-formed record");
        assert_eq!(back.to_bytes(), bytes, "roundtrip must be bitwise stable");
        assert_eq!(back.usable(), model.usable());
        assert_eq!(
            back.certified_delay_bound().to_bits(),
            model.certified_delay_bound().to_bits()
        );
        // A deserialized model answers queries bit-identically.
        let process = Process::c05um();
        let v = Volts::of(&process).expect("ladder");
        let input = ramp_input(&v, false, InputShape::Full, GRID_SLEWS[3], 2e-9).expect("input");
        let load = Load::grounded(20e-15);
        let a = model.lookup(&input, &load, true).expect("admitted");
        let b = back.lookup(&input, &load, true).expect("admitted");
        assert_eq!(a.points().len(), b.points().len());
        for (pa, pb) in a.points().iter().zip(b.points()) {
            assert_eq!(pa.0.to_bits(), pb.0.to_bits());
            assert_eq!(pa.1.to_bits(), pb.1.to_bits());
        }
    }

    #[test]
    fn malformed_model_bytes_are_rejected() {
        let (_, model) = arc("INVX1", 0, false);
        let bytes = model.to_bytes();
        // Truncated, extended, version-flipped and non-finite images all
        // decode to None (store corruption policy: skip, re-characterize).
        assert!(ArcModel::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(ArcModel::from_bytes(&longer).is_none());
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 2;
        assert!(ArcModel::from_bytes(&wrong_version).is_none());
        let mut nan = bytes;
        nan[2..10].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(ArcModel::from_bytes(&nan).is_none());
    }

    #[test]
    fn lookup_classifies_fallback_reasons() {
        let (process, model) = arc("INVX1", 0, true);
        let v = Volts::of(&process).expect("ladder");
        let input = ramp_input(&v, false, InputShape::Full, GRID_SLEWS[2], 2e-9).expect("input");
        // Load beyond the grid.
        let big = Load::grounded(2.0 * GRID_LOADS[NL - 1]);
        assert_eq!(
            model.lookup_classified(&input, &big, true),
            Err(FallbackReason::OutOfGridLoad)
        );
        // Slew beyond the grid.
        let slow =
            ramp_input(&v, false, InputShape::Full, 3.0 * GRID_SLEWS[NS - 1], 2e-9).expect("input");
        assert_eq!(
            model.lookup_classified(&slow, &Load::grounded(20e-15), true),
            Err(FallbackReason::OutOfGridSlew)
        );
        // Assisting coupling.
        let assist = Load {
            cground: 10e-15,
            couplings: vec![Coupling::new(2e-15, CouplingMode::Assisting)],
        };
        assert_eq!(
            model.lookup_classified(&input, &assist, true),
            Err(FallbackReason::AssistingCoupling)
        );
        // Family rule: total ratio above the grid top.
        let heavy = Load {
            cground: 1e-15,
            couplings: vec![
                Coupling::new(4e-15, CouplingMode::Active),
                Coupling::new(4e-15, CouplingMode::Active),
            ],
        };
        assert_eq!(
            model.lookup_classified(&input, &heavy, true),
            Err(FallbackReason::FamilyRule)
        );
        // Wrong input direction.
        let rising_in = ramp_input(&v, true, InputShape::Full, GRID_SLEWS[2], 2e-9).expect("input");
        assert_eq!(
            model.lookup_classified(&rising_in, &Load::grounded(20e-15), true),
            Err(FallbackReason::Shape)
        );
    }

    #[test]
    fn store_roundtrip_and_stats() {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let c = library.cell("INVX1").expect("INVX1");
        let stage = &c.stages[0];
        let side = sensitize::side_values(stage, 0, true, process.vdd).expect("side");
        let key = arc_key(&process, "INVX1", 0, 0, true, &side);
        assert_eq!(key, arc_key(&process, "INVX1", 0, 0, true, &side));
        assert_ne!(key, arc_key(&process, "INVX1", 0, 0, false, &side));
        let model = ensure_model(key, &process, stage, 0, &side, true);
        assert!(model.usable());
        let again = model_for(key).expect("stored");
        assert!(Arc::ptr_eq(&model, &again));
        assert!(stats().models >= 1);
    }
}
