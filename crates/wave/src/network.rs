//! DC evaluation of series/parallel transistor networks.
//!
//! Given the gate voltage of every device, [`NetworkEval`] computes the
//! current through a [`Network`] between its two terminals, solving the
//! internal nodes of series stacks exactly with the safeguarded Newton
//! iteration of [`crate::newton`]. The evaluation also returns the partial
//! derivatives of the terminal current with respect to both terminal
//! voltages (propagated through the internal-node solves by the implicit
//! function theorem), which gives the backward-Euler integrator quadratic
//! Newton convergence with no extra network evaluations.
//!
//! Internal node capacitances are neglected — the stack is solved as a DC
//! network at each timestep, the standard approximation of stage-based
//! transistor-level timing engines (TETA and the paper's §3 follow it too).

use xtalk_tech::cell::Network;
use xtalk_tech::mosfet::DeviceType;
use xtalk_tech::table::DeviceTable;
use xtalk_tech::Process;

use crate::newton::solve_bracketed_from;

/// Current through a network terminal together with its sensitivities.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TerminalCurrent {
    /// Current flowing from terminal `a` (the output-adjacent side, element
    /// 0 of a series chain) towards terminal `b` (the rail side), amperes.
    pub i: f64,
    /// `d i / d v_a`.
    pub di_da: f64,
    /// `d i / d v_b`.
    pub di_db: f64,
}

impl TerminalCurrent {
    fn sum(self, other: TerminalCurrent) -> TerminalCurrent {
        TerminalCurrent {
            i: self.i + other.i,
            di_da: self.di_da + other.di_da,
            di_db: self.di_db + other.di_db,
        }
    }
}

/// Warm-start storage for the internal nodes of series stacks.
///
/// A given [`Network`] shape visits its series splits in a deterministic
/// order, so successive evaluations (adjacent timesteps) can reuse the
/// previous solution as the Newton starting point. Create one per
/// (stage, transition) solve and pass it to every evaluation.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    mids: Vec<f64>,
    cursor: usize,
}

impl WarmStart {
    /// Creates an empty warm-start store.
    pub fn new() -> Self {
        WarmStart::default()
    }

    /// Forgets every stored solution while keeping the allocation, making a
    /// reused store indistinguishable from a fresh one. Called at the start
    /// of each stage solve when the store lives in a long-lived
    /// [`crate::stage::StageScratch`].
    pub fn reset(&mut self) {
        self.mids.clear();
        self.cursor = 0;
    }

    /// Makes this store a copy of `other`, keeping this store's
    /// allocation (a forked stage solve resumes from a copied store).
    pub(crate) fn copy_from(&mut self, other: &WarmStart) {
        self.mids.clone_from(&other.mids);
        self.cursor = other.cursor;
    }

    fn begin(&mut self) {
        self.cursor = 0;
    }

    fn slot(&mut self, default: f64) -> (usize, f64) {
        let idx = self.cursor;
        self.cursor += 1;
        if idx >= self.mids.len() {
            self.mids.push(default);
        }
        (idx, self.mids[idx])
    }
}

/// Evaluator of one polarity of transistor network against a device table.
#[derive(Debug, Clone, Copy)]
pub struct NetworkEval<'a> {
    table: &'a DeviceTable,
    polarity: DeviceType,
}

impl<'a> NetworkEval<'a> {
    /// Creates an evaluator for `polarity` devices of `process`.
    pub fn new(process: &'a Process, polarity: DeviceType) -> Self {
        NetworkEval {
            table: process.table(polarity),
            polarity,
        }
    }

    /// Current from the output-adjacent terminal (at `v_a`) to the rail
    /// terminal (at `v_b`), with sensitivities. `gates[slot]` gives the gate
    /// voltage of devices whose `input` is `slot`.
    ///
    /// Positive current flows `a -> b`; for a PMOS pull-up network charging
    /// its output the returned current is therefore negative.
    pub fn current(
        &self,
        net: &Network,
        v_a: f64,
        v_b: f64,
        gates: &[f64],
        warm: &mut WarmStart,
    ) -> TerminalCurrent {
        warm.begin();
        self.eval(net, v_a, v_b, gates, warm)
    }

    fn eval(
        &self,
        net: &Network,
        v_a: f64,
        v_b: f64,
        gates: &[f64],
        warm: &mut WarmStart,
    ) -> TerminalCurrent {
        match net {
            Network::Device { input, width, .. } => self.device(gates[*input], v_a, v_b, *width),
            Network::Parallel(children) => children
                .iter()
                .map(|c| self.eval(c, v_a, v_b, gates, warm))
                .fold(TerminalCurrent::default(), TerminalCurrent::sum),
            Network::Series(children) => self.series(children, v_a, v_b, gates, warm),
        }
    }

    fn device(&self, vg: f64, v_a: f64, v_b: f64, width: f64) -> TerminalCurrent {
        match self.polarity {
            DeviceType::Nmos => {
                // Source modelled at terminal b; the table's symmetry
                // extension takes over when current reverses.
                let (i, dg, dd) = self.table.derivs(vg - v_b, v_a - v_b, width);
                TerminalCurrent {
                    i,
                    di_da: dd,
                    di_db: -dg - dd,
                }
            }
            DeviceType::Pmos => {
                // Source modelled at terminal b (the VDD-adjacent side in a
                // pull-up); positive table current flows b -> a, hence the
                // negation.
                let (i, dg, dd) = self.table.derivs(v_b - vg, v_b - v_a, width);
                TerminalCurrent {
                    i: -i,
                    di_da: dd,
                    di_db: -(dg + dd),
                }
            }
        }
    }

    fn series(
        &self,
        children: &[Network],
        v_a: f64,
        v_b: f64,
        gates: &[f64],
        warm: &mut WarmStart,
    ) -> TerminalCurrent {
        match children {
            [] => TerminalCurrent::default(),
            [only] => self.eval(only, v_a, v_b, gates, warm),
            [head, tail @ ..] => {
                let lo = v_a.min(v_b) - 1e-9;
                let hi = v_a.max(v_b) + 1e-9;
                let (slot_idx, start) = warm.slot(0.5 * (v_a + v_b));
                let start = start.clamp(lo, hi);

                // Slot layout after this split's own slot: the head's
                // internal slots, then the tail's.
                let head_slots = slots(head);
                let tail_slots = series_slots(tail);
                let head_cursor = warm.cursor;
                let end_cursor = head_cursor + head_slots + tail_slots;

                let mut last_head = TerminalCurrent::default();
                let mut last_tail = TerminalCurrent::default();
                let solution;
                {
                    let mut f = |v_m: f64| {
                        warm.cursor = head_cursor;
                        let h = self.eval(head, v_a, v_m, gates, warm);
                        warm.cursor = head_cursor + head_slots;
                        let t = self.series(tail, v_m, v_b, gates, warm);
                        last_head = h;
                        last_tail = t;
                        (h.i - t.i, h.di_db - t.di_da)
                    };
                    let r = solve_bracketed_from(&mut f, lo, hi, Some(start), 1e-7, 1e-12, 80);
                    if !r.fresh {
                        // Refresh the partials stored in `last_head` /
                        // `last_tail` — only needed when the solver's final
                        // evaluation was not at the returned root.
                        let _ = f(r.x);
                    }
                    solution = r.x;
                }
                warm.mids[slot_idx] = solution;
                warm.cursor = end_cursor;

                let h = last_head;
                let t = last_tail;
                let denom = h.di_db - t.di_da;
                let (dm_da, dm_db) = if denom.abs() > 1e-18 {
                    (-h.di_da / denom, t.di_db / denom)
                } else {
                    (0.0, 0.0)
                };
                TerminalCurrent {
                    i: h.i,
                    di_da: h.di_da + h.di_db * dm_da,
                    di_db: h.di_db * dm_db,
                }
            }
        }
    }
}

/// Number of internal warm-start slots one network consumes.
fn slots(net: &Network) -> usize {
    match net {
        Network::Device { .. } => 0,
        Network::Parallel(v) => v.iter().map(slots).sum(),
        Network::Series(v) => series_slots(v),
    }
}

/// Number of internal warm-start slots a series expression consumes.
fn series_slots(children: &[Network]) -> usize {
    if children.len() <= 1 {
        children.iter().map(slots).sum()
    } else {
        // One split node + the head's internals + the tail's internals.
        1 + slots(&children[0]) + series_slots(&children[1..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_tech::cell::Network;
    use xtalk_tech::mosfet::DeviceType;
    use xtalk_tech::Process;

    const UM: f64 = 1.0e-6;
    const L: f64 = 0.5e-6;

    fn process() -> Process {
        Process::c05um()
    }

    #[test]
    fn single_nmos_matches_table() {
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Nmos);
        let net = Network::device(0, 2.0 * UM, L);
        let mut warm = WarmStart::new();
        let tc = ev.current(&net, 1.5, 0.0, &[3.3], &mut warm);
        let want = p.table(DeviceType::Nmos).ids(3.3, 1.5, 2.0 * UM);
        assert!((tc.i - want).abs() < 1e-12);
        assert!(tc.di_da > 0.0, "conductance positive");
    }

    #[test]
    fn single_pmos_charges_output() {
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Pmos);
        let net = Network::device(0, 4.0 * UM, L);
        let mut warm = WarmStart::new();
        // Output at 1.0 V, rail at VDD, gate low: pull-up conducting.
        let tc = ev.current(&net, 1.0, 3.3, &[0.0], &mut warm);
        assert!(tc.i < 0.0, "charging current flows rail->output: {}", tc.i);
        assert!(tc.i.abs() > 1e-4);
    }

    #[test]
    fn off_network_conducts_nothing() {
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Nmos);
        let net = Network::device(0, 2.0 * UM, L);
        let mut warm = WarmStart::new();
        let tc = ev.current(&net, 3.3, 0.0, &[0.0], &mut warm);
        assert!(tc.i.abs() < 1e-6, "off device leaks only: {}", tc.i);
    }

    #[test]
    fn series_stack_halves_current_roughly() {
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Nmos);
        let single = Network::device(0, 4.0 * UM, L);
        let stack = Network::Series(vec![
            Network::device(0, 4.0 * UM, L),
            Network::device(1, 4.0 * UM, L),
        ]);
        let mut warm = WarmStart::new();
        let i1 = ev.current(&single, 3.3, 0.0, &[3.3, 3.3], &mut warm).i;
        let mut warm2 = WarmStart::new();
        let i2 = ev.current(&stack, 3.3, 0.0, &[3.3, 3.3], &mut warm2).i;
        assert!(i2 < i1, "stacking must reduce drive");
        assert!(i2 > 0.35 * i1, "velocity saturation keeps the loss mild");
    }

    #[test]
    fn series_with_one_off_device_blocks() {
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Nmos);
        let stack = Network::Series(vec![
            Network::device(0, 4.0 * UM, L),
            Network::device(1, 4.0 * UM, L),
        ]);
        let mut warm = WarmStart::new();
        let i = ev.current(&stack, 3.3, 0.0, &[3.3, 0.0], &mut warm).i;
        assert!(i.abs() < 1e-6, "blocked stack: {i}");
    }

    #[test]
    fn parallel_network_sums() {
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Nmos);
        let single = Network::device(0, 2.0 * UM, L);
        let par = Network::Parallel(vec![
            Network::device(0, 2.0 * UM, L),
            Network::device(1, 2.0 * UM, L),
        ]);
        let mut warm = WarmStart::new();
        let i1 = ev.current(&single, 2.0, 0.0, &[3.3, 3.3], &mut warm).i;
        let i2 = ev.current(&par, 2.0, 0.0, &[3.3, 3.3], &mut warm).i;
        assert!((i2 - 2.0 * i1).abs() < 1e-9 + 1e-6 * i1.abs());
    }

    #[test]
    fn triple_stack_solves_two_internal_nodes() {
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Nmos);
        let stack = Network::Series(vec![
            Network::device(0, 6.0 * UM, L),
            Network::device(1, 6.0 * UM, L),
            Network::device(2, 6.0 * UM, L),
        ]);
        let mut warm = WarmStart::new();
        let i = ev.current(&stack, 3.3, 0.0, &[3.3; 3], &mut warm).i;
        assert!(i > 1e-4, "on stack conducts: {i}");
        // Warm start should have registered two internal nodes.
        assert_eq!(warm.mids.len(), 2);
        // Re-evaluation from the warm start must agree.
        let i2 = ev.current(&stack, 3.3, 0.0, &[3.3; 3], &mut warm).i;
        assert!((i - i2).abs() <= 1e-9 + 1e-6 * i.abs());
    }

    #[test]
    fn aoi_structure_evaluates() {
        // Pull-down of AOI21: (A series B) parallel C.
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Nmos);
        let net = Network::Parallel(vec![
            Network::Series(vec![
                Network::device(0, 4.0 * UM, L),
                Network::device(1, 4.0 * UM, L),
            ]),
            Network::device(2, 2.0 * UM, L),
        ]);
        let mut warm = WarmStart::new();
        // Only C on.
        let ic = ev.current(&net, 2.0, 0.0, &[0.0, 0.0, 3.3], &mut warm).i;
        // Only the AB branch on.
        let mut warm2 = WarmStart::new();
        let iab = ev.current(&net, 2.0, 0.0, &[3.3, 3.3, 0.0], &mut warm2).i;
        // Both on.
        let mut warm3 = WarmStart::new();
        let iboth = ev.current(&net, 2.0, 0.0, &[3.3, 3.3, 3.3], &mut warm3).i;
        assert!(ic > 1e-5 && iab > 1e-5);
        assert!((iboth - (ic + iab)).abs() < 0.02 * iboth);
    }

    #[test]
    fn sensitivities_match_finite_differences() {
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Nmos);
        let stack = Network::Series(vec![
            Network::device(0, 4.0 * UM, L),
            Network::device(1, 4.0 * UM, L),
        ]);
        let g = [3.3, 3.3];
        let eval = |va: f64, vb: f64| {
            let mut w = WarmStart::new();
            ev.current(&stack, va, vb, &g, &mut w)
        };
        let (va, vb) = (1.7, 0.0);
        let tc = eval(va, vb);
        let h = 1e-4;
        let fd_a = (eval(va + h, vb).i - eval(va - h, vb).i) / (2.0 * h);
        let fd_b = (eval(va, vb + h).i - eval(va, vb - h).i) / (2.0 * h);
        assert!(
            (tc.di_da - fd_a).abs() <= 0.05 * fd_a.abs() + 1e-7,
            "da {} vs {}",
            tc.di_da,
            fd_a
        );
        // The table model is bilinear, so one-sided derivatives differ at
        // cell boundaries; the rail-side sensitivity only steers Newton and
        // a looser band is fine.
        assert!(
            (tc.di_db - fd_b).abs() <= 0.15 * fd_b.abs() + 1e-7,
            "db {} vs {}",
            tc.di_db,
            fd_b
        );
        assert!(tc.di_db.signum() == fd_b.signum());
    }

    #[test]
    fn reversed_terminals_negate_current() {
        let p = process();
        let ev = NetworkEval::new(&p, DeviceType::Nmos);
        let net = Network::device(0, 2.0 * UM, L);
        let mut warm = WarmStart::new();
        let fwd = ev.current(&net, 1.5, 0.0, &[3.3], &mut warm).i;
        let rev = ev.current(&net, 0.0, 1.5, &[3.3], &mut warm).i;
        assert!((fwd + rev).abs() < 1e-9 + 1e-6 * fwd.abs());
    }
}
