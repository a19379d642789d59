//! Transistor-level standard-cell description.
//!
//! Every combinational cell is a chain of one or more **stages**, where a
//! stage is a single complementary-CMOS structure: a PMOS pull-up network
//! between VDD and the stage output and an NMOS pull-down network between
//! the output and ground, both expressed as series/parallel trees
//! ([`Network`]). Multi-stage cells (buffers, AND/OR, XOR, MUX) are
//! decompositions into these primitive stages — which is exactly the
//! granularity the transistor-level waveform engine of the paper (§3)
//! operates on.
//!
//! Sequential cells (D flip-flops) carry a [`SeqSpec`]: the D pin is a
//! timing endpoint and the Q pin is re-launched from the clock through a
//! two-inverter output driver.

use crate::process::Process;

/// A series/parallel transistor network between a rail and a stage output.
///
/// `Device.input` indexes into the owning [`Stage`]'s `inputs` list; the
/// polarity (NMOS/PMOS) is implied by which side of the stage the network
/// sits on, so it is not stored per device.
#[derive(Debug, Clone, PartialEq)]
pub enum Network {
    /// A single transistor whose gate is driven by stage input `input`.
    Device {
        /// Index into the stage's `inputs` vector.
        input: usize,
        /// Drawn gate width, metres.
        width: f64,
        /// Drawn gate length, metres.
        length: f64,
    },
    /// Networks in series. By convention element 0 is adjacent to the stage
    /// output and the last element is adjacent to the rail.
    Series(Vec<Network>),
    /// Networks in parallel.
    Parallel(Vec<Network>),
}

impl Network {
    /// Convenience constructor for a single device.
    pub fn device(input: usize, width: f64, length: f64) -> Self {
        Network::Device {
            input,
            width,
            length,
        }
    }

    /// Total number of transistors in the network.
    pub fn device_count(&self) -> usize {
        match self {
            Network::Device { .. } => 1,
            Network::Series(v) | Network::Parallel(v) => v.iter().map(Network::device_count).sum(),
        }
    }

    /// Sum of gate capacitance this network presents to stage input `input`.
    pub fn gate_cap_for_input(&self, input: usize, process: &Process) -> f64 {
        match self {
            Network::Device {
                input: i,
                width,
                length,
            } => {
                if *i == input {
                    process.gate_cap(*width, *length)
                } else {
                    0.0
                }
            }
            Network::Series(v) | Network::Parallel(v) => {
                v.iter().map(|n| n.gate_cap_for_input(input, process)).sum()
            }
        }
    }

    /// Total width of the devices whose diffusion touches the stage output
    /// (element 0 of a series chain; every branch of a parallel group).
    pub fn output_adjacent_width(&self) -> f64 {
        match self {
            Network::Device { width, .. } => *width,
            Network::Series(v) => v.first().map_or(0.0, Network::output_adjacent_width),
            Network::Parallel(v) => v.iter().map(Network::output_adjacent_width).sum(),
        }
    }

    /// Largest number of stacked (series) devices on any path through the
    /// network — the stack depth the internal-node solver must handle.
    pub fn max_stack_depth(&self) -> usize {
        match self {
            Network::Device { .. } => 1,
            Network::Series(v) => v.iter().map(Network::max_stack_depth).sum(),
            Network::Parallel(v) => v.iter().map(Network::max_stack_depth).max().unwrap_or(0),
        }
    }

    /// Whether the network conducts given the boolean state of each stage
    /// input (`states[input]`; `None` = unknown → returns `None` unless the
    /// known inputs already decide the answer).
    pub fn conducts(&self, on: impl Fn(usize) -> Option<bool> + Copy) -> Option<bool> {
        match self {
            Network::Device { input, .. } => on(*input),
            Network::Series(v) => {
                let mut any_unknown = false;
                for n in v {
                    match n.conducts(on) {
                        Some(false) => return Some(false),
                        None => any_unknown = true,
                        Some(true) => {}
                    }
                }
                if any_unknown {
                    None
                } else {
                    Some(true)
                }
            }
            Network::Parallel(v) => {
                let mut any_unknown = false;
                for n in v {
                    match n.conducts(on) {
                        Some(true) => return Some(true),
                        None => any_unknown = true,
                        Some(false) => {}
                    }
                }
                if any_unknown {
                    None
                } else {
                    Some(false)
                }
            }
        }
    }

    /// Visits every device in the network.
    pub fn for_each_device(&self, f: &mut impl FnMut(usize, f64, f64)) {
        match self {
            Network::Device {
                input,
                width,
                length,
            } => f(*input, *width, *length),
            Network::Series(v) | Network::Parallel(v) => {
                for n in v {
                    n.for_each_device(f);
                }
            }
        }
    }
}

/// What drives a stage input or receives a stage output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageSignal {
    /// An external cell pin, by index into [`Cell::inputs`] (for stage
    /// inputs) or the cell output (for the final stage's output).
    Pin(usize),
    /// A cell-internal node, by index.
    Internal(usize),
    /// The launch node of a sequential cell's output driver (set by the
    /// timing engine at the active clock edge).
    Launch,
}

/// One complementary-CMOS stage of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// Signals driving the transistor gates; device `input` indices refer
    /// to this list.
    pub inputs: Vec<StageSignal>,
    /// Where the stage output goes.
    pub output: StageSignal,
    /// PMOS network from VDD to the output.
    pub pullup: Network,
    /// NMOS network from the output to ground.
    pub pulldown: Network,
}

impl Stage {
    /// Builds an inverter stage.
    pub fn inverter(input: StageSignal, output: StageSignal, wp: f64, wn: f64, l: f64) -> Self {
        Stage {
            inputs: vec![input],
            output,
            pullup: Network::device(0, wp, l),
            pulldown: Network::device(0, wn, l),
        }
    }

    /// Capacitance of the stage's own output node (drain diffusion of the
    /// output-adjacent devices).
    pub fn output_diffusion_cap(&self, process: &Process) -> f64 {
        process.diffusion_cap(
            self.pullup.output_adjacent_width() + self.pulldown.output_adjacent_width(),
        )
    }

    /// Input capacitance the stage presents on stage-input slot `slot`.
    pub fn input_cap(&self, slot: usize, process: &Process) -> f64 {
        self.pullup.gate_cap_for_input(slot, process)
            + self.pulldown.gate_cap_for_input(slot, process)
    }

    /// The stage's logic value given per-slot input values
    /// (complementary stage: output = NOT(pulldown conducts)).
    pub fn eval(&self, values: impl Fn(usize) -> Option<bool> + Copy) -> Option<bool> {
        // In a well-formed complementary stage pull-up conducts exactly when
        // pull-down does not; evaluating the pull-down suffices, but if it is
        // unknown the pull-up may still decide (e.g. one known input).
        match self.pulldown.conducts(values) {
            Some(b) => Some(!b),
            None => self.pullup.conducts(|i| values(i).map(|v| !v)).map(|b| !b),
        }
    }
}

/// The boolean function of a cell, for logic simulation and netlist I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Function {
    /// Logical inversion.
    Inv,
    /// Identity.
    Buf,
    /// N-input AND.
    And,
    /// N-input OR.
    Or,
    /// N-input NAND.
    Nand,
    /// N-input NOR.
    Nor,
    /// Two-input exclusive OR.
    Xor,
    /// Two-input exclusive NOR.
    Xnor,
    /// Two-to-one multiplexer; inputs are `[d0, d1, s]`.
    Mux2,
    /// And-or-invert: `!((a & b) | c)`; inputs are `[a, b, c]`.
    Aoi21,
    /// Or-and-invert: `!((a | b) & c)`; inputs are `[a, b, c]`.
    Oai21,
    /// Rising-edge D flip-flop; inputs are `[d, ck]`.
    Dff,
}

impl Function {
    /// Evaluates the combinational function on three-valued inputs
    /// (`None` = unknown). [`Function::Dff`] always returns `None` — its
    /// behaviour is stateful and handled by the logic simulator.
    pub fn eval(&self, inputs: &[Option<bool>]) -> Option<bool> {
        fn fold_and(inputs: &[Option<bool>]) -> Option<bool> {
            let mut unknown = false;
            for v in inputs {
                match v {
                    Some(false) => return Some(false),
                    None => unknown = true,
                    Some(true) => {}
                }
            }
            if unknown {
                None
            } else {
                Some(true)
            }
        }
        fn fold_or(inputs: &[Option<bool>]) -> Option<bool> {
            let mut unknown = false;
            for v in inputs {
                match v {
                    Some(true) => return Some(true),
                    None => unknown = true,
                    Some(false) => {}
                }
            }
            if unknown {
                None
            } else {
                Some(false)
            }
        }
        match self {
            Function::Inv => inputs[0].map(|v| !v),
            Function::Buf => inputs[0],
            Function::And => fold_and(inputs),
            Function::Nand => fold_and(inputs).map(|v| !v),
            Function::Or => fold_or(inputs),
            Function::Nor => fold_or(inputs).map(|v| !v),
            Function::Xor => match (inputs[0], inputs[1]) {
                (Some(a), Some(b)) => Some(a ^ b),
                _ => None,
            },
            Function::Xnor => match (inputs[0], inputs[1]) {
                (Some(a), Some(b)) => Some(!(a ^ b)),
                _ => None,
            },
            Function::Mux2 => match inputs[2] {
                Some(false) => inputs[0],
                Some(true) => inputs[1],
                None => match (inputs[0], inputs[1]) {
                    (Some(a), Some(b)) if a == b => Some(a),
                    _ => None,
                },
            },
            Function::Aoi21 => {
                let ab = fold_and(&inputs[..2]);
                fold_or(&[ab, inputs[2]]).map(|v| !v)
            }
            Function::Oai21 => {
                let ab = fold_or(&inputs[..2]);
                fold_and(&[ab, inputs[2]]).map(|v| !v)
            }
            Function::Dff => None,
        }
    }

    /// Number of inputs this function takes when instantiated with `n`
    /// data inputs (fixed for Xor/Xnor/Mux2/Inv/Buf/Dff).
    pub fn is_inverting(&self) -> bool {
        matches!(
            self,
            Function::Inv | Function::Nand | Function::Nor | Function::Aoi21 | Function::Oai21
        )
    }
}

/// Sequential behaviour of a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqSpec {
    /// Index of the data pin within [`Cell::inputs`].
    pub d_pin: usize,
    /// Index of the clock pin within [`Cell::inputs`].
    pub clk_pin: usize,
}

/// A standard cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Library name, e.g. `"NAND2X1"`.
    pub name: String,
    /// Ordered input pin names.
    pub inputs: Vec<String>,
    /// Output pin name.
    pub output: String,
    /// Boolean function (for logic simulation and `.bench` I/O).
    pub function: Function,
    /// Transistor stages in topological order; the last stage drives the
    /// output pin.
    pub stages: Vec<Stage>,
    /// Number of cell-internal nodes referenced by [`StageSignal::Internal`].
    pub internal_nodes: usize,
    /// Sequential behaviour, if any.
    pub seq: Option<SeqSpec>,
    /// Placement width in sites.
    pub area_sites: usize,
    /// Per-input-pin capacitance, farads (filled in by the library builder).
    pub input_cap: Vec<f64>,
}

impl Cell {
    /// Index of the input pin with the given name.
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs.iter().position(|p| p == name)
    }

    /// Recomputes `input_cap` from the transistor geometry.
    pub fn compute_input_caps(&mut self, process: &Process) {
        self.input_cap = (0..self.inputs.len())
            .map(|pin| {
                let mut cap = 0.0;
                for stage in &self.stages {
                    for (slot, sig) in stage.inputs.iter().enumerate() {
                        if *sig == StageSignal::Pin(pin) {
                            cap += stage.input_cap(slot, process);
                        }
                    }
                }
                // Sequential data/clock pins also load internal latch
                // circuitry that the stage list doesn't model; charge them a
                // nominal two-transistor gate load.
                if cap == 0.0 {
                    cap = 2.0 * process.gate_cap(2.0e-6, 0.5e-6);
                }
                cap
            })
            .collect();
    }

    /// Sensitizing constant side voltages for the cell-level arc through
    /// `pin`, derived from the boolean [`Function`]: one voltage per input
    /// pin, with the `pin` entry a placeholder 0. Returns `None` for
    /// sequential cells or out-of-range pins.
    ///
    /// For AND-like functions the other pins go high, for OR-like ones low;
    /// XOR/XNOR hold the other input low (identity/inversion path) and MUX
    /// selects the switching data pin.
    pub fn sensitizing_side_values(&self, pin: usize, vdd: f64) -> Option<Vec<f64>> {
        let n = self.inputs.len();
        if pin >= n {
            return None;
        }
        let mut v = vec![0.0; n];
        match self.function {
            Function::Inv | Function::Buf => {}
            Function::And | Function::Nand => {
                for (k, value) in v.iter_mut().enumerate() {
                    if k != pin {
                        *value = vdd;
                    }
                }
            }
            Function::Or | Function::Nor => {}
            Function::Xor | Function::Xnor => {}
            Function::Mux2 => match pin {
                0 => v[2] = 0.0,
                1 => v[2] = vdd,
                2 => {
                    v[0] = 0.0;
                    v[1] = vdd;
                }
                _ => return None,
            },
            Function::Aoi21 => match pin {
                0 => v[1] = vdd,
                1 => v[0] = vdd,
                2 => {}
                _ => return None,
            },
            Function::Oai21 => match pin {
                0 => v[2] = vdd,
                1 => v[2] = vdd,
                2 => v[0] = vdd,
                _ => return None,
            },
            Function::Dff => return None,
        }
        Some(v)
    }

    /// Whether the cell arc from input `pin` to the output is *inverting*
    /// under the given constant side voltages (entries above `vdd/2` count
    /// as logic 1; the `pin` entry is ignored).
    ///
    /// Unlike [`Function::is_inverting`], this is exact for cells whose arc
    /// polarity depends on the side values (XOR/XNOR/MUX): `XNOR(a, 0)`
    /// inverts while `XNOR(a, 1)` buffers. Returns `None` when the side
    /// assignment does not sensitize the arc (the output does not flip) or
    /// the cell is sequential.
    pub fn arc_inverting(&self, pin: usize, side_voltages: &[f64], vdd: f64) -> Option<bool> {
        if self.function == Function::Dff || pin >= self.inputs.len() {
            return None;
        }
        let eval_with = |value: bool| -> Option<bool> {
            let inputs: Vec<Option<bool>> = (0..self.inputs.len())
                .map(|k| {
                    if k == pin {
                        Some(value)
                    } else {
                        Some(side_voltages.get(k).copied().unwrap_or(0.0) > 0.5 * vdd)
                    }
                })
                .collect();
            self.function.eval(&inputs)
        };
        let lo = eval_with(false)?;
        let hi = eval_with(true)?;
        if lo == hi {
            return None;
        }
        Some(!hi)
    }

    /// Total transistor count over all stages.
    pub fn device_count(&self) -> usize {
        self.stages
            .iter()
            .map(|s| s.pullup.device_count() + s.pulldown.device_count())
            .sum()
    }

    /// `true` if the cell is a storage element.
    pub fn is_sequential(&self) -> bool {
        self.seq.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UM: f64 = 1.0e-6;

    fn nand2_stage() -> Stage {
        Stage {
            inputs: vec![StageSignal::Pin(0), StageSignal::Pin(1)],
            output: StageSignal::Pin(0),
            pullup: Network::Parallel(vec![
                Network::device(0, 4.0 * UM, 0.5 * UM),
                Network::device(1, 4.0 * UM, 0.5 * UM),
            ]),
            pulldown: Network::Series(vec![
                Network::device(0, 4.0 * UM, 0.5 * UM),
                Network::device(1, 4.0 * UM, 0.5 * UM),
            ]),
        }
    }

    #[test]
    fn network_counts() {
        let s = nand2_stage();
        assert_eq!(s.pullup.device_count(), 2);
        assert_eq!(s.pulldown.device_count(), 2);
        assert_eq!(s.pulldown.max_stack_depth(), 2);
        assert_eq!(s.pullup.max_stack_depth(), 1);
    }

    #[test]
    fn output_adjacent_width() {
        let s = nand2_stage();
        // Parallel pull-up: both devices touch the output.
        assert!((s.pullup.output_adjacent_width() - 8.0 * UM).abs() < 1e-12);
        // Series pull-down: only the head device touches the output.
        assert!((s.pulldown.output_adjacent_width() - 4.0 * UM).abs() < 1e-12);
    }

    #[test]
    fn nand_conduction_logic() {
        let s = nand2_stage();
        let val = |a: Option<bool>, b: Option<bool>| move |i: usize| if i == 0 { a } else { b };
        assert_eq!(s.eval(val(Some(true), Some(true))), Some(false));
        assert_eq!(s.eval(val(Some(true), Some(false))), Some(true));
        assert_eq!(s.eval(val(Some(false), None)), Some(true)); // controlled
        assert_eq!(s.eval(val(Some(true), None)), None);
    }

    #[test]
    fn function_eval_three_valued() {
        use Function::*;
        let t = Some(true);
        let f = Some(false);
        let x: Option<bool> = None;
        assert_eq!(Inv.eval(&[t]), f);
        assert_eq!(Buf.eval(&[x]), x);
        assert_eq!(And.eval(&[t, f]), f);
        assert_eq!(And.eval(&[t, x]), x);
        assert_eq!(And.eval(&[f, x]), f);
        assert_eq!(Nand.eval(&[t, t]), f);
        assert_eq!(Or.eval(&[f, t]), t);
        assert_eq!(Or.eval(&[x, t]), t);
        assert_eq!(Nor.eval(&[f, f]), t);
        assert_eq!(Xor.eval(&[t, f]), t);
        assert_eq!(Xor.eval(&[t, x]), x);
        assert_eq!(Xnor.eval(&[t, t]), t);
        assert_eq!(Mux2.eval(&[t, f, f]), t);
        assert_eq!(Mux2.eval(&[t, f, t]), f);
        assert_eq!(Mux2.eval(&[t, t, x]), t);
        assert_eq!(Mux2.eval(&[t, f, x]), x);
        assert_eq!(Aoi21.eval(&[t, t, f]), f);
        assert_eq!(Aoi21.eval(&[t, f, f]), t);
        assert_eq!(Aoi21.eval(&[x, f, t]), f);
        assert_eq!(Aoi21.eval(&[x, t, f]), x);
        assert_eq!(Oai21.eval(&[f, f, t]), t);
        assert_eq!(Oai21.eval(&[t, f, t]), f);
        assert_eq!(Oai21.eval(&[x, t, f]), t);
        assert_eq!(Oai21.eval(&[x, f, t]), x);
        assert_eq!(Dff.eval(&[t, t]), x);
    }

    #[test]
    fn arc_inverting_tracks_side_values() {
        use crate::library::Library;
        use crate::process::Process;
        let lib = Library::c05um(&Process::c05um());
        let vdd = 3.3;
        let xnor = lib.cell("XNOR2X1").expect("xnor");
        assert_eq!(xnor.arc_inverting(0, &[0.0, 0.0], vdd), Some(true));
        assert_eq!(xnor.arc_inverting(0, &[0.0, vdd], vdd), Some(false));
        let xor = lib.cell("XOR2X1").expect("xor");
        assert_eq!(xor.arc_inverting(0, &[0.0, 0.0], vdd), Some(false));
        assert_eq!(xor.arc_inverting(0, &[0.0, vdd], vdd), Some(true));
        let nand = lib.cell("NAND2X1").expect("nand");
        assert_eq!(nand.arc_inverting(1, &[vdd, 0.0], vdd), Some(true));
        // Non-sensitizing sides: NAND with the other input low is stuck.
        assert_eq!(nand.arc_inverting(1, &[0.0, 0.0], vdd), None);
        let dff = lib.cell("DFFX1").expect("dff");
        assert_eq!(dff.arc_inverting(0, &[0.0, 0.0], vdd), None);
        let mux = lib.cell("MUX2X1").expect("mux");
        assert_eq!(mux.arc_inverting(0, &[0.0, 0.0, 0.0], vdd), Some(false));
        assert_eq!(mux.arc_inverting(0, &[0.0, 0.0, vdd], vdd), None);
    }

    #[test]
    fn inverting_classification() {
        assert!(Function::Inv.is_inverting());
        assert!(Function::Nand.is_inverting());
        assert!(Function::Nor.is_inverting());
        assert!(!Function::And.is_inverting());
        assert!(!Function::Buf.is_inverting());
    }

    #[test]
    fn stage_eval_uses_pullup_when_pulldown_unknown() {
        // NOR2: pulldown parallel, pullup series. With a=true the pull-up is
        // off and output is decidedly 0 even when b is unknown.
        let s = Stage {
            inputs: vec![StageSignal::Pin(0), StageSignal::Pin(1)],
            output: StageSignal::Pin(0),
            pullup: Network::Series(vec![
                Network::device(0, 8.0 * UM, 0.5 * UM),
                Network::device(1, 8.0 * UM, 0.5 * UM),
            ]),
            pulldown: Network::Parallel(vec![
                Network::device(0, 2.0 * UM, 0.5 * UM),
                Network::device(1, 2.0 * UM, 0.5 * UM),
            ]),
        };
        let v = |i: usize| if i == 0 { Some(true) } else { None };
        assert_eq!(s.eval(v), Some(false));
    }
}
