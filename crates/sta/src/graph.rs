//! The expanded timing graph.
//!
//! The gate-level netlist is expanded to *stage* granularity: every cell
//! contributes one stage instance per complementary-CMOS stage, so the
//! waveform engine always solves single stages at transistor level (paper
//! §3). Timing nodes are netlist nets plus cell-internal nets; timing arcs
//! run from a stage-input node to the stage-output node. Flip-flops cut the
//! graph at their D pin and re-launch Q from the clock through their output
//! driver stages, so the expanded graph of a legal synchronous circuit is a
//! DAG (paper §4: "the circuit is translated into a directed acyclic
//! graph").
//!
//! Adjacency (fanout, dependency levels, coupling caps) is stored in
//! compressed-sparse-row form: one flat item array per relation plus an
//! offset table, so the propagation kernel and the wavefront scheduler walk
//! contiguous memory instead of chasing one heap allocation per node.

use std::collections::HashMap;
use std::sync::Arc;

use xtalk_layout::Parasitics;
use xtalk_netlist::{GateId, NetId, Netlist, NetlistError};
use xtalk_tech::cell::{Stage, StageSignal};
use xtalk_tech::{Library, Process};
use xtalk_wave::sensitize;

/// Identifier of a timing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TNodeId(pub u32);

impl TNodeId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a stage instance (an index into [`TimingGraph::stages`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StageId(pub u32);

impl StageId {
    /// The id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compressed-sparse-row relation: `row(i)` of the `i`-th source is the
/// contiguous slice `items[offsets[i]..offsets[i + 1]]`. Rows are stored in
/// source order, so a full scan is one linear walk over `items`.
#[derive(Debug, Clone, Default)]
pub struct Csr<T> {
    items: Vec<T>,
    offsets: Vec<u32>,
}

impl<T> Csr<T> {
    /// Builds the relation from per-source rows, preserving row order.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Self {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for row in &rows {
            total += row.len() as u32;
            offsets.push(total);
        }
        let mut items = Vec::with_capacity(total as usize);
        for row in rows {
            items.extend(row);
        }
        Csr { items, offsets }
    }

    /// Number of sources (rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The row of source `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// All items, flattened in row order.
    #[inline]
    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// What a timing node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TNodeKind {
    /// A netlist net.
    Net(NetId),
    /// A cell-internal net of a gate instance.
    Internal {
        /// The owning gate.
        gate: GateId,
        /// Internal net index within the cell.
        index: u32,
    },
}

/// One timing node.
#[derive(Debug, Clone)]
pub struct TNode {
    /// What the node represents.
    pub kind: TNodeKind,
    /// `true` when the node starts the clock domain (primary input).
    pub is_start: bool,
    /// `true` when arrivals here are endpoints (primary output or
    /// flip-flop data pin).
    pub is_end: bool,
}

/// One stage-input connection.
#[derive(Debug, Clone, Copy)]
pub struct TInput {
    /// Driving timing node.
    pub node: TNodeId,
    /// Index into the driving *net*'s `loads` (for Elmore wire delay);
    /// `None` for cell-internal connections.
    pub sink: Option<usize>,
}

/// One consumer of a timing node: `(stage, input slot)`.
#[derive(Debug, Clone, Copy)]
pub struct FanoutArc {
    /// The consuming stage.
    pub stage: StageId,
    /// The input slot within that stage.
    pub slot: u32,
}

/// Sensitizing side values of one library stage per
/// `[slot][output-rising as usize]`; `None` marks a non-sensitizable arc.
/// Every instance of a cell stage shares one table.
pub type SideTable = Arc<[[Option<Vec<f64>>; 2]]>;

/// One stage instance of the expanded graph.
///
/// Coupling capacitances on the output net live in the graph-level CSR
/// relation [`TimingGraph::couplings_of`], not on the instance.
#[derive(Debug, Clone)]
pub struct StageInst {
    /// The owning gate.
    pub gate: GateId,
    /// Stage index within the cell.
    pub stage: usize,
    /// Per-slot inputs.
    pub inputs: Vec<TInput>,
    /// Output timing node.
    pub output: TNodeId,
    /// `true` when this stage belongs to a flip-flop's clock-to-Q launch
    /// chain (slot 0 is driven by the clock edge).
    pub is_launch: bool,
    /// Fixed grounded load on the output (diffusion + wire + pins or
    /// internal gate caps), farads.
    pub cground: f64,
    /// Sensitizing side values, chosen for the *slowest* sensitizing
    /// assignment (max-delay analysis).
    pub sides: SideTable,
    /// Like `sides` but for the *fastest* sensitizing assignment
    /// (min-delay / hold analysis).
    pub sides_fast: SideTable,
}

/// The expanded timing graph.
#[derive(Debug, Clone)]
pub struct TimingGraph {
    /// All timing nodes.
    pub nodes: Vec<TNode>,
    /// All stage instances.
    pub stages: Vec<StageInst>,
    /// Stage ids in topological order.
    pub topo: Vec<StageId>,
    /// Stage ids grouped into dependency levels (CSR): every stage in level
    /// `k` depends only on outputs of levels `< k`, so stages within one
    /// level can be evaluated in parallel.
    levels: Csr<StageId>,
    /// For each timing node, the arcs consuming it (CSR).
    fanout: Csr<FanoutArc>,
    /// Net-id to timing-node mapping.
    pub net_node: Vec<TNodeId>,
    /// For each timing node, the stage producing it (`None` for
    /// startpoints). Every non-start node has exactly one producer.
    producer: Vec<Option<StageId>>,
    /// Coupling capacitances on each stage's output net (CSR by stage):
    /// `(other net, cap)`.
    couplings: Csr<(NetId, f64)>,
    /// Dependency level of each stage (its index into the level relation).
    pub stage_level: Vec<usize>,
    /// First dependency level at which each timing node's state is final:
    /// `0` for startpoints, `stage_level[producer] + 1` for produced nodes,
    /// `u32::MAX` for floating non-start nodes (never calculated). A stage
    /// evaluated at level `L` may read exactly the nodes with
    /// `node_calc_level <= L` — the engine's static "calculated" rule (see
    /// [`TimingGraph::calculated_at`]).
    pub node_calc_level: Vec<u32>,
}

impl TimingGraph {
    /// Expands `netlist` against `library` into a stage-level timing graph.
    ///
    /// # Errors
    ///
    /// [`NetlistError`] for unknown cells or a cyclic expanded graph (which
    /// a validated netlist cannot produce).
    pub fn build(
        netlist: &Netlist,
        library: &Library,
        process: &Process,
        parasitics: &Parasitics,
    ) -> Result<Self, NetlistError> {
        let vdd = process.vdd;
        let mut nodes: Vec<TNode> = Vec::new();
        let mut net_node = Vec::with_capacity(netlist.net_count());

        // Which nets feed flip-flop D pins (endpoints).
        let mut feeds_d: Vec<bool> = vec![false; netlist.net_count()];
        for gate in netlist.gates() {
            if let Some(cell) = library.cell(&gate.cell) {
                if let Some(seq) = &cell.seq {
                    feeds_d[gate.inputs[seq.d_pin].index()] = true;
                }
            }
        }

        for (ni, net) in netlist.nets().iter().enumerate() {
            let id = TNodeId(nodes.len() as u32);
            nodes.push(TNode {
                kind: TNodeKind::Net(NetId(ni as u32)),
                is_start: net.is_primary_input,
                is_end: net.is_primary_output || feeds_d[ni],
            });
            net_node.push(id);
        }

        // Pin-cap sums per net (loads seen by the driver).
        let mut pin_cap: Vec<f64> = vec![0.0; netlist.net_count()];
        for gate in netlist.gates() {
            let cell = library
                .cell(&gate.cell)
                .ok_or_else(|| NetlistError::UnknownCell {
                    cell: gate.cell.clone(),
                })?;
            for (pin, &net) in gate.inputs.iter().enumerate() {
                pin_cap[net.index()] += cell.input_cap.get(pin).copied().unwrap_or(0.0);
            }
        }

        let mut stages: Vec<StageInst> = Vec::new();
        let mut coupling_rows: Vec<Vec<(NetId, f64)>> = Vec::new();
        // Side values are a pure function of the library stage, so each
        // cell derives its stages' tables once and its instances share them.
        let mut cell_sides: HashMap<&str, Vec<(SideTable, SideTable)>> = HashMap::new();
        for (gi, gate) in netlist.gates().iter().enumerate() {
            let gate_id = GateId(gi as u32);
            let cell = library.cell(&gate.cell).expect("checked above");
            let sides_of = cell_sides.entry(cell.name.as_str()).or_insert_with(|| {
                cell.stages
                    .iter()
                    .map(|stage| (side_table(stage, vdd, false), side_table(stage, vdd, true)))
                    .collect()
            });

            // Create internal timing nodes for this cell instance.
            let internal: Vec<TNodeId> = (0..cell.internal_nodes)
                .map(|k| {
                    let id = TNodeId(nodes.len() as u32);
                    nodes.push(TNode {
                        kind: TNodeKind::Internal {
                            gate: gate_id,
                            index: k as u32,
                        },
                        is_start: false,
                        is_end: false,
                    });
                    id
                })
                .collect();

            // Internal gate-cap loads: sum stage input caps per internal net.
            let mut internal_load = vec![0.0f64; cell.internal_nodes];
            for stage in &cell.stages {
                for (slot, sig) in stage.inputs.iter().enumerate() {
                    if let StageSignal::Internal(k) = sig {
                        internal_load[*k] += stage.input_cap(slot, process);
                    }
                }
            }

            let is_seq = cell.is_sequential();
            let clk_input: Option<TInput> = if is_seq {
                let seq = cell.seq.as_ref().expect("sequential");
                let clk_net = gate.inputs[seq.clk_pin];
                let sink = netlist
                    .net(clk_net)
                    .loads
                    .iter()
                    .position(|&(g, p)| g == gate_id && p == seq.clk_pin);
                Some(TInput {
                    node: net_node[clk_net.index()],
                    sink,
                })
            } else {
                None
            };

            for (si, stage) in cell.stages.iter().enumerate() {
                // Resolve inputs.
                let mut inputs = Vec::with_capacity(stage.inputs.len());
                for sig in &stage.inputs {
                    let inp = match sig {
                        StageSignal::Pin(p) => {
                            let net = gate.inputs[*p];
                            let sink = netlist
                                .net(net)
                                .loads
                                .iter()
                                .position(|&(g, pin)| g == gate_id && pin == *p);
                            TInput {
                                node: net_node[net.index()],
                                sink,
                            }
                        }
                        StageSignal::Internal(k) => TInput {
                            node: internal[*k],
                            sink: None,
                        },
                        StageSignal::Launch => clk_input.expect("launch in sequential cell"),
                    };
                    inputs.push(inp);
                }
                let is_launch = stage
                    .inputs
                    .iter()
                    .any(|s| matches!(s, StageSignal::Launch));

                // Output node and load.
                let (output, cground, couplings) = match stage.output {
                    StageSignal::Pin(_) => {
                        let net = gate.output;
                        let np = &parasitics.nets[net.index()];
                        (
                            net_node[net.index()],
                            stage.output_diffusion_cap(process) + np.cwire + pin_cap[net.index()],
                            np.couplings
                                .iter()
                                .map(|c| (c.other, c.c))
                                .collect::<Vec<_>>(),
                        )
                    }
                    StageSignal::Internal(k) => (
                        internal[k],
                        stage.output_diffusion_cap(process) + internal_load[k],
                        Vec::new(),
                    ),
                    StageSignal::Launch => unreachable!("stages never drive Launch"),
                };

                let (sides, sides_fast) = sides_of[si].clone();
                stages.push(StageInst {
                    gate: gate_id,
                    stage: si,
                    inputs,
                    output,
                    is_launch,
                    cground,
                    sides,
                    sides_fast,
                });
                coupling_rows.push(couplings);
            }
        }
        let couplings = Csr::from_rows(coupling_rows);

        // Fanout (CSR, two passes: count then fill) and producers.
        let n = nodes.len();
        let mut fan_offsets = vec![0u32; n + 1];
        for stage in &stages {
            for input in &stage.inputs {
                fan_offsets[input.node.index() + 1] += 1;
            }
        }
        for i in 0..n {
            fan_offsets[i + 1] += fan_offsets[i];
        }
        let mut fan_items = vec![
            FanoutArc {
                stage: StageId(0),
                slot: 0,
            };
            fan_offsets[n] as usize
        ];
        let mut cursor = fan_offsets[..n].to_vec();
        for (si, stage) in stages.iter().enumerate() {
            for (slot, input) in stage.inputs.iter().enumerate() {
                let at = &mut cursor[input.node.index()];
                fan_items[*at as usize] = FanoutArc {
                    stage: StageId(si as u32),
                    slot: slot as u32,
                };
                *at += 1;
            }
        }
        let fanout = Csr {
            items: fan_items,
            offsets: fan_offsets,
        };

        let mut producer: Vec<Option<StageId>> = vec![None; n];
        for (si, stage) in stages.iter().enumerate() {
            producer[stage.output.index()] = Some(StageId(si as u32));
        }

        // Topological order (Kahn over stage dependencies).
        let mut indegree: Vec<usize> = stages
            .iter()
            .map(|s| {
                s.inputs
                    .iter()
                    .filter(|i| producer[i.node.index()].is_some())
                    .count()
            })
            .collect();
        let mut topo: Vec<StageId> = Vec::with_capacity(stages.len());
        let mut queue: Vec<usize> = (0..stages.len()).filter(|&s| indegree[s] == 0).collect();
        let mut head = 0;
        let mut resolved: Vec<bool> = producer.iter().map(|p| p.is_none()).collect();
        while head < queue.len() {
            let s = queue[head];
            head += 1;
            topo.push(StageId(s as u32));
            let out = stages[s].output;
            if !resolved[out.index()] {
                resolved[out.index()] = true;
                for arc in fanout.row(out.index()) {
                    let consumer = arc.stage.index();
                    indegree[consumer] -= 1;
                    if indegree[consumer] == 0 {
                        queue.push(consumer);
                    }
                }
            }
        }
        if topo.len() != stages.len() {
            // Find a net on the cycle for the error message.
            let stuck = (0..stages.len())
                .find(|&s| indegree[s] > 0)
                .expect("cycle implies a stuck stage");
            let name = match nodes[stages[stuck].output.index()].kind {
                TNodeKind::Net(n) => netlist.net(n).name.clone(),
                TNodeKind::Internal { gate, index } => {
                    format!("{}#i{}", netlist.gate(gate).name, index)
                }
            };
            return Err(NetlistError::CombinationalLoop { net: name });
        }

        // Dependency levels for parallel evaluation.
        let mut node_level: Vec<usize> = vec![0; n];
        let mut stage_level: Vec<usize> = vec![0; stages.len()];
        for &si in &topo {
            let stage = &stages[si.index()];
            let lvl = stage
                .inputs
                .iter()
                .map(|i| node_level[i.node.index()])
                .max()
                .unwrap_or(0);
            stage_level[si.index()] = lvl;
            let out = stage.output.index();
            node_level[out] = node_level[out].max(lvl + 1);
        }
        let n_levels = stage_level.iter().copied().max().map_or(0, |m| m + 1);
        // Levels as CSR (count, then fill in topological order so the order
        // within each level matches the topological walk).
        let mut lvl_offsets = vec![0u32; n_levels + 1];
        for &lvl in &stage_level {
            lvl_offsets[lvl + 1] += 1;
        }
        for l in 0..n_levels {
            lvl_offsets[l + 1] += lvl_offsets[l];
        }
        let mut lvl_items = vec![StageId(0); stages.len()];
        let mut lvl_cursor = lvl_offsets[..n_levels].to_vec();
        for &si in &topo {
            let at = &mut lvl_cursor[stage_level[si.index()]];
            lvl_items[*at as usize] = si;
            *at += 1;
        }
        let levels = Csr {
            items: lvl_items,
            offsets: lvl_offsets,
        };

        let node_calc_level: Vec<u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                if node.is_start {
                    0
                } else if let Some(p) = producer[i] {
                    stage_level[p.index()] as u32 + 1
                } else {
                    u32::MAX
                }
            })
            .collect();

        Ok(TimingGraph {
            nodes,
            stages,
            topo,
            levels,
            fanout,
            net_node,
            producer,
            couplings,
            stage_level,
            node_calc_level,
        })
    }

    /// Whether `node`'s state is final when a stage at dependency level
    /// `stage_level` is evaluated. This is the breadth-first schedule's
    /// *static* "calculated" predicate: startpoints are final from level 0,
    /// produced nodes one level after their producer, and it is identical
    /// for the serial level loop and the wavefront scheduler (which turns
    /// exactly these relations into dependency edges).
    #[inline]
    pub fn calculated_at(&self, node: TNodeId, stage_level: usize) -> bool {
        (self.node_calc_level[node.index()] as usize) <= stage_level
    }

    /// Number of dependency levels.
    #[inline]
    pub fn level_count(&self) -> usize {
        self.levels.rows()
    }

    /// The stages of dependency level `l`, in topological order.
    #[inline]
    pub fn level(&self, l: usize) -> &[StageId] {
        self.levels.row(l)
    }

    /// The arcs consuming `node`, in stage order.
    #[inline]
    pub fn fanout_of(&self, node: TNodeId) -> &[FanoutArc] {
        self.fanout.row(node.index())
    }

    /// Coupling capacitances on the output net of `stage`: `(other, cap)`.
    #[inline]
    pub fn couplings_of(&self, stage: StageId) -> &[(NetId, f64)] {
        self.couplings.row(stage.index())
    }

    /// The stage producing `node`, or `None` for startpoints and floating
    /// nodes. Every non-start node has exactly one producer.
    #[inline]
    pub fn producer_of(&self, node: TNodeId) -> Option<StageId> {
        self.producer[node.index()]
    }

    /// Number of timing arcs (stage-input connections).
    pub fn arc_count(&self) -> usize {
        self.fanout.items().len()
    }

    /// Endpoint timing nodes.
    pub fn endpoints(&self) -> impl Iterator<Item = TNodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_end)
            .map(|(i, _)| TNodeId(i as u32))
    }

    /// `(output node, producing stage)` pairs in node-id order — iteration
    /// (and anything derived from it) is deterministic. Allocation-free:
    /// reads straight off the producer column.
    pub fn producers(&self) -> impl Iterator<Item = (TNodeId, StageId)> + '_ {
        self.producer
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|si| (TNodeId(i as u32), si)))
    }
}

/// The side-value table of one library stage: per slot and output
/// direction, the slowest (or, with `fastest`, the fastest) sensitizing
/// assignment.
fn side_table(stage: &Stage, vdd: f64, fastest: bool) -> SideTable {
    (0..stage.inputs.len())
        .map(|slot| {
            [
                sensitize::side_values_with(stage, slot, false, vdd, fastest),
                sensitize::side_values_with(stage, slot, true, vdd, fastest),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_layout::Parasitics;
    use xtalk_netlist::{bench, data, generator, generator::GeneratorConfig};
    use xtalk_tech::{Library, Process};

    fn build_for(text: &str) -> (TimingGraph, Netlist) {
        let p = Process::c05um();
        let l = Library::c05um(&p);
        let nl = bench::parse(text, &l).expect("parse");
        let para = Parasitics::empty(nl.net_count());
        let g = TimingGraph::build(&nl, &l, &p, &para).expect("build");
        (g, nl)
    }

    #[test]
    fn inverter_chain_graph_shape() {
        let (g, nl) = build_for("INPUT(a)\nOUTPUT(y)\nw = NOT(a)\ny = NOT(w)\n");
        assert_eq!(g.stages.len(), 2);
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.nodes.len(), nl.net_count());
        assert_eq!(g.topo.len(), 2);
        // Topological order puts w's driver first.
        let first = &g.stages[g.topo[0].index()];
        assert_eq!(nl.gate(first.gate).name, "g_w");
    }

    #[test]
    fn composite_cells_add_internal_nodes() {
        let (g, nl) = build_for("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n");
        // XOR2X1 has 4 stages and 3 internal nodes.
        assert_eq!(g.stages.len(), 4);
        assert_eq!(g.nodes.len(), nl.net_count() + 3);
    }

    #[test]
    fn s27_graph_is_consistent() {
        let (g, nl) = build_for(data::S27_BENCH);
        assert_eq!(g.topo.len(), g.stages.len());
        // Every net node exists and endpoints include G17 and the FF D nets.
        let g17 = nl.net_by_name("G17").expect("g17");
        assert!(g.nodes[g.net_node[g17.index()].index()].is_end);
        let endpoints: Vec<_> = g.endpoints().collect();
        assert!(endpoints.len() >= 4, "G17 + 3 D pins");
        // Launch stages exist for the 3 FFs (2 stages each).
        let launches = g.stages.iter().filter(|s| s.is_launch).count();
        assert_eq!(launches, 3, "one Launch-driven stage per FF");
    }

    #[test]
    fn couplings_attached_to_net_stages() {
        let p = Process::c05um();
        let l = Library::c05um(&p);
        let nl = generator::generate(&GeneratorConfig::small(13), &l).expect("gen");
        let placement = xtalk_layout::place::place(&nl, &l, &p);
        let routes = xtalk_layout::route::route(&nl, &placement, &p);
        let para = xtalk_layout::extract::extract(&nl, &routes, &p);
        let g = TimingGraph::build(&nl, &l, &p, &para).expect("build");
        let coupled = (0..g.stages.len())
            .filter(|&si| !g.couplings_of(StageId(si as u32)).is_empty())
            .count();
        assert!(coupled > 0, "extracted couplings must reach the graph");
        // Internal stages never carry couplings.
        for (si, s) in g.stages.iter().enumerate() {
            if let TNodeKind::Internal { .. } = g.nodes[s.output.index()].kind {
                assert!(g.couplings_of(StageId(si as u32)).is_empty());
            }
        }
    }

    #[test]
    fn sensitization_is_derived_once_per_cell_stage() {
        use std::collections::hash_map::Entry;
        let p = Process::c05um();
        let l = Library::c05um(&p);
        let nl = generator::generate(&GeneratorConfig::small(17), &l).expect("gen");
        let g = TimingGraph::build(&nl, &l, &p, &Parasitics::empty(nl.net_count())).expect("build");
        let mut first: HashMap<(&str, usize), &StageInst> = HashMap::new();
        let mut shared = 0;
        for s in &g.stages {
            let cell = l.cell(&nl.gate(s.gate).cell).expect("cell");
            let stage = &cell.stages[s.stage];
            assert_eq!(s.sides.len(), stage.inputs.len());
            assert_eq!(s.sides_fast.len(), stage.inputs.len());
            for slot in 0..stage.inputs.len() {
                for rising in [false, true] {
                    assert_eq!(
                        s.sides[slot][rising as usize],
                        sensitize::side_values(stage, slot, rising, p.vdd)
                    );
                    assert_eq!(
                        s.sides_fast[slot][rising as usize],
                        sensitize::side_values_with(stage, slot, rising, p.vdd, true)
                    );
                }
            }
            match first.entry((cell.name.as_str(), s.stage)) {
                Entry::Occupied(e) => {
                    assert!(Arc::ptr_eq(&e.get().sides, &s.sides));
                    assert!(Arc::ptr_eq(&e.get().sides_fast, &s.sides_fast));
                    shared += 1;
                }
                Entry::Vacant(e) => {
                    e.insert(s);
                }
            }
        }
        assert!(shared > 0, "a generated design repeats cell stages");
    }

    #[test]
    fn loads_are_positive() {
        let (g, _) = build_for(data::C17_BENCH);
        for s in &g.stages {
            assert!(s.cground > 0.0, "every stage drives some capacitance");
        }
    }

    #[test]
    fn csr_adjacency_is_consistent() {
        let (g, _) = build_for(data::S27_BENCH);
        // Fanout rows cover exactly the stage-input arcs.
        let mut arcs = 0;
        for (i, _) in g.nodes.iter().enumerate() {
            for arc in g.fanout_of(TNodeId(i as u32)) {
                let stage = &g.stages[arc.stage.index()];
                assert_eq!(stage.inputs[arc.slot as usize].node.index(), i);
                arcs += 1;
            }
        }
        assert_eq!(arcs, g.arc_count());
        // Levels partition the stages and respect the level map.
        let mut seen = vec![false; g.stages.len()];
        for l in 0..g.level_count() {
            for &si in g.level(l) {
                assert_eq!(g.stage_level[si.index()], l);
                assert!(!seen[si.index()], "stage appears in one level only");
                seen[si.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Producers invert the output map, in node-id order.
        let mut last = None;
        for (node, si) in g.producers() {
            assert_eq!(g.stages[si.index()].output, node);
            assert!(last < Some(node), "node-id order");
            last = Some(node);
        }
    }

    #[test]
    fn dff_d_pin_has_no_outgoing_stage() {
        let (g, nl) = build_for(data::S27_BENCH);
        // The D input nets of FFs must not appear as a *switching* input of
        // any launch stage (the clock does).
        for s in g.stages.iter().filter(|s| s.is_launch) {
            let clk = nl.net_by_name("CLK").expect("clk");
            assert_eq!(s.inputs[0].node, g.net_node[clk.index()]);
        }
    }
}
