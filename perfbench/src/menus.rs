//! Fixed call menus for the layers that sit inside one `Sta::analyze`
//! call. Table probes and Newton stage solves cannot be split out of an
//! analysis with spans from outside, so the traced run times
//! `ArcModel::lookup` and `StageSolver::solve_with` directly on a fixed
//! list of calls. The call and iteration counts are printed so two builds
//! can be shown to have run the same menu.

use std::hint::black_box;
use std::time::Instant;

use xtalk::tech::cell::StageSignal;
use xtalk::tech::{Library, Process};
use xtalk::wave::macromodel::{arc_key, model_for, ArcModel};
use xtalk::wave::sensitize::side_values;
use xtalk::wave::stage::{Coupling, Load, StageScratch, StageSolver};
use xtalk::wave::{CouplingMode, Waveform};

/// What one menu ran and what each call cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Menu {
    pub calls: u64,
    /// Table menu: lookups the tables answered. Stage menu: Newton
    /// iterations summed over the calls.
    pub work: u64,
    pub seconds_per_call: f64,
}

/// Input ramp durations (10–90% slews of 80, 200 and 480 ps), all inside
/// the characterization grid.
const RAMPS: [f64; 3] = [100e-12, 250e-12, 600e-12];
const REPS_TABLE: usize = 200;
const REPS_STAGE: usize = 40;

fn loads() -> [Load; 4] {
    [
        Load::grounded(10e-15),
        Load::grounded(50e-15),
        Load::grounded(120e-15),
        Load {
            cground: 40e-15,
            couplings: vec![Coupling::new(10e-15, CouplingMode::Active)],
        },
    ]
}

fn ramp(process: &Process, duration: f64, rising: bool) -> Waveform {
    let (from, to) = if rising {
        (0.0, process.vdd)
    } else {
        (process.vdd, 0.0)
    };
    Waveform::ramp(1e-9, duration, from, to).expect("menu ramps are valid")
}

/// Every characterized model of `library` under `process` present in the
/// process-global store, with its output direction.
fn models(process: &Process, library: &Library) -> Vec<(std::sync::Arc<ArcModel>, bool)> {
    let mut out = Vec::new();
    for cell in library.iter().filter(|c| !c.is_sequential()) {
        for (si, stage) in cell.stages.iter().enumerate() {
            for (slot, input) in stage.inputs.iter().enumerate() {
                if matches!(input, StageSignal::Launch) {
                    continue;
                }
                for out_rising in [false, true] {
                    let Some(side) = side_values(stage, slot, out_rising, process.vdd) else {
                        continue;
                    };
                    let key = arc_key(process, &cell.name, si, slot, out_rising, &side);
                    if let Some(model) = model_for(key) {
                        out.push((model, out_rising));
                    }
                }
            }
        }
    }
    out
}

/// Times `ArcModel::lookup` over every present model × three slews × four
/// loads, repeated a fixed number of times.
pub fn table_probe(process: &Process, library: &Library) -> Menu {
    let models = models(process, library);
    let loads = loads();
    let mut queries: Vec<(usize, Waveform, &Load)> = Vec::new();
    for (m, (_, out_rising)) in models.iter().enumerate() {
        for &d in &RAMPS {
            for load in &loads {
                queries.push((m, ramp(process, d, !out_rising), load));
            }
        }
    }
    let mut answered = 0u64;
    let t0 = Instant::now();
    for _ in 0..REPS_TABLE {
        for (m, wave, load) in &queries {
            let (model, out_rising) = &models[*m];
            answered += u64::from(black_box(model.lookup(wave, load, *out_rising)).is_some());
        }
    }
    let calls = (REPS_TABLE * queries.len()) as u64;
    Menu {
        calls,
        work: answered,
        seconds_per_call: t0.elapsed().as_secs_f64() / calls.max(1) as f64,
    }
}

/// Times `StageSolver::solve_with` over five cells × both directions ×
/// three slews × two loads, repeated a fixed number of times.
pub fn stage_solve(process: &Process, library: &Library) -> Menu {
    let solver = StageSolver::new(process);
    let mut scratch = StageScratch::new();
    let loads = loads();
    let menu_loads = [&loads[1], &loads[3]];
    let mut calls_list = Vec::new();
    for name in ["INVX1", "NAND2X1", "NOR2X1", "AOI21X1", "XOR2X1"] {
        let Some(cell) = library.cell(name) else {
            continue;
        };
        let stage = &cell.stages[0];
        for out_rising in [false, true] {
            let Some(side) = side_values(stage, 0, out_rising, process.vdd) else {
                continue;
            };
            for &d in &RAMPS {
                for load in menu_loads {
                    calls_list.push((stage, side.clone(), ramp(process, d, !out_rising), load));
                }
            }
        }
    }
    let mut iters = 0u64;
    let t0 = Instant::now();
    for _ in 0..REPS_STAGE {
        for (stage, side, wave, load) in &calls_list {
            if let Ok(r) = solver.solve_with(&mut scratch, stage, 0, wave, side, load) {
                iters += black_box(r.newton_iters) as u64;
            }
        }
    }
    let calls = (REPS_STAGE * calls_list.len()) as u64;
    Menu {
        calls,
        work: iters,
        seconds_per_call: t0.elapsed().as_secs_f64() / calls.max(1) as f64,
    }
}
