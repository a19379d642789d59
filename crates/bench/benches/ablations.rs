//! Ablation benchmarks for the design decisions called out in DESIGN.md §6.
//!
//! - **D2** — restart-threshold choice: the coupling model restarts
//!   waveforms at `Vth = 0.2 V`, not at the 0.6 V device threshold; this
//!   sweep shows how the delay bound depends on that choice.
//! - **D5** — Esperance: iterative refinement with and without long-path
//!   filtering (also covered by `sta_modes`, kept here with a larger
//!   circuit for the speed-up headline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xtalk::prelude::*;
use xtalk::wave::stage::{Coupling, Load, StageSolver};
use xtalk_bench::build_design;

/// D2: delay bound of one coupled stage as a function of the model's
/// restart threshold.
fn bench_vth_choice(c: &mut Criterion) {
    let library = Library::c05um(&Process::c05um());
    let inv = library.cell("INVX1").expect("inv");

    let mut group = c.benchmark_group("vth_choice");
    group.sample_size(30);
    for vth_mv in [100u32, 200, 400, 600] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{vth_mv}mV")),
            &vth_mv,
            |b, &vth_mv| {
                let mut process = Process::c05um();
                process.coupling_vth = vth_mv as f64 * 1e-3;
                let input = Waveform::ramp(0.0, 0.2e-9, process.vdd, 0.0).expect("ramp");
                let solver = StageSolver::new(&process);
                b.iter(|| {
                    let load = Load {
                        cground: 30e-15,
                        couplings: vec![Coupling::new(10e-15, CouplingMode::Active)],
                    };
                    let r = solver
                        .solve(&inv.stages[0], 0, black_box(&input), &[], load)
                        .expect("solve");
                    black_box(
                        r.delay_from(&input, process.delay_threshold())
                            .expect("crossing"),
                    )
                })
            },
        );
    }
    group.finish();
}

/// D5: Esperance speed-up on a mid-size circuit.
fn bench_esperance(c: &mut Criterion) {
    let mut cfg = GeneratorConfig::small(31415);
    cfg.comb_gates = 400;
    cfg.flip_flops = 32;
    cfg.depth = 10;
    let d = build_design(&cfg);
    let sta = d.sta();

    let mut group = c.benchmark_group("esperance");
    group.sample_size(10);
    group.bench_function("iterative_plain", |b| {
        b.iter(|| {
            black_box(
                sta.analyze(AnalysisMode::Iterative { esperance: false })
                    .expect("analysis")
                    .stage_solves,
            )
        })
    });
    group.bench_function("iterative_esperance", |b| {
        b.iter(|| {
            black_box(
                sta.analyze(AnalysisMode::Iterative { esperance: true })
                    .expect("analysis")
                    .stage_solves,
            )
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_vth_choice, bench_esperance
}
criterion_main!(benches);
