//! Incremental ECO re-analysis vs full batch re-analysis.
//!
//! Measures the subsystem's reason to exist: after a single-net edit the
//! incremental engine re-times only the coupling-aware dirty cone, so its
//! re-analysis must be a small fraction of a fresh `Sta::analyze` on the
//! same design. The `eco_speedup` section prints the end-to-end ratio
//! (edit application + graph rebuild + re-analysis vs `Sta::new` + full
//! analysis of the identical post-edit design) plus the re-evaluated stage
//! count, and asserts both sides agree bit for bit.
//!
//! Scale is selected with `XTALK_ECO_SCALE` (`small`, `medium` (default),
//! `s35932`, `s38417`): criterion-style sampling at the default scale, a
//! one-shot measurement for the ISCAS'89-sized configs where one full
//! analysis runs tens of seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use xtalk::prelude::*;
use xtalk_bench::{build_design, exec_config, Design};

const MODE: AnalysisMode = AnalysisMode::OneStep;

fn scale() -> (GeneratorConfig, &'static str, bool) {
    match std::env::var("XTALK_ECO_SCALE").as_deref() {
        Ok("s38417") => (GeneratorConfig::s38417_like(), "s38417_like", true),
        Ok("s35932") => (GeneratorConfig::s35932_like(), "s35932_like", true),
        Ok("small") => (GeneratorConfig::small(4242), "small", false),
        _ => (GeneratorConfig::medium(4242), "medium", false),
    }
}

/// A single-net ECO target: a driven, loaded, coupled net near the middle
/// of the design.
fn target_net(eco: &IncrementalSta<'_>) -> String {
    let nets = eco.netlist().nets();
    let busy = |ni: usize| {
        let net = &nets[ni];
        net.driver.is_some()
            && !net.loads.is_empty()
            && !eco.parasitics().nets[ni].couplings.is_empty()
    };
    (nets.len() / 2..nets.len())
        .chain(0..nets.len() / 2)
        .find(|&ni| busy(ni))
        .map(|ni| nets[ni].name.clone())
        .expect("generated designs have coupled nets")
}

fn reroute(net: &str, scale: f64) -> Edit {
    Edit::RerouteNet {
        net: net.to_string(),
        scale,
    }
}

fn bench_single_net_edit(c: &mut Criterion) {
    let (config, label, one_shot) = scale();
    let d: Design = build_design(&config);
    let mut eco = IncrementalSta::with_config(
        d.netlist.clone(),
        &d.library,
        &d.process,
        d.parasitics.clone(),
        exec_config(),
    )
    .expect("incremental sta");
    eco.analyze(MODE).expect("warm cache");
    let net = target_net(&eco);

    if one_shot {
        report_speedup(&mut eco, &net, label);
        return;
    }

    let mut group = c.benchmark_group("eco_single_net_edit");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("full_reanalyze", label), |b| {
        b.iter(|| {
            let sta = eco.fresh_sta();
            black_box(sta.analyze(MODE).expect("full").longest_delay)
        })
    });
    // Alternate the reroute scale so every iteration genuinely changes the
    // victim's waveforms instead of replaying a clean cache.
    let mut grow = true;
    group.bench_function(BenchmarkId::new("incremental_reanalyze", label), |b| {
        b.iter(|| {
            let factor = if grow { 1.25 } else { 0.8 };
            grow = !grow;
            eco.apply(&reroute(&net, factor)).expect("apply");
            black_box(eco.analyze(MODE).expect("incremental").longest_delay)
        })
    });
    group.finish();

    report_speedup(&mut eco, &net, label);
}

/// One-shot end-to-end comparison on the identical post-edit design;
/// prints the acceptance ratio.
fn report_speedup(eco: &mut IncrementalSta<'_>, net: &str, label: &str) {
    let started = Instant::now();
    eco.apply(&reroute(net, 1.3)).expect("apply");
    let report = eco.analyze(MODE).expect("incremental");
    let incremental = started.elapsed();
    let stats = eco.last_stats();

    let started = Instant::now();
    let full_report = eco.fresh_sta().analyze(MODE).expect("full");
    let full = started.elapsed();

    assert_eq!(
        report.longest_delay.to_bits(),
        full_report.longest_delay.to_bits(),
        "incremental result diverged from batch"
    );
    let speedup = full.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    println!(
        "eco_speedup/{label}: full {:.3} s, incremental {:.3} s \
         (edit `{net}` + rebuild + re-analyze), speedup {speedup:.1}x, \
         re-evaluated {} of {} stages",
        full.as_secs_f64(),
        incremental.as_secs_f64(),
        stats.stages_evaluated,
        eco.graph().stages.len(),
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_single_net_edit
}
criterion_main!(benches);
