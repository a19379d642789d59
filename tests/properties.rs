//! Cross-crate property-based tests on the analyzer's key invariants.

use proptest::prelude::*;
use xtalk::prelude::*;

fn tiny_config(seed: u64, gates: usize, depth: usize) -> GeneratorConfig {
    GeneratorConfig {
        name: format!("prop_{seed}"),
        seed,
        flip_flops: 4,
        comb_gates: gates,
        depth,
        primary_inputs: 4,
        primary_outputs: 4,
        clock_tree: false,
        clock_leaf_fanout: 8,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs several full analyses
        .. ProptestConfig::default()
    })]

    /// best <= one-step <= worst and iterative <= one-step, on random
    /// circuits with real extracted couplings.
    #[test]
    fn mode_ordering_invariant(seed in 0u64..1000, gates in 20usize..60, depth in 3usize..7) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = xtalk::netlist::generator::generate(
            &tiny_config(seed, gates, depth), &library).expect("generate");
        let placement = xtalk::layout::place::place(&netlist, &library, &process);
        let routes = xtalk::layout::route::route(&netlist, &placement, &process);
        let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
        let sta = Sta::new(&netlist, &library, &process, &parasitics).expect("sta");
        let best = sta.analyze(AnalysisMode::BestCase).expect("best").longest_delay;
        let one = sta.analyze(AnalysisMode::OneStep).expect("one").longest_delay;
        let worst = sta.analyze(AnalysisMode::WorstCase).expect("worst").longest_delay;
        let iter = sta.analyze(AnalysisMode::Iterative { esperance: false })
            .expect("iter").longest_delay;
        let eps = 1e-12;
        prop_assert!(best <= one + eps, "best {} one {}", best, one);
        prop_assert!(one <= worst + eps, "one {} worst {}", one, worst);
        prop_assert!(iter <= one + eps, "iter {} one {}", iter, one);
        prop_assert!(best <= iter + eps, "best {} iter {}", best, iter);
        prop_assert!(best > 0.0 && worst < 1e-6);
    }

    /// Generated netlists always validate, levelize, and hit their
    /// configured structural targets.
    #[test]
    fn generator_structural_invariants(seed in 0u64..10_000, gates in 10usize..120, depth in 2usize..10) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let cfg = tiny_config(seed, gates, depth);
        let netlist = xtalk::netlist::generator::generate(&cfg, &library).expect("generate");
        prop_assert!(netlist.validate(&library).is_ok());
        let d = netlist.logic_depth(&library).expect("depth");
        prop_assert!(d <= depth + 1);
        prop_assert_eq!(netlist.flip_flop_count(), cfg.flip_flops);
    }

    /// Extraction invariants on random layouts: symmetry, positivity,
    /// plausible magnitudes.
    #[test]
    fn extraction_invariants(seed in 0u64..10_000) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = xtalk::netlist::generator::generate(
            &tiny_config(seed, 50, 5), &library).expect("generate");
        let placement = xtalk::layout::place::place(&netlist, &library, &process);
        let routes = xtalk::layout::route::route(&netlist, &placement, &process);
        let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
        for (ni, np) in parasitics.nets.iter().enumerate() {
            prop_assert!(np.cwire >= 0.0 && np.cwire < 10e-12);
            prop_assert!(np.rwire >= 0.0 && np.rwire < 1e5);
            for cc in &np.couplings {
                prop_assert!(cc.c > 0.0 && cc.c < 1e-12);
                prop_assert!(cc.other.index() != ni);
                let back = parasitics.nets[cc.other.index()].couplings.iter()
                    .find(|c| c.other.index() == ni);
                prop_assert!(back.is_some());
            }
        }
    }

    /// A parallel wavefront run is bit-identical to the serial engine in
    /// every analysis mode: same delay bits, same pass trajectory, same
    /// critical endpoint. With the reuse caches off (so no hit depends on
    /// task order) it also accounts the same solver work in every pass.
    #[test]
    fn parallel_matches_serial_bitwise(seed in 0u64..1000, gates in 24usize..56, depth in 3usize..6) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = xtalk::netlist::generator::generate(
            &tiny_config(seed, gates, depth), &library).expect("generate");
        let placement = xtalk::layout::place::place(&netlist, &library, &process);
        let routes = xtalk::layout::route::route(&netlist, &placement, &process);
        let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
        for cache in [true, false] {
            let serial = Sta::with_config(&netlist, &library, &process, &parasitics,
                ExecConfig::serial().with_cache(cache)).expect("sta");
            // cutoff 0 forces the wavefront scheduler even on tiny circuits.
            let par = Sta::with_config(&netlist, &library, &process, &parasitics,
                ExecConfig::serial().with_cache(cache).with_threads(4).with_serial_cutoff(0))
                .expect("sta");
            for mode in [
                AnalysisMode::BestCase,
                AnalysisMode::StaticDoubled,
                AnalysisMode::WorstCase,
                AnalysisMode::OneStep,
                AnalysisMode::Iterative { esperance: false },
                AnalysisMode::Iterative { esperance: true },
                AnalysisMode::MinDelay,
            ] {
                let a = serial.analyze(mode).expect("serial");
                let b = par.analyze(mode).expect("parallel");
                prop_assert_eq!(a.longest_delay.to_bits(), b.longest_delay.to_bits(),
                    "{mode}: serial {} vs parallel {}", a.longest_delay, b.longest_delay);
                prop_assert_eq!(a.endpoint_net, b.endpoint_net);
                prop_assert_eq!(a.pass_delays.len(), b.pass_delays.len());
                for (x, y) in a.pass_delays.iter().zip(&b.pass_delays) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
                if !cache {
                    for (i, (x, y)) in a.pass_stats.iter().zip(&b.pass_stats).enumerate() {
                        prop_assert_eq!(x.work, y.work, "{} pass {}", mode, i + 1);
                    }
                }
            }
        }
    }

    /// The stage-solve cache is transparent: a warm re-run answers every
    /// solver call from the cache, and clearing it mid-run never changes
    /// a single arrival bit.
    #[test]
    fn solve_cache_is_transparent(seed in 0u64..1000, gates in 24usize..56) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = xtalk::netlist::generator::generate(
            &tiny_config(seed, gates, 5), &library).expect("generate");
        let placement = xtalk::layout::place::place(&netlist, &library, &process);
        let routes = xtalk::layout::route::route(&netlist, &placement, &process);
        let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
        let mode = AnalysisMode::Iterative { esperance: false };
        let uncached = Sta::with_config(&netlist, &library, &process, &parasitics,
            ExecConfig::serial().with_cache(false)).expect("sta");
        let reference = uncached.analyze(mode).expect("uncached");
        // With the solve cache off the only reuse layer left is the
        // characterized macromodel (layer 0), so every hit is a table hit
        // and everything else was integrated from scratch.
        prop_assert_eq!(reference.cache_hits, reference.table_hits);
        prop_assert_eq!(reference.newton_solves + reference.table_hits,
            reference.stage_solves);

        let cached = Sta::with_config(&netlist, &library, &process, &parasitics,
            ExecConfig::serial()).expect("sta");
        let cold = cached.analyze(mode).expect("cold");
        let warm = cached.analyze(mode).expect("warm");
        cached.clear_solve_cache();
        let cleared = cached.analyze(mode).expect("cleared");
        for r in [&cold, &warm, &cleared] {
            prop_assert_eq!(r.longest_delay.to_bits(), reference.longest_delay.to_bits());
            prop_assert_eq!(r.endpoint_net, reference.endpoint_net);
            prop_assert_eq!(r.passes, reference.passes);
        }
        // The warm replay answers everything from the cache.
        prop_assert_eq!(warm.cache_hits, warm.stage_solves);
        prop_assert_eq!(warm.newton_solves, 0);
        // Refinement passes re-solve only stages whose coupling decisions
        // changed, so even the cold run hits for the unchanged majority.
        prop_assert!(cold.passes == 1 || cold.cache_hits > 0);
    }

    /// Warm-started solving is invisible in the results: an analyzer whose
    /// reuse layers (per-stage warm-start memo, cost-admitted solve cache)
    /// are fully populated by earlier runs produces bit-identical reports
    /// to a fully cold uncached engine — serial and threaded, every mode.
    #[test]
    fn warm_start_matches_cold_start_bitwise(seed in 0u64..1000, gates in 24usize..48) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = xtalk::netlist::generator::generate(
            &tiny_config(seed, gates, 5), &library).expect("generate");
        let placement = xtalk::layout::place::place(&netlist, &library, &process);
        let routes = xtalk::layout::route::route(&netlist, &placement, &process);
        let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
        for mode in [
            AnalysisMode::BestCase,
            AnalysisMode::StaticDoubled,
            AnalysisMode::WorstCase,
            AnalysisMode::OneStep,
            AnalysisMode::Iterative { esperance: false },
            AnalysisMode::MinDelay,
        ] {
            let reference = Sta::with_config(&netlist, &library, &process, &parasitics,
                ExecConfig::serial().with_cache(false)).expect("sta")
                .analyze(mode).expect("cold uncached");
            for threaded in [false, true] {
                let config = if threaded {
                    ExecConfig::serial().with_threads(4).with_serial_cutoff(0)
                } else {
                    ExecConfig::serial()
                };
                let sta = Sta::with_config(&netlist, &library, &process, &parasitics,
                    config).expect("sta");
                let cold = sta.analyze(mode).expect("cold cached");
                let warm = sta.analyze(mode).expect("warm rerun");
                for r in [&cold, &warm] {
                    prop_assert_eq!(r.longest_delay.to_bits(), reference.longest_delay.to_bits(),
                        "{} threaded={}: warm/cold divergence", mode, threaded);
                    prop_assert_eq!(r.endpoint_net, reference.endpoint_net);
                    prop_assert_eq!(r.pass_delays.len(), reference.pass_delays.len());
                    for (x, y) in r.pass_delays.iter().zip(&reference.pass_delays) {
                        prop_assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                // The warm rerun never re-integrates anything.
                prop_assert_eq!(warm.newton_solves, 0, "{} threaded={}", mode, threaded);
            }
        }
    }

    /// SPEF roundtrip is lossless for any generated layout.
    #[test]
    fn spef_roundtrip_lossless(seed in 0u64..10_000) {
        let process = Process::c05um();
        let library = Library::c05um(&process);
        let netlist = xtalk::netlist::generator::generate(
            &tiny_config(seed, 40, 4), &library).expect("generate");
        let placement = xtalk::layout::place::place(&netlist, &library, &process);
        let routes = xtalk::layout::route::route(&netlist, &placement, &process);
        let parasitics = xtalk::layout::extract::extract(&netlist, &routes, &process);
        let text = xtalk::layout::spef::write(&netlist, &parasitics);
        let back = xtalk::layout::spef::parse(&text, &netlist).expect("parse");
        for (a, b) in parasitics.nets.iter().zip(&back.nets) {
            prop_assert!((a.cwire - b.cwire).abs() < 1e-20);
            prop_assert!((a.rwire - b.rwire).abs() < 1e-4);
            prop_assert_eq!(a.couplings.len(), b.couplings.len());
        }
    }
}
