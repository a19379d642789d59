//! `eco_session`: the medium block resident in an in-process `xtalk serve`
//! daemon whose solve store is already filled, driven by one client in a
//! closed loop of seeded requests — 50 % what-if, 20 % ECO commits, 20 %
//! analyze, 10 % query, all OneStep with reroute and resize edits. Reads
//! and writes hit the same session and store, so trading what-if speed for
//! commit speed shows.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xtalk::netlist::Netlist;
use xtalk::sta::graph::TimingGraph;
use xtalk::sta::serve::proto::{f64_bits_hex, f64_from_bits_hex};
use xtalk::sta::serve::{Client, Daemon, Json, ServeConfig, ServeSummary};
use xtalk::sta::{AnalysisMode, CharStore, Edit, ExecConfig, IncrementalSta, Sta};
use xtalk::wave::macromodel;

use crate::common::{
    copy_into, file_bytes, measure, median, peak_rss_mb, quantile, ratio, trimmed_mean, Outcome,
    Rng,
};
use crate::design::{self, Tech, MEDIUM_BENCH};
use crate::layers::{self, cpu_per_wall, span_median};
use crate::prep;
use crate::trace::{Tracer, REGION};
use crate::Ctx;

const SESSION: &str = "eco";
const MODE_TOKEN: &str = "onestep";
const MODE: AnalysisMode = AnalysisMode::OneStep;
/// Daemon bring-ups per run; the last one serves the loop.
const SETUPS: usize = 7;

/// Pin-compatible sizing families the resize edits move within.
const FAMILIES: &[&[&str]] = &[
    &["INVX1", "INVX2", "INVX4", "INVX8"],
    &["NAND2X1", "NAND2X2"],
    &["NOR2X1", "NOR2X2"],
    &["BUFX2", "BUFX4"],
];
const REROUTE_SCALES: [&str; 4] = ["0.6", "0.8", "1.25", "1.5"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    WhatIf,
    Commit,
    Analyze,
    Query,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::WhatIf => "what-if",
            Kind::Commit => "eco",
            Kind::Analyze => "analyze",
            Kind::Query => "query",
        }
    }
}

#[derive(Debug, Clone)]
struct Request {
    kind: Kind,
    edits: Vec<String>,
    net: String,
}

/// The designer's request stream: every choice comes from the seed and
/// from the committed design state, never from timing.
struct Stream {
    rng: Rng,
    /// `(gate, family index)` of every resizable gate.
    resizable: Vec<(String, usize)>,
    /// Committed cell of every resizable gate.
    cells: HashMap<String, String>,
    nets: Vec<String>,
    endpoints: Vec<String>,
}

impl Stream {
    fn new(seed: u64, netlist: &Netlist, endpoints: Vec<String>) -> Stream {
        let mut resizable = Vec::new();
        let mut cells = HashMap::new();
        for g in netlist.gates() {
            if let Some(f) = FAMILIES
                .iter()
                .position(|fam| fam.contains(&g.cell.as_str()))
            {
                resizable.push((g.name.clone(), f));
                cells.insert(g.name.clone(), g.cell.clone());
            }
        }
        let nets = netlist
            .nets()
            .iter()
            .filter(|n| n.driver.is_some() && !n.is_clock && !n.loads.is_empty())
            .map(|n| n.name.clone())
            .collect();
        Stream {
            rng: Rng::new(seed),
            resizable,
            cells,
            nets,
            endpoints,
        }
    }

    fn edit(&mut self) -> String {
        if self.rng.unit() < 0.5 {
            let (gate, family) = self.resizable[self.rng.below(self.resizable.len())].clone();
            let current = &self.cells[&gate];
            let others: Vec<&str> = FAMILIES[family]
                .iter()
                .copied()
                .filter(|c| c != current)
                .collect();
            format!("resize {gate} {}", others[self.rng.below(others.len())])
        } else {
            let net = &self.nets[self.rng.below(self.nets.len())];
            let scale = REROUTE_SCALES[self.rng.below(REROUTE_SCALES.len())];
            format!("reroute {net} {scale}")
        }
    }

    fn next(&mut self) -> Request {
        let u = self.rng.unit();
        let kind = if u < 0.5 {
            Kind::WhatIf
        } else if u < 0.7 {
            Kind::Commit
        } else if u < 0.9 {
            Kind::Analyze
        } else {
            Kind::Query
        };
        let mut edits = Vec::new();
        let mut net = String::new();
        match kind {
            Kind::WhatIf | Kind::Commit => {
                for _ in 0..1 + self.rng.below(2) {
                    edits.push(self.edit());
                }
            }
            Kind::Query => net = self.endpoints[self.rng.below(self.endpoints.len())].clone(),
            Kind::Analyze => {}
        }
        Request { kind, edits, net }
    }

    /// Records a committed ECO so later resizes start from its cells.
    fn committed(&mut self, req: &Request) {
        for e in &req.edits {
            if let ["resize", gate, cell] = e.split_whitespace().collect::<Vec<_>>().as_slice() {
                self.cells.insert(gate.to_string(), cell.to_string());
            }
        }
    }
}

/// One answered request of the loop.
struct Sample {
    req: Request,
    rtt: f64,
    /// The analysis time the daemon reports (`runtime_s`), if any.
    server: Option<f64>,
    resp: Json,
}

fn num(resp: &Json, key: &str) -> f64 {
    resp.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn refused(resp: &Json) -> Option<String> {
    let ok = resp.get("ok").and_then(Json::as_bool) == Some(true);
    let code = resp.get("exit_code").and_then(Json::as_f64);
    (!ok || code != Some(0.0)).then(|| resp.write())
}

/// A daemon running on its own thread, with the client that drives it.
struct Served {
    handle: JoinHandle<std::io::Result<ServeSummary>>,
    client: Client,
    socket: PathBuf,
}

/// Shuts the daemon down and joins its thread. A client whose connection
/// broke cannot deliver the shutdown, so a fresh connection does; the
/// daemon thread must never outlive the run.
fn stop(served: Served) -> Result<(), String> {
    let Served {
        handle,
        mut client,
        socket,
    } = served;
    let mut bye = client.shutdown();
    if bye.is_err() {
        bye = Client::connect(&socket).and_then(|mut c| c.shutdown());
    }
    let joined = handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;
    joined.map_err(|e| format!("daemon: {e}"))?;
    bye.map(drop).map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx, tr: &Tracer) -> Result<Outcome, String> {
    let prep = prep::ensure(&ctx.root, ctx.build, prep::ECO)?;
    let bench = copy_into(&prep.join(MEDIUM_BENCH), &ctx.run_dir).map_err(|e| e.to_string())?;
    let char_store =
        copy_into(&prep.join(prep::ECO_CHARSTORE), &ctx.run_dir).map_err(|e| e.to_string())?;
    let endpoints: Vec<String> = std::fs::read_to_string(prep.join(prep::ECO_ENDPOINTS))
        .map_err(|e| e.to_string())?
        .lines()
        .map(str::to_string)
        .collect();
    let signoff = prep::read_reference(&prep.join(prep::ECO_REF))?.longest;
    let tech = Tech::new();
    let config = ExecConfig::default().with_char_store(Some(char_store.clone()));
    let netlist = design::load(&bench, &tech, &Tracer::new(false, 0))?.netlist;
    let mut stream = Stream::new(ctx.seed, &netlist, endpoints);
    drop(netlist);
    let bench_arg = bench.to_string_lossy().to_string();

    let mut out = Outcome::default();
    let grid0 = macromodel::char_solves();
    let mut setups = Vec::new();
    let mut loads = Vec::new();
    let mut replayed = 0.0;
    let mut committed_bits: Option<String> = None;
    let mut loaded_delay = f64::NAN;
    let mut served = None;
    for k in 0..SETUPS {
        let store = ctx.run_dir.join(format!("solve-{k}.store"));
        std::fs::copy(prep.join(prep::ECO_SOLVESTORE), &store).map_err(|e| e.to_string())?;
        let socket = ctx.run_dir.join(format!("d{k}.sock"));
        let daemon_config = ServeConfig::new(&socket)
            .with_store(Some(store))
            .with_exec(config.clone());
        let t0 = Instant::now();
        let region = tr.open(REGION, "setup");
        let daemon = tr
            .span("sta::serve", "Daemon::bind", || Daemon::bind(daemon_config))
            .map_err(|e| format!("bind: {e}"))?;
        let handle = std::thread::spawn(move || daemon.run());
        let mut client = tr
            .span("sta::serve", "Client::connect", || {
                Client::connect_retry(&socket, Duration::from_secs(30))
            })
            .map_err(|e| format!("connect: {e}"))?;
        let t_load = Instant::now();
        let load = tr.span("sta::serve", "Client::load", || {
            client.load(SESSION, &bench_arg, None)
        });
        loads.push(t_load.elapsed().as_secs_f64());
        let first = tr.span("sta::serve", "Client::analyze", || {
            client.analyze(SESSION, Some(MODE_TOKEN))
        });
        tr.close(region);
        setups.push(t0.elapsed().as_secs_f64());
        let here = Served {
            handle,
            client,
            socket,
        };
        let (load, first) = match (load, first) {
            (Ok(l), Ok(f)) => (l, f),
            (l, f) => {
                let _ = stop(here);
                return Err(format!(
                    "setup requests failed: {:?} / {:?}",
                    l.err(),
                    f.err()
                ));
            }
        };
        out.op(refused(&load));
        out.op(refused(&first));
        replayed = num(&load, "store_replayed");
        committed_bits = first.str_field("delay_bits").map(str::to_string);
        loaded_delay = first
            .str_field("delay_bits")
            .and_then(f64_from_bits_hex)
            .unwrap_or(f64::NAN);
        if k + 1 < SETUPS {
            stop(here)?;
        } else {
            served = Some(here);
        }
    }
    let mut served = served.ok_or("no daemon left running")?;

    let before = served.client.stats().map_err(|e| e.to_string())?;
    let mut samples: Vec<Sample> = Vec::new();
    let mut committed_edits: Vec<String> = Vec::new();
    let mut endpoint_bits: HashMap<String, String> = HashMap::new();
    let ((), loop_cost) = measure(|| {
        let region = tr.open(REGION, "loop");
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < ctx.seconds {
            let req = stream.next();
            let id = samples.len() as u64 + 1;
            let client = &mut served.client;
            let t0 = Instant::now();
            let resp = tr.span_id("sta::serve", req.kind.label(), id, || {
                let edits: Vec<&str> = req.edits.iter().map(String::as_str).collect();
                match req.kind {
                    Kind::WhatIf => client.what_if(SESSION, &edits, Some(MODE_TOKEN)),
                    Kind::Commit => client.eco(SESSION, &edits),
                    Kind::Analyze => client.analyze(SESSION, Some(MODE_TOKEN)),
                    Kind::Query => client.query(SESSION, &req.net, Some(MODE_TOKEN), None),
                }
            });
            let rtt = t0.elapsed().as_secs_f64();
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    out.op(Some(format!("request {id} ({}): {e}", req.kind.label())));
                    break;
                }
            };
            let mut problem = refused(&resp);
            if problem.is_none() {
                match req.kind {
                    Kind::Commit => {
                        stream.committed(&req);
                        committed_edits.extend(req.edits.iter().cloned());
                        committed_bits = None;
                        endpoint_bits.clear();
                    }
                    Kind::Analyze => {
                        let bits = resp.str_field("delay_bits").map(str::to_string);
                        if committed_bits.is_some() && bits != committed_bits {
                            problem = Some("committed bits moved without a commit".into());
                        }
                        committed_bits = bits;
                    }
                    Kind::Query => {
                        let bits = resp.str_field("arrival_bits").unwrap_or("").to_string();
                        let prev = endpoint_bits.insert(req.net.clone(), bits.clone());
                        if prev.is_some_and(|p| p != bits) {
                            problem = Some(format!("endpoint {} moved without a commit", req.net));
                        }
                    }
                    Kind::WhatIf => {}
                }
            }
            out.op(problem.map(|p| format!("request {id} ({}): {p}", req.kind.label())));
            let server = resp.get("runtime_s").and_then(Json::as_f64);
            samples.push(Sample {
                req,
                rtt,
                server,
                resp,
            });
        }
        tr.close(region);
    });
    let loop_wall = loop_cost.wall;

    // Untimed: the committed state, the daemon's counters, shutdown.
    let after = served.client.stats().map_err(|e| e.to_string());
    let last = served.client.analyze(SESSION, Some(MODE_TOKEN));
    stop(served)?;
    let after = after?;
    let last = last.map_err(|e| e.to_string())?;
    let final_bits = last.str_field("delay_bits").map(str::to_string);
    let mut final_problem = refused(&last);
    if final_problem.is_none() && committed_bits.is_some() && final_bits != committed_bits {
        final_problem = Some("final analyze moved without a commit".into());
    }

    // The final session bits against a fresh batch analysis of the
    // post-ECO design, and the fast path against signoff on it.
    let post = post_eco(&bench, &tech, &config, &committed_edits)?;
    if f64_bits_hex(post.fast) != final_bits.clone().unwrap_or_default() {
        final_problem.get_or_insert_with(|| {
            format!(
                "session {} != fresh batch {}",
                final_bits.clone().unwrap_or_default(),
                f64_bits_hex(post.fast)
            )
        });
    }
    out.op(final_problem.map(|p| format!("final state: {p}")));

    let rtts: Vec<f64> = samples.iter().map(|s| s.rtt).collect();
    let of = |k: Kind| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.req.kind == k)
            .map(|s| s.rtt)
            .collect()
    };
    let whatifs = of(Kind::WhatIf);
    let whatif = median(&whatifs);
    out.put("setup_s", median(&setups));
    // What-if latency is bimodal: after another what-if's rollback the
    // session re-times every stage, otherwise only the edited cone. The
    // median jumps between the modes as the seeded mix shifts; the
    // trimmed mean moves with the mix and drops host stalls.
    out.put("analysis_s", trimmed_mean(&whatifs, 0.1));
    // On the design as loaded (the session's first analysis): the
    // post-ECO design depends on how many requests the loop completed.
    out.put("pessimism_pct", (loaded_delay / signoff - 1.0) * 100.0);
    out.put("peak_rss_mb", peak_rss_mb());
    out.put("request_p50_ms", median(&rtts) * 1e3);
    out.put("request_p95_ms", quantile(&rtts, 0.95) * 1e3);
    out.put("whatif_p50_ms", whatif * 1e3);
    out.put("commit_p50_ms", median(&of(Kind::Commit)) * 1e3);
    out.put("requests_per_s", ratio(samples.len() as f64, loop_wall));

    let count = |k: Kind| Json::num(samples.iter().filter(|s| s.req.kind == k).count() as f64);
    out.meta.extend([
        (
            "setup_samples_s",
            Json::Arr(setups.iter().map(|&a| Json::num(a)).collect()),
        ),
        ("requests", Json::num(samples.len() as f64)),
        ("what_ifs", count(Kind::WhatIf)),
        ("commits", count(Kind::Commit)),
        ("analyzes", count(Kind::Analyze)),
        ("queries", count(Kind::Query)),
        ("committed_edits", Json::num(committed_edits.len() as f64)),
        ("gates", Json::num(post.gates as f64)),
        ("nets", Json::num(post.nets as f64)),
        ("coupling_caps", Json::num(post.couplings as f64)),
        ("stages", Json::num(post.stages as f64)),
        (
            "post_eco_pessimism_pct",
            Json::num((post.fast / post.signoff - 1.0) * 100.0),
        ),
        ("loop_cpu_s", Json::num(loop_cost.cpu)),
        ("loop_wall_s", Json::num(loop_wall)),
    ]);

    if tr.on() {
        let server: Vec<f64> = samples.iter().filter_map(|s| s.server).collect();
        // On an analyze the reported runtime is all the server's work, so
        // the rest of the round trip is protocol and session overhead (a
        // what-if's apply and rollback run outside its runtime).
        let overhead: Vec<f64> = samples
            .iter()
            .filter(|s| s.req.kind == Kind::Analyze)
            .filter_map(|s| s.server.map(|t| s.rtt - t))
            .collect();
        out.put("serve.server_ms", median(&server) * 1e3);
        out.put("serve.overhead_ms", median(&overhead) * 1e3);
        out.put("serve.load_ms", median(&loads) * 1e3);
        out.put("serve.requests", samples.len() as f64);
        out.put("serve.busy", num(&after, "busy_rejections"));
        out.put("serve.deadline_hits", num(&after, "deadline_hits"));
        let store_stats = after.get("store").cloned().unwrap_or(Json::Null);
        out.put("solvestore.replayed", replayed);
        out.put("solvestore.appended", num(&store_stats, "appended"));
        out.put("solvestore.deduped", num(&store_stats, "deduped"));
        out.put(
            "kernel.cpu_per_wall",
            cpu_per_wall(loop_cost.cpu, loop_wall),
        );
        replay(ctx, tr, &tech, &bench, &char_store, &samples, &mut out)?;
        let session = |stats: &Json, key: &str| {
            stats
                .get("sessions")
                .and_then(Json::as_arr)
                .and_then(|rows| rows.first())
                .map_or(0.0, |row| num(row, key))
        };
        let cache_hits = session(&after, "cache_hits") - session(&before, "cache_hits");
        out.put("cache.hits", cache_hits);
        out.put(
            "cache.hit_ratio",
            ratio(cache_hits, out.value("kernel.stage_solves").unwrap_or(0.0)),
        );
        out.put(
            "cache.admitted",
            session(&after, "cache_admitted") - session(&before, "cache_admitted"),
        );
        out.put(
            "cache.skipped",
            session(&after, "cache_skipped") - session(&before, "cache_skipped"),
        );
        out.notes.push(
            "unavailable on eco_session: cache.evictions (serve stats expose no eviction \
             count)"
                .to_string(),
        );

        layers::char_counters(&mut out, macromodel::char_solves() - grid0);
        out.put("charstore.bytes", file_bytes(&char_store) as f64);
        layers::menu_metrics(&mut out, &tech.process, &tech.library);
    }
    Ok(out)
}

struct PostEco {
    fast: f64,
    signoff: f64,
    gates: usize,
    nets: usize,
    couplings: usize,
    stages: usize,
}

/// Rebuilds the post-ECO design from the committed edits and analyzes it
/// in batch, fast path and signoff.
fn post_eco(
    bench: &Path,
    tech: &Tech,
    config: &ExecConfig,
    edits: &[String],
) -> Result<PostEco, String> {
    let loaded = design::load(bench, tech, &Tracer::new(false, 0))?;
    let mut inc = IncrementalSta::with_config(
        loaded.netlist,
        &tech.library,
        &tech.process,
        loaded.parasitics,
        config.clone(),
    )
    .map_err(|e| e.to_string())?;
    for (i, line) in edits.iter().enumerate() {
        let edit = Edit::parse_line(line, i + 1).map_err(|e| e.to_string())?;
        inc.apply(&edit).map_err(|e| format!("{line}: {e}"))?;
    }
    let analyze = |config: ExecConfig| {
        Sta::with_config(
            inc.netlist(),
            &tech.library,
            &tech.process,
            inc.parasitics(),
            config,
        )
        .and_then(|sta| sta.analyze(MODE))
        .map_err(|e| e.to_string())
    };
    let fast = analyze(config.clone())?;
    let signoff = analyze(ExecConfig::default().with_signoff(true))?;
    Ok(PostEco {
        fast: fast.longest_delay,
        signoff: signoff.longest_delay,
        gates: inc.netlist().gate_count(),
        nets: inc.netlist().net_count(),
        couplings: inc.parasitics().coupling_count() / 2,
        stages: inc.graph().stages.len(),
    })
}

/// The traced run's in-process replay: the loop's exact request sequence
/// through `IncrementalSta` (apply, analyze, rollback), so the incremental
/// layer's share of a request shows without the protocol around it. The
/// analyses must reproduce the daemon's bits.
fn replay(
    ctx: &Ctx,
    tr: &Tracer,
    tech: &Tech,
    bench: &Path,
    char_store: &Path,
    samples: &[Sample],
    out: &mut Outcome,
) -> Result<(), String> {
    let config = ExecConfig::default().with_char_store(Some(char_store.to_path_buf()));
    let region = tr.open(REGION, "replay");
    let loaded = design::load(bench, tech, tr)?;
    out.put(
        "layout.coupling_caps",
        (loaded.parasitics.coupling_count() / 2) as f64,
    );
    let mut inc = tr
        .span("sta", "IncrementalSta::with_config", || {
            IncrementalSta::with_config(
                loaded.netlist,
                &tech.library,
                &tech.process,
                loaded.parasitics,
                config,
            )
        })
        .map_err(|e| e.to_string())?;
    let analyze = |inc: &mut IncrementalSta<'_>| {
        tr.span("sta::incremental", "IncrementalSta::analyze", || {
            inc.analyze(MODE)
        })
        .map(|r| (r, inc.last_stats()))
        .map_err(|e| e.to_string())
    };
    let (first, first_stats) = analyze(&mut inc)?;
    let mut reports = vec![first];
    let mut stats = vec![first_stats];
    let mut mismatches = 0usize;
    for s in samples {
        let apply = |inc: &mut IncrementalSta<'_>| -> Result<(), String> {
            for line in &s.req.edits {
                let edit = Edit::parse_line(line, 1).map_err(|e| e.to_string())?;
                tr.span("sta::incremental", "IncrementalSta::apply", || {
                    inc.apply(&edit)
                })
                .map_err(|e| format!("{line}: {e}"))?;
            }
            Ok(())
        };
        let report = match s.req.kind {
            Kind::WhatIf => {
                let cp = tr.span("sta::incremental", "IncrementalSta::checkpoint", || {
                    inc.checkpoint()
                });
                apply(&mut inc)?;
                let r = analyze(&mut inc)?;
                tr.span("sta::incremental", "IncrementalSta::rollback", || {
                    inc.rollback(cp)
                })
                .map_err(|e| e.to_string())?;
                Some(r)
            }
            Kind::Commit => {
                apply(&mut inc)?;
                None
            }
            Kind::Analyze | Kind::Query => Some(analyze(&mut inc)?),
        };
        if let Some((r, st)) = report {
            let served = s.resp.str_field("delay_bits");
            if served.is_some_and(|b| b != f64_bits_hex(r.longest_delay)) {
                mismatches += 1;
            }
            stats.push(st);
            reports.push(r);
        }
    }
    tr.close(region);
    if mismatches > 0 {
        out.op(Some(format!(
            "{mismatches} served analyses differ from the in-process replay"
        )));
    }
    let ms = |name: &str| span_median(tr, name) * 1e3;
    out.put("incremental.apply_ms", ms("IncrementalSta::apply"));
    out.put("incremental.analyze_ms", ms("IncrementalSta::analyze"));
    out.put("incremental.rollback_ms", ms("IncrementalSta::rollback"));
    let evaluated: Vec<f64> = stats.iter().map(|s| s.stages_evaluated as f64).collect();
    out.put(
        "incremental.stages_evaluated",
        evaluated.iter().sum::<f64>() / evaluated.len() as f64,
    );
    let full = stats.iter().filter(|s| s.full).count() as f64;
    out.put("incremental.full_ratio", ratio(full, stats.len() as f64));
    // Kernel, table and Newton work of the replayed analyses: the same
    // calls the session made, minus its solve-store warmth.
    layers::analysis_counters(out, &reports.iter().collect::<Vec<_>>());
    out.put("netlist.parse_s", span_median(tr, "bench::parse"));
    out.put("layout.place_s", span_median(tr, "place"));
    out.put("layout.route_s", span_median(tr, "route"));
    out.put("layout.extract_s", span_median(tr, "extract"));
    out.put("graph.stages", inc.graph().stages.len() as f64);
    out.put("graph.arcs", inc.graph().arc_count() as f64);

    // Layers the daemon's session build runs internally, timed directly.
    let replayed = tr.span("probe", "layer probes", || {
        let _ = tr.span("sta::graph", "TimingGraph::build", || {
            TimingGraph::build(
                inc.netlist(),
                &tech.library,
                &tech.process,
                inc.parasitics(),
            )
        });
        let replay = tr.span("sta::charstore", "CharStore::open+load", || {
            CharStore::open(char_store).and_then(|s| s.load())
        });
        tr.span("wave::macromodel", "prewarm_library", || {
            macromodel::prewarm_library(&tech.process, &tech.library, ctx.threads)
        });
        replay
    });
    out.put("graph.build_s", span_median(tr, "TimingGraph::build"));
    out.put("char.prewarm_s", span_median(tr, "prewarm_library"));
    out.put(
        "charstore.replay_s",
        span_median(tr, "CharStore::open+load"),
    );
    if let Ok(r) = replayed {
        out.put("charstore.records", r.models as f64);
        out.put("charstore.skipped", r.corrupt as f64);
    }
    Ok(())
}
