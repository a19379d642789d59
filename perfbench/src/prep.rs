//! The untimed preparation step.
//!
//! Per build under test (the snapshots are keyed by a digest of the
//! benchmark executable, so a `GRID_VERSION` bump in another build never
//! replays a stale store), it generates the inputs, fills the
//! characterization-store and solve-store snapshots and computes the
//! signoff references. It runs once in a child process of its own, so the
//! timed run's process never inherits its warm tables or its memory peak;
//! every timed run then works on copies of the snapshots.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use xtalk::netlist::{bench, generator, GeneratorConfig};
use xtalk::sta::report::ModeReport;
use xtalk::sta::serve::{Client, Daemon, ServeConfig};
use xtalk::sta::{AnalysisMode, ExecConfig, Sta};
use xtalk::tech::Corner;

use crate::design::{self, Tech, CHIP_BENCH, MEDIUM_BENCH, MEDIUM_SEED};
use crate::trace::Tracer;

pub const CHIP: &str = "chip_iterative";
pub const CORNERS: &str = "corners_cold";
pub const ECO: &str = "eco_session";

pub const CHIP_CHARSTORE: &str = "chip.charstore";
pub const CHIP_REF: &str = "chip.ref";
pub const CORNERS_REF: &str = "corners.ref";
pub const ECO_CHARSTORE: &str = "eco.charstore";
pub const ECO_SOLVESTORE: &str = "eco.solvestore";
pub const ECO_ENDPOINTS: &str = "eco.endpoints";
pub const ECO_REF: &str = "eco.ref";

const READY: &str = "READY";

/// The prepared snapshot directory of `workload` for this build, running
/// the preparation child process first if it does not exist yet.
pub fn ensure(root: &Path, build: u64, workload: &str) -> Result<PathBuf, String> {
    let dir = root.join(format!("prep-{build:016x}")).join(workload);
    if dir.join(READY).exists() {
        return Ok(dir);
    }
    let tmp = dir.with_extension(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    eprintln!("perfbench: preparing {workload} snapshots (untimed)");
    let status = Command::new(exe)
        .arg("--prepare")
        .arg(workload)
        .arg("--out")
        .arg(&tmp)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("preparation process: {e}"))?;
    if !status.success() {
        let _ = std::fs::remove_dir_all(&tmp);
        return Err(format!("preparing {workload} failed ({status})"));
    }
    std::fs::write(tmp.join(READY), b"").map_err(|e| e.to_string())?;
    if std::fs::rename(&tmp, &dir).is_err() {
        // Another run finished the same preparation first.
        let _ = std::fs::remove_dir_all(&tmp);
        if !dir.join(READY).exists() {
            return Err(format!("could not install {}", dir.display()));
        }
    }
    Ok(dir)
}

/// The preparation itself, run in the child process.
pub fn prepare(workload: &str, out: &Path) -> Result<(), String> {
    let tech = Tech::new();
    match workload {
        CHIP => {
            write_design(&GeneratorConfig::s38417_like(), &tech, out, CHIP_BENCH)?;
            let loaded = design::load(&out.join(CHIP_BENCH), &tech, &Tracer::new(false, 0))?;
            fill_char_store(&tech, &loaded, &out.join(CHIP_CHARSTORE))?;
            let signoff = Sta::with_config(
                &loaded.netlist,
                &tech.library,
                &tech.process,
                &loaded.parasitics,
                ExecConfig::default().with_signoff(true),
            )
            .map_err(|e| e.to_string())?
            .analyze(AnalysisMode::Iterative { esperance: false })
            .map_err(|e| e.to_string())?;
            write_reference(&out.join(CHIP_REF), &signoff)
        }
        CORNERS => {
            write_design(
                &GeneratorConfig::medium(MEDIUM_SEED),
                &tech,
                out,
                MEDIUM_BENCH,
            )?;
            let loaded = design::load(&out.join(MEDIUM_BENCH), &tech, &Tracer::new(false, 0))?;
            let mut text = String::new();
            for corner in Corner::default_matrix() {
                let process = tech.process.corner(&corner);
                let r = Sta::with_config(
                    &loaded.netlist,
                    &tech.library,
                    &process,
                    &loaded.parasitics,
                    ExecConfig::default().with_signoff(true),
                )
                .map_err(|e| e.to_string())?
                .analyze(AnalysisMode::OneStep)
                .map_err(|e| e.to_string())?;
                text.push_str(&format!(
                    "{} {:016x}\n",
                    corner.name,
                    r.longest_delay.to_bits()
                ));
            }
            std::fs::write(out.join(CORNERS_REF), text).map_err(|e| e.to_string())
        }
        ECO => {
            write_design(
                &GeneratorConfig::medium(MEDIUM_SEED),
                &tech,
                out,
                MEDIUM_BENCH,
            )?;
            let bench_path = out.join(MEDIUM_BENCH);
            let loaded = design::load(&bench_path, &tech, &Tracer::new(false, 0))?;
            let char_store = out.join(ECO_CHARSTORE);
            fill_char_store(&tech, &loaded, &char_store)?;
            let report = Sta::with_config(
                &loaded.netlist,
                &tech.library,
                &tech.process,
                &loaded.parasitics,
                ExecConfig::default().with_char_store(Some(char_store.clone())),
            )
            .map_err(|e| e.to_string())?
            .analyze(AnalysisMode::OneStep)
            .map_err(|e| e.to_string())?;
            let names: Vec<&str> = report
                .endpoints
                .iter()
                .map(|e| loaded.netlist.net(e.net).name.as_str())
                .collect();
            std::fs::write(out.join(ECO_ENDPOINTS), names.join("\n")).map_err(|e| e.to_string())?;
            let signoff = Sta::with_config(
                &loaded.netlist,
                &tech.library,
                &tech.process,
                &loaded.parasitics,
                ExecConfig::default().with_signoff(true),
            )
            .map_err(|e| e.to_string())?
            .analyze(AnalysisMode::OneStep)
            .map_err(|e| e.to_string())?;
            write_reference(&out.join(ECO_REF), &signoff)?;
            fill_solve_store(out, &bench_path, &char_store)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Generates a design and writes it as `.bench`: the workload's input file.
fn write_design(
    config: &GeneratorConfig,
    tech: &Tech,
    out: &Path,
    name: &str,
) -> Result<(), String> {
    let netlist = generator::generate(config, &tech.library).map_err(|e| e.to_string())?;
    let text = bench::write(&netlist, &tech.library).map_err(|e| e.to_string())?;
    std::fs::write(out.join(name), text).map_err(|e| e.to_string())
}

/// Characterizes the base library into a fresh store: building any
/// analyzer with a store runs the full prewarm and appends every model.
fn fill_char_store(tech: &Tech, loaded: &design::Loaded, path: &Path) -> Result<(), String> {
    Sta::with_config(
        &loaded.netlist,
        &tech.library,
        &tech.process,
        &loaded.parasitics,
        ExecConfig::default().with_char_store(Some(path.to_path_buf())),
    )
    .map(drop)
    .map_err(|e| e.to_string())
}

/// Loads the medium block into a throwaway daemon and analyzes it once,
/// leaving the solve store a restarted daemon would find.
fn fill_solve_store(out: &Path, bench_path: &Path, char_store: &Path) -> Result<(), String> {
    let socket = out.join("prep.sock");
    let config = ServeConfig::new(&socket)
        .with_store(Some(out.join(ECO_SOLVESTORE)))
        .with_exec(ExecConfig::default().with_char_store(Some(char_store.to_path_buf())));
    let daemon = Daemon::bind(config).map_err(|e| format!("bind: {e}"))?;
    let handle = std::thread::spawn(move || daemon.run());
    let result = (|| {
        let mut client = Client::connect_retry(&socket, Duration::from_secs(30))
            .map_err(|e| format!("connect: {e}"))?;
        let bench = bench_path.to_string_lossy();
        for resp in [
            client.load("eco", &bench, None),
            client.analyze("eco", Some("onestep")),
            client.shutdown(),
        ] {
            let resp = resp.map_err(|e| e.to_string())?;
            if resp.get("ok").and_then(|v| v.as_bool()) != Some(true) {
                return Err(format!("solve-store fill refused: {}", resp.write()));
            }
        }
        Ok(())
    })();
    if result.is_err() {
        // The daemon only exits on a shutdown request; deliver one on a
        // fresh connection so joining its thread cannot hang.
        let _ = Client::connect(&socket).and_then(|mut c| c.shutdown());
    }
    let joined = handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;
    joined.map_err(|e| format!("daemon: {e}"))?;
    result
}

/// A signoff reference: the longest delay and every endpoint's arrivals,
/// as exact bits.
pub struct Reference {
    pub longest: f64,
    /// `(net index, rise, fall)` per endpoint.
    pub endpoints: Vec<(usize, Option<f64>, Option<f64>)>,
}

fn hex(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{:016x}", v.to_bits()))
}

fn unhex(s: &str) -> Result<Option<f64>, String> {
    if s == "-" {
        return Ok(None);
    }
    u64::from_str_radix(s, 16)
        .map(|b| Some(f64::from_bits(b)))
        .map_err(|e| format!("bad reference value `{s}`: {e}"))
}

fn write_reference(path: &Path, r: &ModeReport) -> Result<(), String> {
    let mut text = format!("longest {}\n", hex(Some(r.longest_delay)));
    for e in &r.endpoints {
        text.push_str(&format!(
            "ep {} {} {}\n",
            e.net.index(),
            hex(e.rise),
            hex(e.fall)
        ));
    }
    std::fs::write(path, text).map_err(|e| e.to_string())
}

pub fn read_reference(path: &Path) -> Result<Reference, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut longest = None;
    let mut endpoints = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["longest", v] => longest = unhex(v)?,
            ["ep", net, rise, fall] => endpoints.push((
                net.parse::<usize>().map_err(|e| e.to_string())?,
                unhex(rise)?,
                unhex(fall)?,
            )),
            _ => return Err(format!("{}: bad line `{line}`", path.display())),
        }
    }
    Ok(Reference {
        longest: longest.ok_or("reference has no longest delay")?,
        endpoints,
    })
}

/// `corner -> signoff longest delay` from the corners reference file.
pub fn read_corner_reference(path: &Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(
            |line| match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                [name, v] => Ok((name.to_string(), unhex(v)?.unwrap_or(f64::NAN))),
                _ => Err(format!("{}: bad line `{line}`", path.display())),
            },
        )
        .collect()
}
