//! The xtalk benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chip_iterative|corners_cold|eco_session \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each invocation times one workload in a
//! fresh process against the public API, checks its outputs, prints every
//! metric by name with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`. Scratch state
//! lives under `.perfbench/` in the working directory; see
//! `perfbench/README.md` for the workloads and the metric map.

mod chip;
mod common;
mod corners;
mod design;
mod eco;
mod layers;
mod menus;
mod prep;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use xtalk::sta::serve::Json;
use xtalk::sta::ExecConfig;

use common::{cpu_seconds, host_cores, Outcome};
use trace::Tracer;

/// What every workload module receives.
pub struct Ctx {
    /// Scratch root (`.perfbench` under the working directory).
    pub root: PathBuf,
    /// This run's own directory for snapshot copies, removed at exit.
    pub run_dir: PathBuf,
    /// Digest of this executable: the build the snapshots belong to.
    pub build: u64,
    pub seed: u64,
    /// Measurement length the timed loops run for.
    pub seconds: f64,
    /// Worker threads the analyzers use (`nproc`).
    pub threads: usize,
}

const WORKLOADS: [&str; 3] = [prep::CHIP, prep::CORNERS, prep::ECO];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(1)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn run(args: &[String]) -> Result<(), String> {
    if let Some(workload) = flag(args, "--prepare") {
        let out = flag(args, "--out").ok_or("--prepare needs --out DIR")?;
        return prep::prepare(workload, std::path::Path::new(out));
    }
    let workload = flag(args, "--workload").ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed: u64 = flag(args, "--seed")
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let build = common::file_digest(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let root = PathBuf::from(".perfbench");
    let run_dir = root.join(format!("run-{}-{workload}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let ctx = Ctx {
        root,
        run_dir,
        build,
        seed,
        seconds,
        threads: ExecConfig::default().threads,
    };
    let tracer = Tracer::new(traced, seed);
    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    let outcome = match workload {
        prep::CHIP => chip::run(&ctx, &tracer),
        prep::CORNERS => corners::run(&ctx, &tracer),
        _ => eco::run(&ctx, &tracer),
    };
    let _ = std::fs::remove_dir_all(&ctx.run_dir);
    let mut outcome = outcome?;
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu0;

    let mut meta = vec![
        ("workload", Json::str(workload)),
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds)),
        ("trace", Json::Bool(traced)),
        ("host_cores", Json::num(host_cores() as f64)),
        ("threads", Json::num(ctx.threads as f64)),
        ("git_rev", Json::str(git_rev())),
        ("build", Json::str(format!("{build:016x}"))),
        ("wall_s", Json::num(wall)),
        ("cpu_s", Json::num(cpu)),
    ];
    meta.append(&mut outcome.meta);
    println!("meta {}", Json::obj(meta).write());

    let fail_ratio = common::ratio(outcome.failed as f64, outcome.attempted as f64);
    outcome.put("fail_ratio", fail_ratio);
    let catalogue = if traced {
        trace_metrics(&tracer, workload, seed, &mut outcome)?;
        layers::PER_LAYER
    } else {
        layers::END_TO_END
    };
    for m in &outcome.metrics {
        println!(
            "metric {} = {} {}",
            m.name,
            m.value,
            layers::unit_of(m.name)
        );
    }
    for note in &outcome.notes {
        println!("note {note}");
    }
    for f in &outcome.failures {
        println!("FAILED {f}");
    }
    println!(
        "fail_ratio = {fail_ratio} ({} of {} operations failed)",
        outcome.failed, outcome.attempted
    );

    let mut metrics = Vec::new();
    let mut absent = Vec::new();
    for &(name, unit) in catalogue {
        let value = match outcome.value(name) {
            Some(v) => v,
            None if traced => {
                absent.push(name);
                0.0
            }
            None => return Err(format!("{workload} produced no `{name}`")),
        };
        metrics.push((
            name,
            Json::obj(vec![("value", Json::num(value)), ("unit", Json::str(unit))]),
        ));
    }
    if !absent.is_empty() {
        println!(
            "note layers {workload} bypasses (reported as 0): {}",
            absent.join(", ")
        );
    }
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.write());
    Ok(())
}

/// Writes the Chrome trace and adds the tracing figures: span count, the
/// worst region coverage and the per-span overhead share.
fn trace_metrics(
    tracer: &Tracer,
    workload: &str,
    seed: u64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let path = PathBuf::from(".perfbench")
        .join("traces")
        .join(format!("{workload}-seed{seed}.json"));
    tracer
        .write_chrome(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace {}", path.display());
    let spans = tracer.spans();
    let regions: f64 = spans
        .iter()
        .filter(|s| s.layer == trace::REGION)
        .map(trace::Span::dur)
        .sum();
    for (layer, secs) in tracer.self_times() {
        println!("self {layer} = {secs} s");
    }
    let coverage = tracer.coverage();
    let mut worst: Vec<(&str, f64)> = Vec::new();
    for &(region, share) in &coverage {
        match worst.iter_mut().find(|(r, _)| *r == region) {
            Some(w) => w.1 = w.1.min(share),
            None => worst.push((region, share)),
        }
    }
    for (region, share) in &worst {
        println!("coverage {region} = {:.2} %", share * 100.0);
    }
    let overhead = trace::span_cost() * spans.len() as f64;
    outcome.put("trace.spans", spans.len() as f64);
    outcome.put(
        "trace.coverage_pct",
        worst.iter().map(|w| w.1).fold(1.0, f64::min) * 100.0,
    );
    outcome.put(
        "trace.overhead_pct",
        common::ratio(overhead, regions) * 100.0,
    );
    Ok(())
}

/// The repository revision when run inside a git work tree.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
