//! Small shared helpers: process counters, order statistics, a seeded
//! generator, file helpers and the result record.

use std::path::{Path, PathBuf};
use std::time::Instant;

use xtalk::sta::serve::Json;

/// Process CPU seconds (user + system, every thread the process ever ran),
/// from `/proc/self/stat`. Resolution is one clock tick (10 ms), so it is
/// only read around regions of half a second or more.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 11 and 12 after the `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores the analyzer's worker pool sizes itself to.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Wall and CPU seconds of one region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

/// Runs `f`, returning its value with the wall and CPU seconds it took.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (
        out,
        Cost {
            wall,
            cpu: cpu_seconds() - cpu0,
        },
    )
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile `q` in `[0, 1]` of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of `values` after dropping the lowest and highest `trim` share of
/// them; 0 when empty.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// SplitMix64: the workload generator. Every seeded choice goes through
/// it, so one seed always yields one request stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a file's bytes — the build fingerprint that keys the
/// prepared snapshots, so one build never replays another build's stores.
pub fn file_digest(path: &Path) -> std::io::Result<u64> {
    let bytes = std::fs::read(path)?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(h)
}

/// Copies `src` into `dir` under the same file name, returning the copy.
pub fn copy_into(src: &Path, dir: &Path) -> std::io::Result<PathBuf> {
    let name = src.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let dst = dir.join(name);
    std::fs::copy(src, &dst)?;
    Ok(dst)
}

/// File size in bytes, 0 when missing.
pub fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One named metric; its unit comes from the catalogue in `layers`.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// What one workload run produced: its metrics plus the operation tally
/// that becomes `attempted` / `failed`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for every failed operation.
    pub failures: Vec<String>,
    /// Run metadata printed beside the result (design size, CPU time...).
    pub meta: Vec<(&'static str, Json)>,
    /// Free-text lines printed with the metrics: menu counts, estimates,
    /// and why a metric is unavailable on this workload.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }

    /// Counts one operation; `problem` marks it failed.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.failures.push(p);
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}
