//! Small shared helpers: seeds, digests, directories, child processes and
//! host facts.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use serr_core::jsonio::Json;

/// SplitMix64 step: the benchmark's only source of pseudo-random input.
#[must_use]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for one purpose (`salt`), derived from the workload seed.
#[must_use]
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut s)
}

/// A uniform draw in `[0, 1)` from a SplitMix64 state.
#[must_use]
pub fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Hex digest of a run's output records (the checkpoint fingerprint,
/// FNV-1a): two runs whose outputs agree bit for bit print the same digest.
#[must_use]
pub fn digest(records: &[String]) -> String {
    let parts: Vec<&str> = records.iter().map(String::as_str).collect();
    format!("{:016x}", serr_core::checkpoint::fingerprint(&parts))
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Empties `dir` (creating it if needed).
///
/// # Panics
///
/// When the directory cannot be recreated: every workload depends on a
/// clean directory, so a run without one would measure the wrong thing.
pub fn reset_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("benchmark work directory must be creatable");
}

/// Files directly inside `dir` with their sizes and modification times,
/// sorted by name.
#[must_use]
pub fn dir_listing(dir: &Path) -> Vec<(String, u64, std::time::SystemTime)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| {
                    let md = e.metadata().ok()?;
                    md.is_file().then(|| {
                        (
                            e.file_name().to_string_lossy().into_owned(),
                            md.len(),
                            md.modified().unwrap_or(std::time::UNIX_EPOCH),
                        )
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The thread budget every run is pinned to: the host's parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Data/unified cache sizes of cpu0 as `(level, bytes)`, from sysfs.
#[must_use]
pub fn cache_sizes() -> Vec<(u32, u64)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let base = PathBuf::from(format!("/sys/devices/system/cpu/cpu0/cache/index{i}"));
        let read = |f: &str| std::fs::read_to_string(base.join(f)).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        if kind.trim() == "Instruction" {
            continue;
        }
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k * 1024),
            None => size.strip_suffix('M').and_then(|m| m.parse::<u64>().ok()).map(|m| m << 20),
        };
        if let (Ok(level), Some(bytes)) = (level.trim().parse::<u32>(), bytes) {
            out.push((level, bytes));
        }
    }
    out
}

/// The host's CPU time so far as `(steal, total)` clock ticks, from the
/// first line of `/proc/stat`; `(0, 0)` where it cannot be read.
#[must_use]
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal: guest time is
    // already counted in user time.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Runs this executable as a child in `mode` and returns its wall time
/// (spawn to exit, seconds) and the JSON object it printed last.
///
/// # Panics
///
/// When the child cannot start, fails, or prints no result: a run whose
/// measurement is missing must not report a number.
pub fn run_child(mode: &str, args: &[String]) -> (f64, Json) {
    let exe = std::env::current_exe().expect("path of the running benchmark executable");
    let t0 = Instant::now();
    let out = Command::new(exe)
        .arg("child")
        .arg(mode)
        .args(args)
        .env("SERR_THREADS", nproc().to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("benchmark child process must start");
    let wall = t0.elapsed().as_secs_f64();
    assert!(out.status.success(), "benchmark child `{mode}` failed: {}", out.status);
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
    let json = Json::parse(last)
        .unwrap_or_else(|| panic!("benchmark child `{mode}` printed no JSON result: {last:?}"));
    (wall, json)
}

/// `v.get(key)` as `f64`, or NaN.
#[must_use]
pub fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// `v.get(key)` as text, or empty.
#[must_use]
pub fn text(v: &Json, key: &str) -> String {
    v.get(key).and_then(Json::as_str).unwrap_or_default().to_owned()
}

/// A JSON object from `(key, value)` pairs.
#[must_use]
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Whether a Monte Carlo mean lies within `k` standard errors of the exact
/// value: the benchmark's correctness gate (k = 5).
#[must_use]
pub fn within_sigmas(mc: f64, std_err: f64, exact: f64, k: f64) -> bool {
    mc.is_finite() && exact.is_finite() && std_err > 0.0 && (mc - exact).abs() <= k * std_err
}

/// A JSON number, or `null` for a value JSON cannot spell (NaN, ∞).
#[must_use]
pub fn jnum(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else {
        Json::Null
    }
}
