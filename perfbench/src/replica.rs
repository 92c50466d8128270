//! Pieces shared by the traced replicas of the batch workloads: the
//! correctness gate and the traced Monte Carlo call.

use std::sync::Mutex;

use serr_core::jsonio::Json;
use serr_mc::MttfEstimate;
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{SerrError, SECONDS_PER_YEAR};

use crate::layers::Counters;
use crate::span::Tracer;
use crate::util::{jnum, within_sigmas};

/// How far, in standard errors, a Monte Carlo estimate may lie from the
/// exact renewal MTTF of the same point before the point counts as wrong.
pub const GATE_SIGMAS: f64 = 5.0;

/// Bytes of the compiled segment and index tables a sampler walks:
/// computed from the table sizes, not measured. A run reports its largest
/// table, the figure to set beside the L1 and L2 sizes.
#[must_use]
fn prefix_bytes(c: &CompiledTrace) -> f64 {
    // ends (u64) + values (f64) + prefix (f64) per segment; u32 buckets.
    (c.segment_count() * 24 + (c.bucket_count() + c.inv_bucket_count()) * 4) as f64
}

/// Results of the correctness gate over every estimate of a run, and the
/// band each figure of the untraced run's output must fall in.
#[derive(Debug, Default)]
pub struct GateLog(Mutex<Gate>);

#[derive(Debug, Default)]
struct Gate {
    checked: u64,
    failed: u64,
    worst_z: f64,
    bands: Vec<(String, f64, f64)>,
}

/// The range of `|reference - x| / x` over `x` in `[lo, hi]` (`lo > 0`):
/// the relative errors against `reference` a Monte Carlo MTTF in that
/// interval can produce. The function falls to 0 at `x = reference` and
/// is monotone on either side of it.
#[must_use]
pub fn error_band(reference: f64, lo: f64, hi: f64) -> (f64, f64) {
    let f = |x: f64| (reference - x).abs() / x;
    let (a, b) = (f(lo), f(hi));
    if (lo..=hi).contains(&reference) {
        (0.0, a.max(b))
    } else {
        (a.min(b), a.max(b))
    }
}

/// Widens a band by a relative 1e-9, so rounding in the program's own
/// arithmetic cannot push a figure on the edge outside it.
fn widen((lo, hi): (f64, f64)) -> (f64, f64) {
    (lo - lo.abs() * 1e-9, hi + hi.abs() * 1e-9)
}

impl GateLog {
    /// Checks one estimate against the exact MTTF; returns the interval,
    /// in seconds, that any correct Monte Carlo MTTF of this point lies in
    /// (the exact MTTF ± five of this estimate's standard errors).
    fn check(&self, est: &MttfEstimate, exact_s: f64) -> (f64, f64) {
        let se = est.ttf_seconds.std_dev / (est.ttf_seconds.count as f64).sqrt();
        let ok = within_sigmas(est.mttf.as_secs(), se, exact_s, GATE_SIGMAS);
        let z = (est.mttf.as_secs() - exact_s).abs() / se;
        let mut g = self.0.lock().expect("gate lock: a traced call panicked");
        g.checked += 1;
        g.failed += u64::from(!ok);
        if z.is_finite() {
            g.worst_z = g.worst_z.max(z);
        }
        ((exact_s - GATE_SIGMAS * se).max(f64::MIN_POSITIVE), exact_s + GATE_SIGMAS * se)
    }

    fn band(&self, key: String, (lo, hi): (f64, f64)) {
        let (lo, hi) = widen((lo, hi));
        self.0.lock().expect("gate lock: a traced call panicked").bands.push((key, lo, hi));
    }

    /// Gates `est` and records the band for the output row that reports
    /// the Monte Carlo MTTF itself, in years, under `key`.
    pub fn mttf_years(&self, key: String, est: &MttfEstimate, exact_s: f64) {
        let (lo, hi) = self.check(est, exact_s);
        self.band(key, (lo / SECONDS_PER_YEAR, hi / SECONDS_PER_YEAR));
    }

    /// Gates `est` and records the band for the output row that reports
    /// the relative error of `reference_s` against the Monte Carlo MTTF,
    /// under `key`.
    pub fn error_vs(&self, key: String, est: &MttfEstimate, exact_s: f64, reference_s: f64) {
        let (lo, hi) = self.check(est, exact_s);
        self.band(key, error_band(reference_s, lo, hi));
    }

    /// Records an exact band for a figure no Monte Carlo call produces.
    pub fn exact(&self, key: String, value: f64) {
        self.band(key, (value, value));
    }

    /// `fields` plus the gate's `gate_checked`, `gate_failed`,
    /// `gate_worst_z` and `gate_bands` (`[key, lo, hi]` each).
    #[must_use]
    pub fn to_json(&self, fields: Vec<(&str, Json)>) -> Json {
        let g = self.0.lock().expect("gate lock: a traced call panicked");
        let mut all: Vec<(String, Json)> =
            fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect();
        all.push(("gate_checked".to_owned(), jnum(g.checked as f64)));
        all.push(("gate_failed".to_owned(), jnum(g.failed as f64)));
        all.push(("gate_worst_z".to_owned(), jnum(g.worst_z)));
        let bands = g
            .bands
            .iter()
            .map(|(k, lo, hi)| Json::Arr(vec![Json::Str(k.clone()), jnum(*lo), jnum(*hi)]));
        all.push(("gate_bands".to_owned(), Json::Arr(bands.collect())));
        Json::Obj(all)
    }
}

/// One figure of an untraced run's output for the gate: the design point
/// it belongs to, its band key and its value.
#[must_use]
pub fn gate_row(point: &str, key: String, value: f64) -> Json {
    Json::Arr(vec![Json::Str(point.to_owned()), Json::Str(key), jnum(value)])
}

/// One Monte Carlo engine call (`f`) over `trace`, traced as `mc.sample`,
/// preceded by a `trace.compile` probe: a standalone compile of the same
/// trace, which the engine call repeats internally.
#[allow(clippy::too_many_arguments)]
pub fn mc_call<T>(
    tr: &Tracer,
    counters: &Counters,
    parent: usize,
    point: u64,
    trace: &dyn VulnerabilityTrace,
    trials: u64,
    points: usize,
    f: impl FnOnce() -> Result<T, SerrError>,
) -> Result<T, SerrError> {
    let compiled = tr.span("trace.compile", Some(parent), point, |_| CompiledTrace::compile(trace));
    counters.add("trace.compiles", 1.0);
    if let Some(c) = &compiled {
        counters.add("trace.segments", c.segment_count() as f64);
        counters.max("trace.prefix_bytes_computed", prefix_bytes(c));
    }
    drop(compiled);
    counters.add("mc.kernel_calls", 1.0);
    counters.add("mc.points", points as f64);
    counters.add("mc.trials", (trials * points as u64) as f64);
    tr.span("mc.sample", Some(parent), point, |_| f())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_band_spans_the_errors_an_interval_can_give() {
        // Reference inside the interval: the error can reach 0.
        let (lo, hi) = error_band(100.0, 90.0, 110.0);
        assert_eq!(lo, 0.0);
        assert!((hi - 10.0 / 90.0).abs() < 1e-15);
        // Reference below the interval: errors grow with the estimate.
        let (lo, hi) = error_band(80.0, 90.0, 110.0);
        assert!((lo - 10.0 / 90.0).abs() < 1e-15);
        assert!((hi - 30.0 / 110.0).abs() < 1e-15);
        // Reference above the interval: errors shrink as it nears.
        let (lo, hi) = error_band(120.0, 90.0, 110.0);
        assert!((lo - 10.0 / 110.0).abs() < 1e-15);
        assert!((hi - 30.0 / 90.0).abs() < 1e-15);
    }

    #[test]
    fn widened_band_keeps_its_edges() {
        let (lo, hi) = widen((2.0, 3.0));
        assert!(lo < 2.0 && hi > 3.0);
        assert!(2.0 - lo < 1e-8 && hi - 3.0 < 1e-8);
        assert_eq!(widen((0.0, 0.0)), (0.0, 0.0));
    }
}
