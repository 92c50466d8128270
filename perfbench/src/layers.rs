//! Per-layer figures of a traced batch run: self times from the spans the
//! traced replica records around each call into a crate, plus the counts
//! taken at the same boundaries.
//!
//! Two layers run inside another layer's call and cannot be wrapped from
//! outside: instruction generation runs inside `Simulator::run`, and trace
//! compilation runs inside every Monte Carlo call. The replica measures each
//! with a standalone *probe* of the same work right before the call
//! (`workload.gen`, `trace.compile`) and charges the enclosing layer its
//! self time minus the probe.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::span::{self_times, Span};

/// Per-layer counts, added from any thread.
#[derive(Debug, Default)]
pub struct Counters(Mutex<BTreeMap<&'static str, f64>>);

impl Counters {
    pub fn add(&self, name: &'static str, v: f64) {
        *self.0.lock().expect("counter lock: a traced call panicked").entry(name).or_insert(0.0) +=
            v;
    }

    /// Keeps the largest value seen under `name`.
    pub fn max(&self, name: &'static str, v: f64) {
        let mut m = self.0.lock().expect("counter lock: a traced call panicked");
        let slot = m.entry(name).or_insert(v);
        *slot = slot.max(v);
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .lock()
            .expect("counter lock: a traced call panicked")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Fraction of the fan-out capacity the design points kept busy:
/// Σ point busy ÷ (threads × wall of each fan-out phase). Phases are the
/// spans named `phase`; points are their `point` children. The slowest
/// point sets a phase's wall time, so imbalance lowers this figure.
fn fanout_util(spans: &[Span], threads: usize) -> f64 {
    let (mut busy, mut capacity) = (0u64, 0u64);
    for phase in spans.iter().filter(|s| s.name == "phase") {
        let points: Vec<&Span> =
            spans.iter().filter(|s| s.name == "point" && s.parent == Some(phase.id)).collect();
        let (Some(first), Some(last)) =
            (points.iter().map(|s| s.start_ns).min(), points.iter().map(|s| s.end_ns).max())
        else {
            continue;
        };
        busy += points.iter().map(|s| s.duration_ns()).sum::<u64>();
        capacity += threads as u64 * (last - first);
    }
    if capacity == 0 {
        0.0
    } else {
        busy as f64 / capacity as f64
    }
}

/// The per-layer metric set of one traced batch run, by metric name.
#[must_use]
pub fn batch_metrics(spans: &[Span], counters: &Counters, threads: usize) -> Vec<(String, f64)> {
    let selfs = self_times(spans);
    let ms = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let c = |name: &str| counters.get(name);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let gen_ms = ms("workload.gen");
    let sim_ms = (ms("sim.run") - gen_ms).max(0.0);
    let compile_ms = ms("trace.compile");
    let sample_ms = (ms("mc.sample") - compile_ms).max(0.0);
    let m = [
        ("workload.gen_ms", gen_ms),
        ("workload.instructions", c("workload.instructions")),
        ("sim.run_ms", sim_ms),
        ("sim.cycles", c("sim.cycles")),
        ("sim.host_ns_per_cycle", per(sim_ms * 1e6, c("sim.cycles"))),
        ("sim.minst_per_s", per(c("workload.instructions") / 1e6, sim_ms / 1e3)),
        ("store.cache_write_ms", ms("store.cache_write")),
        ("store.cache_load_ms", ms("store.cache_load")),
        ("store.cache_bytes", c("store.cache_bytes")),
        ("store.cache_hits", c("store.cache_hits")),
        ("store.cache_misses", c("store.cache_misses")),
        ("trace.compile_ms", compile_ms),
        ("trace.compiles", c("trace.compiles")),
        ("trace.segments", c("trace.segments")),
        ("trace.prefix_bytes_computed", c("trace.prefix_bytes_computed")),
        ("mc.sample_ms", sample_ms),
        ("mc.trials", c("mc.trials")),
        ("mc.ns_per_trial", per(sample_ms * 1e6, c("mc.trials"))),
        ("mc.kernel_calls", c("mc.kernel_calls")),
        ("mc.points_per_kernel", per(c("mc.points"), c("mc.kernel_calls"))),
        ("analytic.renewal_ms", ms("analytic.renewal")),
        ("analytic.renewal_calls", c("analytic.renewal_calls")),
        ("core.avf_ms", ms("core.avf")),
        ("softarch.ms", ms("softarch")),
        ("softarch.calls", c("softarch.calls")),
        ("checkpoint.open_ms", ms("checkpoint.open")),
        ("checkpoint.record_ms", ms("checkpoint.record")),
        ("checkpoint.records", c("checkpoint.records")),
        ("checkpoint.resumed", c("checkpoint.resumed")),
        ("core.fanout_util", fanout_util(spans, threads)),
        ("bench.unattributed_ms", ms("job") + ms("phase") + ms("point")),
    ];
    m.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, point: 0, start_ns: start, end_ns: end }
    }

    #[test]
    fn probes_are_charged_out_of_their_enclosing_layer() {
        let spans = vec![
            span(0, None, "job", 0, 10_000_000),
            span(1, Some(0), "phase", 0, 10_000_000),
            span(2, Some(1), "point", 0, 10_000_000),
            // Probe: 1 ms of standalone generation, then the 5 ms run that
            // also generated the same stream.
            span(3, Some(2), "workload.gen", 0, 1_000_000),
            span(4, Some(2), "sim.run", 1_000_000, 6_000_000),
            span(5, Some(2), "trace.compile", 6_000_000, 6_500_000),
            span(6, Some(2), "mc.sample", 6_500_000, 9_500_000),
        ];
        let counters = Counters::default();
        counters.add("mc.trials", 1000.0);
        let m: BTreeMap<String, f64> = batch_metrics(&spans, &counters, 1).into_iter().collect();
        assert_eq!(m["workload.gen_ms"], 1.0);
        assert_eq!(m["sim.run_ms"], 4.0);
        assert_eq!(m["trace.compile_ms"], 0.5);
        assert_eq!(m["mc.sample_ms"], 2.5);
        assert_eq!(m["mc.ns_per_trial"], 2500.0);
        assert_eq!(m["bench.unattributed_ms"], 0.5);
        assert_eq!(m["core.fanout_util"], 1.0);
    }

    #[test]
    fn fanout_util_shows_imbalance() {
        // Two threads, two points: one runs 0..10, the other 0..5.
        let spans = vec![
            span(0, None, "phase", 0, 10),
            span(1, Some(0), "point", 0, 10),
            span(2, Some(0), "point", 0, 5),
        ];
        assert_eq!(fanout_util(&spans, 2), 0.75);
    }
}
