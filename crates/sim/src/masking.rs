//! Masking-trace collection during simulation.
//!
//! The paper studies four processor components (Section 4.1):
//!
//! * **integer unit**, **FP unit**, **decode unit** — a raw error in a cycle
//!   is masked iff the unit is not processing an instruction that cycle;
//!   with multiple functional-unit instances we record the busy *fraction*
//!   (a raw error strikes each instance with equal probability);
//! * **register file** — errors strike the 256 entries uniformly; an entry
//!   is vulnerable while it holds a value that will still be read.

use serr_trace::{IntervalTrace, IntervalTraceBuilder};
use serr_types::SerrError;

/// The per-component masking traces produced by one simulation, each with
/// period equal to the simulated cycle count (the workload loops, paper
/// Section 3 assumption 2).
#[derive(Debug, Clone)]
pub struct ProcessorMaskingTraces {
    /// Integer-unit busy fraction per cycle.
    pub int_unit: IntervalTrace,
    /// FP-unit busy fraction per cycle.
    pub fp_unit: IntervalTrace,
    /// Decode (dispatch) slot occupancy per cycle.
    pub decode: IntervalTrace,
    /// Register-file live fraction per cycle (live entries / 256).
    pub regfile: IntervalTrace,
}

/// Records unit occupancy as it happens — one entry per busy interval or
/// dispatch group, never one per cycle — and compresses it into run-length
/// traces at the end without materializing per-cycle levels. Only the
/// register file's liveness goes through a per-cycle `i32` difference
/// array in `finish`.
#[derive(Debug)]
pub struct MaskingCollector {
    /// Busy intervals `[start, end)` per functional-unit instance.
    int_fu_busy: Vec<Vec<(u64, u64)>>,
    fp_fu_busy: Vec<Vec<(u64, u64)>>,
    /// `(cycle, instructions)` per dispatch group.
    decode: Vec<(u64, u16)>,
    /// Register liveness intervals `[start, end)`.
    rf_live: Vec<(u64, u64)>,
    dispatch_width: usize,
    regfile_entries: usize,
}

impl MaskingCollector {
    /// Creates a collector for a machine with the given unit counts.
    #[must_use]
    pub fn new(
        int_units: usize,
        fp_units: usize,
        dispatch_width: usize,
        regfile_entries: usize,
    ) -> Self {
        MaskingCollector {
            int_fu_busy: vec![Vec::new(); int_units],
            fp_fu_busy: vec![Vec::new(); fp_units],
            decode: Vec::new(),
            rf_live: Vec::new(),
            dispatch_width,
            regfile_entries,
        }
    }

    /// An interval covers at least its first cycle.
    fn interval(start: u64, end: u64) -> (u64, u64) {
        (start, end.max(start + 1))
    }

    /// Marks integer FU `fu` busy over `[start, end)` cycles.
    pub fn mark_int(&mut self, fu: usize, start: u64, end: u64) {
        self.int_fu_busy[fu].push(Self::interval(start, end));
    }

    /// Marks FP FU `fu` busy over `[start, end)` cycles.
    pub fn mark_fp(&mut self, fu: usize, start: u64, end: u64) {
        self.fp_fu_busy[fu].push(Self::interval(start, end));
    }

    /// Records `n` instructions dispatched (decoded) in `cycle`.
    pub fn mark_decode(&mut self, cycle: u64, n: usize) {
        self.decode.push((cycle, n as u16));
    }

    /// Records a register-file entry vulnerable over `[start, end]` cycles
    /// (inclusive, matching the liveness intervals of `RenameState`).
    pub fn mark_regfile(&mut self, start: u64, end: u64) {
        self.rf_live.push(Self::interval(start, end + 1));
    }

    /// Materializes the four traces over `total_cycles` simulated cycles;
    /// marks beyond the last cycle are clipped.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `total_cycles` is zero.
    pub fn finish(self, total_cycles: u64) -> Result<ProcessorMaskingTraces, SerrError> {
        if total_cycles == 0 {
            return Err(SerrError::invalid_trace("simulation produced no cycles"));
        }
        // A unit-kind's vulnerability: fraction of its FU instances with any
        // occupancy in the cycle. Overlapping (pipelined) intervals of one
        // instance merge first, so each instance counts once.
        let fu_fraction = |fus: Vec<Vec<(u64, u64)>>| {
            let k = fus.len() as f64;
            let mut events = Vec::new();
            for mut busy in fus {
                busy.sort_unstable();
                let mut merged: Option<(u64, u64)> = None;
                for (start, end) in busy {
                    merged = match merged {
                        Some((s, e)) if start <= e => Some((s, e.max(end))),
                        Some((s, e)) => {
                            events.extend([(s, 1), (e, -1)]);
                            Some((start, end))
                        }
                        None => Some((start, end)),
                    };
                }
                if let Some((s, e)) = merged {
                    events.extend([(s, 1), (e, -1)]);
                }
            }
            stream_runs(total_cycles, events, |busy| busy as f64 / k)
        };
        let width = self.dispatch_width as f64;
        let decode_events =
            self.decode.iter().flat_map(|&(c, n)| [(c, i64::from(n)), (c + 1, -i64::from(n))]);
        let entries = self.regfile_entries as f64;
        // Liveness intervals arrive in retire order, not start order: a
        // difference array over the cycles orders them in one pass.
        let mut rf_diff =
            vec![0i32; usize::try_from(total_cycles).expect("cycle count fits usize")];
        for (start, end) in self.rf_live {
            for (cycle, delta) in [(start, 1), (end, -1)] {
                if let Some(d) = rf_diff.get_mut(cycle as usize) {
                    *d += delta;
                }
            }
        }
        let rf_events =
            (0u64..).zip(rf_diff).filter(|&(_, d)| d != 0).map(|(c, d)| (c, i64::from(d)));

        Ok(ProcessorMaskingTraces {
            int_unit: fu_fraction(self.int_fu_busy)?,
            fp_unit: fu_fraction(self.fp_fu_busy)?,
            decode: stream_runs(total_cycles, decode_events.collect(), |d| {
                (d as f64 / width).min(1.0)
            })?,
            regfile: stream_runs(total_cycles, rf_events.collect(), |live| {
                (live.max(0) as f64 / entries).min(1.0)
            })?,
        })
    }
}

/// Run-length compresses cycles `0..n` from `(cycle, delta)` events: a
/// cycle's key is the sum of the deltas at or before it, and
/// `level` maps the key to the cycle's vulnerability. One run is pushed per
/// change of key, and the builder merges equal neighbouring levels exactly
/// as [`IntervalTrace::from_levels`] does, so the result is the trace of the
/// per-cycle levels without ever materializing them.
fn stream_runs(
    n: u64,
    mut events: Vec<(u64, i64)>,
    level: impl Fn(i64) -> f64,
) -> Result<IntervalTrace, SerrError> {
    // A stable sort finds the presorted runs callers hand in (one per FU
    // instance, the dispatch groups, the difference array) and merges them
    // in linear time.
    events.sort_by_key(|&(cycle, _)| cycle);
    let mut builder = IntervalTraceBuilder::new();
    let (mut start, mut key) = (0u64, 0i64);
    for (cycle, delta) in events {
        if cycle >= n {
            break;
        }
        if cycle > start {
            builder.push_cycles(cycle - start, level(key))?;
            start = cycle;
        }
        key += delta;
    }
    builder.push_cycles(n - start, level(key))?;
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serr_trace::VulnerabilityTrace;

    #[test]
    fn unit_fraction_counts_busy_instances() {
        let mut mc = MaskingCollector::new(2, 2, 5, 256);
        mc.mark_int(0, 0, 4); // FU0 busy cycles 0..4
        mc.mark_int(1, 2, 3); // FU1 busy cycle 2
        let traces = mc.finish(6).unwrap();
        assert_eq!(traces.int_unit.vulnerability_at(0), 0.5);
        assert_eq!(traces.int_unit.vulnerability_at(2), 1.0);
        assert_eq!(traces.int_unit.vulnerability_at(3), 0.5);
        assert_eq!(traces.int_unit.vulnerability_at(4), 0.0);
        assert_eq!(traces.fp_unit.avf(), 0.0);
    }

    #[test]
    fn overlapping_pipelined_ops_still_one_busy_unit() {
        let mut mc = MaskingCollector::new(2, 2, 5, 256);
        // Three overlapping multiplies in the same FU: occupancy 3, busy 1.
        mc.mark_int(0, 0, 4);
        mc.mark_int(0, 1, 5);
        mc.mark_int(0, 2, 6);
        let traces = mc.finish(8).unwrap();
        assert_eq!(traces.int_unit.vulnerability_at(3), 0.5);
        assert_eq!(traces.int_unit.vulnerability_at(5), 0.5);
        assert_eq!(traces.int_unit.vulnerability_at(6), 0.0);
    }

    #[test]
    fn decode_fraction_of_dispatch_width() {
        let mut mc = MaskingCollector::new(2, 2, 5, 256);
        mc.mark_decode(0, 5);
        mc.mark_decode(1, 2);
        let traces = mc.finish(3).unwrap();
        assert_eq!(traces.decode.vulnerability_at(0), 1.0);
        assert_eq!(traces.decode.vulnerability_at(1), 0.4);
        assert_eq!(traces.decode.vulnerability_at(2), 0.0);
    }

    #[test]
    fn regfile_liveness_accumulates() {
        let mut mc = MaskingCollector::new(2, 2, 5, 256);
        mc.mark_regfile(0, 3);
        mc.mark_regfile(2, 5);
        let traces = mc.finish(8).unwrap();
        assert_eq!(traces.regfile.vulnerability_at(0), 1.0 / 256.0);
        assert_eq!(traces.regfile.vulnerability_at(2), 2.0 / 256.0);
        assert_eq!(traces.regfile.vulnerability_at(4), 1.0 / 256.0);
        assert_eq!(traces.regfile.vulnerability_at(6), 0.0);
    }

    #[test]
    fn zero_cycles_is_an_error() {
        let mc = MaskingCollector::new(2, 2, 5, 256);
        assert!(mc.finish(0).is_err());
    }

    #[test]
    fn marks_beyond_horizon_are_clipped_to_period() {
        let mut mc = MaskingCollector::new(1, 1, 5, 256);
        mc.mark_int(0, 2, 10);
        // Simulation ended at cycle 5: the trace only spans 5 cycles.
        let traces = mc.finish(5).unwrap();
        assert_eq!(traces.int_unit.period_cycles(), 5);
        assert_eq!(traces.int_unit.vulnerability_at(4), 1.0);
    }

    #[test]
    fn mark_order_does_not_matter() {
        // (unit, instance, start or cycle, end or count)
        let marks = [
            ("int", 0, 1, 4),
            ("int", 0, 3, 9),
            ("int", 1, 2, 3),
            ("fp", 1, 0, 0),
            ("decode", 0, 2, 3),
            ("decode", 0, 2, 1),
            ("decode", 0, 4, 5),
            ("rf", 0, 1, 6),
            ("rf", 0, 0, 2),
        ];
        let collect = |reversed: bool| {
            let mut mc = MaskingCollector::new(2, 2, 5, 256);
            let mut order: Vec<_> = marks.iter().collect();
            if reversed {
                order.reverse();
            }
            for &(unit, fu, a, b) in order {
                match unit {
                    "int" => mc.mark_int(fu, a, b),
                    "fp" => mc.mark_fp(fu, a, b),
                    "decode" => mc.mark_decode(a, b as usize),
                    _ => mc.mark_regfile(a, b),
                }
            }
            mc.finish(8).unwrap()
        };
        let (fwd, rev) = (collect(false), collect(true));
        assert_eq!(fwd.int_unit, rev.int_unit);
        assert_eq!(fwd.fp_unit, rev.fp_unit);
        assert_eq!(fwd.decode, rev.decode);
        assert_eq!(fwd.regfile, rev.regfile);
        // FU0's two overlapping ops count once; FU1 adds cycle 2.
        let int: Vec<f64> = (0..8).map(|c| fwd.int_unit.vulnerability_at(c)).collect();
        assert_eq!(int, [0.0, 0.5, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5]);
        // A zero-length op still occupies its issue cycle.
        assert_eq!(fwd.fp_unit.vulnerability_at(0), 0.5);
        // Two groups in one cycle add up.
        assert_eq!(fwd.decode.vulnerability_at(2), 0.8);
        assert_eq!(fwd.regfile.vulnerability_at(1), 2.0 / 256.0);
        assert_eq!(fwd.regfile.vulnerability_at(3), 1.0 / 256.0);
    }
}
