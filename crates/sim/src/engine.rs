//! The out-of-order pipeline, cycle-accurate but event-driven.
//!
//! Each simulated cycle runs writeback, retire, issue, dispatch and fetch in
//! that order. Only active cycles are executed:
//!
//! * **Writeback** pops the issued ops whose `done_at` has come from a
//!   min-heap instead of scanning the ROB.
//! * **Issue** walks only the entries whose sources are all produced,
//!   oldest first (FU, load/store and branch slots are first-come). A
//!   producer's writeback wakes its consumers; an entry with a pending
//!   source is never looked at.
//! * **Idle stretches are skipped.** In a cycle that makes no progress
//!   (nothing writes back, retires, issues, dispatches or is fetched), no
//!   state changes except the stall counter: the cache, TLB, predictor,
//!   rename and ROB state are untouched (the MSHR probe is side-effect
//!   free). What happens next then depends on `now` only through three
//!   deadlines — the earliest pending `done_at`, an integer divider's
//!   `busy_until`, and the I-cache stall — so every cycle before the
//!   earliest of them repeats the idle one exactly. The loop jumps there
//!   and adds the skipped cycles to `dispatch_stall_cycles` when work
//!   remained. The jump never passes the progress watchdog's cycle, so a
//!   true deadlock reports the same cycle as a cycle-by-cycle walk.
//!
//! The statistics and the four masking traces are bit-identical to
//! stepping every cycle; `crates/sim/tests/golden_output.rs` pins them.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serr_types::SerrError;
use serr_workload::{Instruction, OpClass, RegId};

use crate::cache::{Cache, Tlb};
use crate::masking::{MaskingCollector, ProcessorMaskingTraces};
use crate::predictor;
use crate::regfile::{PhysReg, RenameState};
use crate::SimConfig;

/// Aggregate statistics from one simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// L1 I-cache miss rate.
    pub l1i_miss_rate: f64,
    /// L1 D-cache miss rate.
    pub l1d_miss_rate: f64,
    /// Unified L2 miss rate.
    pub l2_miss_rate: f64,
    /// dTLB miss rate.
    pub dtlb_miss_rate: f64,
    /// Branches the front end mispredicted.
    pub branch_mispredicts: u64,
    /// Cycles in which dispatch made no progress while work remained.
    pub dispatch_stall_cycles: u64,
    /// Dirty L1D lines written back to the L2.
    pub l1d_writebacks: u64,
}

impl SimStats {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// The result of a simulation: statistics plus the four masking traces the
/// paper's methodology consumes.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Performance and memory-hierarchy statistics.
    pub stats: SimStats,
    /// Component masking traces with period = simulated cycles.
    pub traces: ProcessorMaskingTraces,
}

#[derive(Debug)]
struct Entry {
    op: OpClass,
    srcs: [Option<PhysReg>; 2],
    dst: Option<PhysReg>,
    prev_dst: Option<PhysReg>,
    mem_addr: Option<u64>,
    /// Sources not yet produced; the entry can issue once this is zero.
    pending: u8,
    /// Written back; retires once it reaches the ROB head.
    done: bool,
    /// Holds an MSHR until writeback (the access missed the L1D).
    holds_mshr: bool,
}

/// The trace-driven out-of-order timing simulator (see crate docs).
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use [`SimConfig::validate`]
    /// for fallible checking.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        config.validate().expect("invalid simulator configuration");
        Simulator { config }
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `instructions` instructions from `workload` to completion and
    /// returns statistics plus masking traces.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for a zero instruction budget,
    /// [`SerrError::InvalidTrace`] if the workload iterator ends early, and
    /// [`SerrError::NoConvergence`] if the pipeline makes no progress for
    /// 200k cycles (a deadlock guard; a configured latency that long trips
    /// it too).
    pub fn run(
        &self,
        workload: impl IntoIterator<Item = Instruction>,
        instructions: u64,
    ) -> Result<SimOutput, SerrError> {
        if instructions == 0 {
            return Err(SerrError::invalid_config("instruction budget must be positive"));
        }
        let cfg = &self.config;
        let mut source = workload.into_iter();

        let mut l1i = Cache::new(cfg.l1i.0, cfg.l1i.1, cfg.line_bytes);
        let mut l1d = Cache::new(cfg.l1d.0, cfg.l1d.1, cfg.line_bytes);
        let mut l2 = Cache::new(cfg.l2.0, cfg.l2.1, cfg.line_bytes);
        let mut itlb = Tlb::new(cfg.tlb_entries, cfg.page_bytes);
        let mut dtlb = Tlb::new(cfg.tlb_entries, cfg.page_bytes);
        let mut rename = RenameState::new(cfg.int_phys_regs, cfg.fp_phys_regs);
        let mut collector = MaskingCollector::new(
            cfg.int_units,
            cfg.fp_units,
            cfg.dispatch_width,
            cfg.regfile_entries,
        );

        // Per physical register (integer bank first, then FP): whether its
        // value is produced, and the unissued entries waiting for it.
        let reg = |p: PhysReg| p.idx as usize + if p.fp { cfg.int_phys_regs } else { 0 };
        let mut ready = vec![false; cfg.int_phys_regs + cfg.fp_phys_regs];
        for i in 0..RegId::BANK_SIZE as usize {
            ready[i] = true;
            ready[cfg.int_phys_regs + i] = true;
        }
        let mut consumers: Vec<Vec<u64>> = vec![Vec::new(); ready.len()];

        // Per-FU bookkeeping: blocking ops hold `busy_until`; every FU
        // accepts at most one new op per cycle.
        let mut int_busy_until = vec![0u64; cfg.int_units];
        let fp_busy_until = vec![0u64; cfg.fp_units]; // FP ops are all pipelined
        let mut ls_taken; // per-cycle issue slots
        let mut br_taken;
        let mut int_taken = vec![false; cfg.int_units];
        let mut fp_taken = vec![false; cfg.fp_units];

        let mut outstanding_misses = 0usize;
        // The ROB holds consecutive instruction indices (the trace-driven
        // front end never squashes), so index `i` sits at `i - retired`.
        let mut rob: VecDeque<Entry> = VecDeque::with_capacity(cfg.rob_size);
        // Issued ops by `(done_at, index)`: writeback pops the due ones.
        let mut completions: BinaryHeap<Reverse<(u64, u64)>> =
            BinaryHeap::with_capacity(cfg.rob_size);
        // Unissued entries whose sources are all produced, oldest first.
        let mut issuable: Vec<u64> = Vec::with_capacity(cfg.rob_size);
        let mut fetch_buffer: VecDeque<(Instruction, u64)> =
            VecDeque::with_capacity(2 * cfg.fetch_width);
        let mut mem_in_flight = 0usize;

        let mut now: u64 = 0;
        let mut fetched: u64 = 0;
        let mut retired: u64 = 0;
        let mut mispredicts: u64 = 0;
        let mut dispatch_stalls: u64 = 0;

        // Front-end control state.
        let mut direction_predictor = predictor::build(cfg.branch_predictor);
        let mut pc: u64 = 0;
        let mut icache_stall_until: u64 = 0;
        let mut redirect_on: Option<u64> = None; // instruction index of an
                                                 // unresolved mispredicted branch
        let mut prng: u64 = 0x1234_5678_9abc_def0; // deterministic branch targets

        let mut last_progress = 0u64;
        let watchdog = 200_000u64;

        loop {
            let mut progressed = false;

            // ---- Writeback: complete executing ops. -----------------------
            // Completions within one cycle commute: each in-flight producer
            // owns a distinct physical register (its register is freed only
            // after a younger writer of the same architectural register
            // retires), so heap order may differ from ROB order.
            while let Some(&Reverse((done_at, index))) = completions.peek() {
                if done_at > now {
                    break;
                }
                completions.pop();
                let e = &mut rob[(index - retired) as usize];
                e.done = true;
                if e.holds_mshr {
                    e.holds_mshr = false;
                    outstanding_misses -= 1;
                }
                let dst = e.dst;
                if redirect_on == Some(index) {
                    redirect_on = None; // fetch resumes next cycle
                }
                progressed = true;
                let Some(d) = dst else { continue };
                ready[reg(d)] = true;
                rename.record_write(d, now);
                // Wake the consumers; the ones left with no pending source
                // join the issuable list in age order.
                for c in consumers[reg(d)].drain(..) {
                    let e = &mut rob[(c - retired) as usize];
                    e.pending -= 1;
                    if e.pending == 0 {
                        let at = issuable.partition_point(|&i| i < c);
                        issuable.insert(at, c);
                    }
                }
            }

            // ---- Retire: in-order, one dispatch group per cycle. ----------
            let mut retired_now = 0usize;
            while retired_now < cfg.retire_width {
                match rob.front() {
                    Some(e) if e.done => {
                        let e = rob.pop_front().expect("front exists");
                        if let Some(prev) = e.prev_dst {
                            rename.release(prev);
                        }
                        if e.op.is_memory() {
                            mem_in_flight -= 1;
                        }
                        retired += 1;
                        retired_now += 1;
                        progressed = true;
                    }
                    _ => break,
                }
            }

            // ---- Issue: out-of-order from the ROB. ------------------------
            // Oldest first: FU, load/store and branch slots are first-come.
            int_taken.iter_mut().for_each(|t| *t = false);
            fp_taken.iter_mut().for_each(|t| *t = false);
            ls_taken = 0usize;
            br_taken = 0usize;
            issuable.retain(|&index| {
                let e = &mut rob[(index - retired) as usize];
                let done_at = match e.op {
                    OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv => {
                        let latency = match e.op {
                            OpClass::IntAlu => cfg.int_alu_latency,
                            OpClass::IntMul => cfg.int_mul_latency,
                            _ => cfg.int_div_latency,
                        };
                        let slot =
                            (0..cfg.int_units).find(|&f| !int_taken[f] && int_busy_until[f] <= now);
                        if let Some(f) = slot {
                            int_taken[f] = true;
                            if e.op == OpClass::IntDiv {
                                // Divides block their unit (not pipelined).
                                int_busy_until[f] = now + latency;
                            }
                            collector.mark_int(f, now, now + latency);
                            Some(now + latency)
                        } else {
                            None
                        }
                    }
                    OpClass::FpOp | OpClass::FpDiv => {
                        let latency = if e.op == OpClass::FpDiv {
                            cfg.fp_div_latency
                        } else {
                            cfg.fp_latency
                        };
                        let slot =
                            (0..cfg.fp_units).find(|&f| !fp_taken[f] && fp_busy_until[f] <= now);
                        if let Some(f) = slot {
                            fp_taken[f] = true;
                            collector.mark_fp(f, now, now + latency);
                            Some(now + latency)
                        } else {
                            None
                        }
                    }
                    OpClass::Load | OpClass::Store => {
                        let addr = e.mem_addr.expect("memory op has an address");
                        // MSHR gate: a miss may only start if a miss
                        // register is free (probe is side-effect free).
                        if ls_taken < cfg.ls_units
                            && (outstanding_misses < cfg.mshrs || l1d.probe(addr))
                        {
                            ls_taken += 1;
                            let tlb_pen = if dtlb.access(addr) { 0 } else { cfg.tlb_miss_penalty };
                            let is_write = e.op == OpClass::Store;
                            let l1 = l1d.access_rw(addr, is_write);
                            let access = if l1.hit {
                                cfg.l1_latency
                            } else {
                                // Dirty victim updates the L2; demand fill
                                // follows.
                                if l1.writeback {
                                    let _ = l2.access_rw(addr ^ 0x4_0000, true);
                                }
                                if cfg.l1d_next_line_prefetch {
                                    let next = addr + cfg.line_bytes as u64;
                                    if !l1d.probe(next) && l2.probe(next) {
                                        let _ = l1d.install(next);
                                    }
                                }
                                if l2.access_rw(addr, false).hit {
                                    cfg.l2_latency
                                } else {
                                    cfg.mem_latency
                                }
                            };
                            if !l1.hit {
                                e.holds_mshr = true;
                                outstanding_misses += 1;
                            }
                            Some(now + 1 + access + tlb_pen)
                        } else {
                            None
                        }
                    }
                    OpClass::Branch => {
                        if br_taken < cfg.branch_units {
                            br_taken += 1;
                            Some(now + cfg.branch_latency)
                        } else {
                            None
                        }
                    }
                };
                let Some(done_at) = done_at else { return true };
                for &src in e.srcs.iter().flatten() {
                    rename.record_read(src, now);
                }
                completions.push(Reverse((done_at, index)));
                progressed = true;
                false
            });

            // ---- Dispatch: in-order into the ROB. -------------------------
            let mut dispatched = 0usize;
            while dispatched < cfg.dispatch_width {
                let Some((inst, index)) = fetch_buffer.front().copied() else { break };
                if rob.len() >= cfg.rob_size {
                    break;
                }
                if inst.op.is_memory() && mem_in_flight >= cfg.mem_queue_size {
                    break;
                }
                if let Some(d) = inst.dst {
                    if !rename.can_rename(d) {
                        break;
                    }
                }
                fetch_buffer.pop_front();
                let srcs = inst.srcs.map(|s| s.map(|a| rename.lookup(a)));
                let (dst, prev_dst) = match inst.dst {
                    Some(d) => {
                        let (new, prev) = rename.rename(d);
                        ready[reg(new)] = false;
                        (Some(new), Some(prev))
                    }
                    None => (None, None),
                };
                if inst.op.is_memory() {
                    mem_in_flight += 1;
                }
                let mut pending = 0u8;
                for &src in srcs.iter().flatten() {
                    if !ready[reg(src)] {
                        consumers[reg(src)].push(index);
                        pending += 1;
                    }
                }
                if pending == 0 {
                    issuable.push(index);
                }
                rob.push_back(Entry {
                    op: inst.op,
                    srcs,
                    dst,
                    prev_dst,
                    mem_addr: inst.mem_addr,
                    pending,
                    done: false,
                    holds_mshr: false,
                });
                dispatched += 1;
                progressed = true;
            }
            if dispatched > 0 {
                collector.mark_decode(now, dispatched);
            } else if !fetch_buffer.is_empty() || !rob.is_empty() {
                dispatch_stalls += 1;
            }

            // ---- Fetch: fill the buffer along the traced path. ------------
            if fetched < instructions
                && redirect_on.is_none()
                && icache_stall_until <= now
                && fetch_buffer.len() < 2 * cfg.fetch_width
            {
                let line_mask = !(cfg.line_bytes as u64 - 1);
                for _ in 0..cfg.fetch_width {
                    if fetch_buffer.len() >= 2 * cfg.fetch_width || fetched >= instructions {
                        break;
                    }
                    let Some(inst) = source.next() else {
                        return Err(SerrError::invalid_trace(format!(
                            "workload ended after {fetched} of {instructions} instructions"
                        )));
                    };
                    // Instruction-side memory behaviour: one I-cache/iTLB
                    // probe per new line.
                    // Sequential code wraps within the hot-code footprint,
                    // modeling loop-dominated SPEC control flow.
                    let prev_line = pc & line_mask;
                    pc = (pc + 4) % self.config.code_footprint_bytes;
                    let mut mispredicted = false;
                    if let Some(info) = inst.branch {
                        if info.taken {
                            // Taken branch: jump to the site's target within
                            // the code footprint.
                            prng = u64::from(info.site)
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(prng >> 32);
                            pc = ((prng >> 8) % self.config.code_footprint_bytes) & !3;
                        }
                        mispredicted = match direction_predictor.as_mut() {
                            None => info.mispredict_hint,
                            Some(p) => {
                                let predicted = p.predict(info.site);
                                p.update(info.site, info.taken);
                                predicted != info.taken
                            }
                        };
                        if mispredicted {
                            mispredicts += 1;
                        }
                    }
                    if pc & line_mask != prev_line {
                        let tlb_pen = if itlb.access(pc) { 0 } else { cfg.tlb_miss_penalty };
                        let hit = l1i.access(pc);
                        if !hit || tlb_pen > 0 {
                            let access = if hit {
                                0
                            } else if l2.access(pc) {
                                cfg.l2_latency
                            } else {
                                cfg.mem_latency
                            };
                            icache_stall_until = now + access + tlb_pen;
                        }
                    }
                    fetch_buffer.push_back((inst, fetched));
                    let stop_after = mispredicted;
                    if stop_after {
                        redirect_on = Some(fetched);
                    }
                    fetched += 1;
                    progressed = true;
                    if stop_after || icache_stall_until > now {
                        break;
                    }
                }
            }

            if progressed {
                last_progress = now;
                now += 1;
            } else {
                if now - last_progress > watchdog {
                    return Err(SerrError::NoConvergence {
                        what: format!(
                            "pipeline deadlock at cycle {now}: rob={}, buffer={}, fetched={fetched}, retired={retired}",
                            rob.len(),
                            fetch_buffer.len()
                        ),
                        after: watchdog as usize,
                    });
                }
                // Nothing changed this cycle, so every cycle up to the next
                // timed event repeats it exactly: jump there, counting the
                // skipped cycles as stalls when this one was. The watchdog
                // cycle bounds the jump so a deadlock trips it unchanged.
                let mut next = last_progress + watchdog + 1;
                if let Some(&Reverse((done_at, _))) = completions.peek() {
                    next = next.min(done_at);
                }
                for &busy in &int_busy_until {
                    if busy > now {
                        next = next.min(busy);
                    }
                }
                if icache_stall_until > now {
                    next = next.min(icache_stall_until);
                }
                if !fetch_buffer.is_empty() || !rob.is_empty() {
                    dispatch_stalls += next - now - 1;
                }
                now = next;
            }
            if fetched >= instructions && rob.is_empty() && fetch_buffer.is_empty() {
                break;
            }
        }

        // Close register liveness and build traces.
        let total_cycles = now;
        for (start, end) in rename.finish() {
            collector.mark_regfile(start.min(total_cycles - 1), end.min(total_cycles - 1));
        }
        let traces = collector.finish(total_cycles)?;

        Ok(SimOutput {
            stats: SimStats {
                cycles: total_cycles,
                instructions: retired,
                l1i_miss_rate: l1i.miss_rate(),
                l1d_miss_rate: l1d.miss_rate(),
                l2_miss_rate: l2.miss_rate(),
                dtlb_miss_rate: dtlb.miss_rate(),
                branch_mispredicts: mispredicts,
                dispatch_stall_cycles: dispatch_stalls,
                l1d_writebacks: l1d.writebacks(),
            },
            traces,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serr_trace::VulnerabilityTrace;
    use serr_workload::{BenchmarkProfile, TraceGenerator};

    fn run_bench(name: &str, n: u64) -> SimOutput {
        let profile = BenchmarkProfile::by_name(name).unwrap();
        Simulator::new(SimConfig::power4()).run(TraceGenerator::new(profile, 42), n).unwrap()
    }

    #[test]
    fn straight_line_alu_code_is_fast() {
        // Independent single-cycle ALU ops: IPC should approach the
        // dispatch width of 5.
        let insts: Vec<Instruction> = (0..100_000)
            .map(|i| Instruction::alu(OpClass::IntAlu, RegId::Int((i % 32) as u8), [None, None]))
            .collect();
        let out = Simulator::new(SimConfig::power4()).run(insts, 100_000).unwrap();
        assert_eq!(out.stats.instructions, 100_000);
        // Two single-cycle integer units bound steady-state IPC at 2.
        assert!(out.stats.ipc() > 1.2, "ipc {}", out.stats.ipc());
        assert!(out.stats.ipc() <= 2.05, "ipc {}", out.stats.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        // Each op reads the previous result: IPC near 1 at best.
        let insts: Vec<Instruction> = (0..2000)
            .map(|_| Instruction::alu(OpClass::IntAlu, RegId::Int(0), [Some(RegId::Int(0)), None]))
            .collect();
        let out = Simulator::new(SimConfig::power4()).run(insts, 2000).unwrap();
        assert!(out.stats.ipc() <= 1.1, "ipc {}", out.stats.ipc());
    }

    #[test]
    fn divides_throttle_throughput() {
        let divs: Vec<Instruction> = (0..500)
            .map(|i| Instruction::alu(OpClass::IntDiv, RegId::Int((i % 32) as u8), [None, None]))
            .collect();
        let out = Simulator::new(SimConfig::power4()).run(divs, 500).unwrap();
        // 2 blocking 35-cycle dividers: at most ~2/35 IPC.
        assert!(out.stats.ipc() < 0.1, "ipc {}", out.stats.ipc());
        // And the integer units are busy nearly all the time.
        assert!(out.traces.int_unit.avf() > 0.8, "int avf {}", out.traces.int_unit.avf());
    }

    #[test]
    fn benchmarks_run_with_plausible_ipc_and_traces() {
        for name in ["gzip", "mcf", "swim"] {
            let out = run_bench(name, 30_000);
            let ipc = out.stats.ipc();
            assert!(ipc > 0.03 && ipc < 5.0, "{name} ipc {ipc}");
            let t = &out.traces;
            for (unit, avf) in [
                ("int", t.int_unit.avf()),
                ("decode", t.decode.avf()),
                ("regfile", t.regfile.avf()),
            ] {
                assert!(avf > 0.0 && avf <= 1.0, "{name} {unit} avf {avf}");
            }
            assert_eq!(t.int_unit.period_cycles(), out.stats.cycles);
            assert_eq!(t.regfile.period_cycles(), out.stats.cycles);
        }
    }

    #[test]
    fn fp_benchmark_exercises_fp_units_int_benchmark_does_not() {
        let fp = run_bench("swim", 30_000);
        let int = run_bench("bzip2", 30_000);
        assert!(fp.traces.fp_unit.avf() > 0.1, "swim fp avf {}", fp.traces.fp_unit.avf());
        assert_eq!(int.traces.fp_unit.avf(), 0.0, "bzip2 must not use FP units");
        assert!(int.traces.int_unit.avf() > fp.traces.int_unit.avf());
    }

    #[test]
    fn memory_bound_benchmark_misses_more() {
        let mcf = run_bench("mcf", 30_000);
        let gzip = run_bench("gzip", 30_000);
        assert!(
            mcf.stats.l1d_miss_rate > gzip.stats.l1d_miss_rate,
            "mcf {} vs gzip {}",
            mcf.stats.l1d_miss_rate,
            gzip.stats.l1d_miss_rate
        );
        assert!(mcf.stats.ipc() < gzip.stats.ipc());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run_bench("gcc", 10_000);
        let b = run_bench("gcc", 10_000);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.traces.int_unit, b.traces.int_unit);
        assert_eq!(a.traces.regfile, b.traces.regfile);
    }

    #[test]
    fn rejects_bad_budgets_and_short_workloads() {
        let sim = Simulator::new(SimConfig::power4());
        assert!(sim.run(Vec::<Instruction>::new(), 0).is_err());
        let two = vec![Instruction::alu(OpClass::IntAlu, RegId::Int(0), [None, None]); 2];
        assert!(sim.run(two, 5).is_err());
    }

    #[test]
    fn program_phases_create_coarse_masking_structure() {
        // Two identical profiles, one with a fast-alternating memory phase:
        // the phased one must show visibly larger window-to-window
        // *alternation* in decode utilization (mean successive difference,
        // which is insensitive to the cold-cache warmup ramp).
        fn windowed_decode_util(phases: Option<serr_workload::PhaseBehavior>) -> f64 {
            let mut profile = BenchmarkProfile::by_name("vpr").unwrap();
            profile.phases = phases;
            let out = Simulator::new(SimConfig::power4())
                .run(TraceGenerator::new(profile, 123), 60_000)
                .unwrap();
            let t = &out.traces.decode;
            let cycles = out.stats.cycles;
            let windows = 12u64;
            let w = cycles / windows;
            let utils: Vec<f64> = (0..windows)
                .map(|i| {
                    (t.cumulative_within_period((i + 1) * w) - t.cumulative_within_period(i * w))
                        / w as f64
                })
                .collect();
            let mean = utils.iter().sum::<f64>() / utils.len() as f64;
            let alternation = utils.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>()
                / (utils.len() - 1) as f64;
            alternation / mean
        }
        let flat = windowed_decode_util(None);
        let phased = windowed_decode_util(Some(serr_workload::PhaseBehavior {
            period_instructions: 20_000,
            memory_fraction: 0.5,
        }));
        assert!(
            phased > 2.0 * flat,
            "phased alternation {phased} should dwarf flat alternation {flat}"
        );
    }

    #[test]
    fn mshrs_bound_memory_level_parallelism() {
        // mcf-like: mostly independent loads missing everywhere. One MSHR
        // serializes the misses; eight overlap them.
        let profile = BenchmarkProfile::by_name("mcf").unwrap();
        let run = |mshrs: usize| {
            let cfg = SimConfig { mshrs, ..SimConfig::power4() };
            Simulator::new(cfg)
                .run(TraceGenerator::new(profile.clone(), 42), 20_000)
                .unwrap()
                .stats
                .ipc()
        };
        let serial = run(1);
        let parallel = run(8);
        assert!(parallel > serial * 1.3, "mshr=8 ipc {parallel} should beat mshr=1 ipc {serial}");
    }

    #[test]
    fn next_line_prefetch_helps_sequential_code() {
        // gzip-like: 85% sequential accesses. Prefetching the next line
        // from the L2 must cut the L1D miss rate.
        let profile = BenchmarkProfile::by_name("gzip").unwrap();
        let run = |pf: bool| {
            let cfg = SimConfig { l1d_next_line_prefetch: pf, ..SimConfig::power4() };
            Simulator::new(cfg).run(TraceGenerator::new(profile.clone(), 42), 40_000).unwrap().stats
        };
        let off = run(false);
        let on = run(true);
        // Miss-triggered next-line prefetch converts at most every other
        // sequential miss (the prefetched line's own hit does not trigger
        // a further prefetch), so expect a solid but sub-2x reduction.
        assert!(on.l1d_miss_rate < off.l1d_miss_rate * 0.95, "prefetch {on:?} vs baseline {off:?}");
        assert!(on.cycles <= off.cycles, "prefetch should not slow execution");
    }

    #[test]
    fn stores_generate_writeback_traffic() {
        let profile = BenchmarkProfile::by_name("mcf").unwrap();
        let out = Simulator::new(SimConfig::power4())
            .run(TraceGenerator::new(profile, 42), 30_000)
            .unwrap();
        // Random-access stores over a 64 MiB working set must dirty and
        // evict lines.
        assert!(out.stats.l1d_writebacks > 100, "writebacks {}", out.stats.l1d_writebacks);
    }

    #[test]
    fn modeled_predictor_changes_flush_behavior() {
        use crate::predictor::BranchPredictorKind;
        let profile = BenchmarkProfile::by_name("gcc").unwrap();
        let run = |kind: BranchPredictorKind| {
            let cfg = SimConfig { branch_predictor: kind, ..SimConfig::power4() };
            Simulator::new(cfg).run(TraceGenerator::new(profile.clone(), 42), 40_000).unwrap().stats
        };
        let annotated = run(BranchPredictorKind::TraceAnnotation);
        let bimodal = run(BranchPredictorKind::Bimodal { entries: 4096 });
        // Annotation mode mispredicts at the profile rate (8% of ~19%
        // branches); the bimodal predictor on strongly biased sites does
        // a comparable or better job, and both runs complete with sane IPC.
        let branches = 40_000.0 * 0.19;
        let annotated_rate = annotated.branch_mispredicts as f64 / branches;
        let bimodal_rate = bimodal.branch_mispredicts as f64 / branches;
        assert!((annotated_rate - 0.08).abs() < 0.02, "annotated {annotated_rate}");
        assert!(bimodal_rate < 0.25, "bimodal {bimodal_rate}");
        assert!(bimodal.ipc() > 0.05);
    }

    #[test]
    fn regfile_vulnerability_is_fraction_of_256() {
        let out = run_bench("gzip", 20_000);
        // At most 152 of 256 modeled entries can ever be live.
        let max_v = (0..out.stats.cycles.min(5_000))
            .map(|c| out.traces.regfile.vulnerability_at(c))
            .fold(0.0f64, f64::max);
        assert!(max_v <= 152.0 / 256.0 + 1e-9, "max {max_v}");
        assert!(max_v > 0.02, "max {max_v}");
    }
}
