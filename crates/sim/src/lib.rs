//! A trace-driven, cycle-level, out-of-order superscalar timing simulator —
//! the workspace's substitute for IBM's Turandot (paper Section 4.1).
//!
//! The paper generates masking traces by running SPEC CPU2000 through
//! Turandot configured as the POWER4-like core of Table 1. Turandot is
//! closed source; this crate implements a comparable machine:
//!
//! * 8-wide fetch with an L1 I-cache, iTLB, and misprediction stalls;
//! * dispatch groups of 5 into a 150-entry reorder buffer with register
//!   renaming onto an 80-integer + 72-FP physical file;
//! * 2 integer, 2 floating-point, 2 load/store, and 1 branch unit with
//!   Table 1 latencies (integer 1/4/35 add/mul/div; FP 5, divide 28);
//! * a 32-entry memory queue in front of L1D (32 KB, 2-way) → L2 (1 MB,
//!   4-way) → memory at 1/10/77-cycle latencies, with a 128-entry dTLB;
//! * in-order retirement of one dispatch group per cycle.
//!
//! While it simulates, a [`masking::MaskingCollector`] records the paper's
//! four component masking traces: integer-unit, FP-unit, and decode-unit
//! busy cycles (conservative: busy ⇒ unmasked) and register-file liveness
//! (an entry is vulnerable from the cycle its value is produced until its
//! last read).
//!
//! The simulator is cycle-accurate but event-driven: a cycle in which
//! nothing writes back, retires, issues, dispatches or is fetched changes no
//! state but the stall counter, and the cycles after it can only differ once
//! an op completes, a blocking divider frees up or an I-cache stall ends.
//! [`Simulator::run`] therefore jumps straight to the earliest of those
//! deadlines (never past the deadlock watchdog), and writeback and issue
//! visit only the ops that are due or issuable. The output is bit-identical
//! to stepping every cycle; the engine module docs give the argument.
//!
//! # Example
//!
//! ```
//! use serr_sim::{SimConfig, Simulator};
//! use serr_trace::VulnerabilityTrace;
//! use serr_workload::{BenchmarkProfile, TraceGenerator};
//!
//! let profile = BenchmarkProfile::by_name("gzip").unwrap();
//! let gen = TraceGenerator::new(profile, 1);
//! let out = Simulator::new(SimConfig::power4()).run(gen, 20_000).unwrap();
//! assert!(out.stats.ipc() > 0.3 && out.stats.ipc() < 8.0);
//! assert!(out.traces.int_unit.avf() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod masking;
pub mod predictor;

mod config;
mod engine;
mod regfile;

pub use config::SimConfig;
pub use engine::{SimOutput, SimStats, Simulator};
pub use masking::ProcessorMaskingTraces;
