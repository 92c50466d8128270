//! Pins the simulator's output bit for bit.
//!
//! The trace cache (`serr_core::pipeline`) keys entries by benchmark,
//! length, seed, machine configuration and a format version, not by the
//! simulator's code: a change that moves a single cycle of a masking trace
//! would be served stale from every existing cache entry. These digests were
//! recorded from the cycle-stepped engine and must hold for every later one.

use serr_sim::{SimConfig, SimOutput, Simulator};
use serr_trace::encode_interval_trace;
use serr_types::SerrError;
use serr_workload::{BenchmarkProfile, TraceGenerator};

const INSTRUCTIONS: u64 = 20_000;

/// `(benchmark, seed, FNV-1a digest of the stats and the four traces)`.
const GOLDEN: [(&str, u64, u64); 8] = [
    ("gzip", 7, 0x83f8_8453_34e6_2e3d),
    ("gzip", 42, 0x27bf_34d2_4aa1_aab6),
    ("swim", 7, 0xa38a_1332_6d8a_6043),
    ("swim", 42, 0x1bc9_08da_88e4_4f1e),
    ("equake", 7, 0x7631_7d6d_b801_d4b3),
    ("equake", 42, 0xdf7e_a995_1e96_3681),
    ("mcf", 7, 0x38e6_c1a3_3d6e_d929),
    ("mcf", 42, 0xfa47_518f_829b_2eb4),
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x1000_0000_01b3);
    }
}

fn digest(out: &SimOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    fnv1a(&mut h, format!("{:?}", out.stats).as_bytes());
    let t = &out.traces;
    for trace in [&t.int_unit, &t.fp_unit, &t.decode, &t.regfile] {
        fnv1a(&mut h, &encode_interval_trace(trace));
    }
    h
}

fn simulate(config: SimConfig, name: &str, seed: u64) -> Result<SimOutput, SerrError> {
    let profile = BenchmarkProfile::by_name(name).expect("known benchmark");
    Simulator::new(config).run(TraceGenerator::new(profile, seed), INSTRUCTIONS)
}

#[test]
fn stats_and_traces_match_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (name, seed, want) in GOLDEN {
        let out = simulate(SimConfig::power4(), name, seed).expect("simulation runs");
        let got = digest(&out);
        if got != want {
            mismatches.push(format!("{name} seed {seed}: {got:#018x} (pinned {want:#018x})"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulator output changed: {}. Cached traces would now be stale; an intended \
         output change must bump `pipeline::CACHE_VERSION` and re-pin these digests",
        mismatches.join("; ")
    );
}

#[test]
fn a_latency_beyond_the_watchdog_is_the_same_deadlock() {
    // `validate` does not bound latencies: a memory access that outlasts
    // the 200k-cycle progress watchdog must trip it at the same cycle
    // however the engine advances time through the stall.
    let config = SimConfig { mem_latency: 300_000, ..SimConfig::power4() };
    let err = simulate(config, "gzip", 7).expect_err("a 300k-cycle memory access deadlocks");
    match err {
        SerrError::NoConvergence { what, after } => {
            assert_eq!(after, 200_000);
            assert_eq!(
                what,
                "pipeline deadlock at cycle 200007: rob=4, buffer=0, fetched=6, retired=2"
            );
        }
        other => panic!("expected the watchdog's NoConvergence, got {other:?}"),
    }
}
