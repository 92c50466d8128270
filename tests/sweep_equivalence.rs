//! The shared-stream sweep kernel's bit-identity contract, pinned across
//! crate boundaries.
//!
//! `MonteCarlo::component_mttf_multi` amortizes the RNG word stream, the
//! exponent-splice uniforms, and the vectorized log passes over every
//! design point of a sweep — common random numbers across the λ axis. The
//! contract that licenses the sharing is that it must be *invisible* in
//! the numbers:
//!
//! 1. every point is bit-identical to an independent
//!    `MonteCarlo::component_mttf` run with the same seed and sampler;
//! 2. the whole sweep is bit-identical at any thread count;
//! 3. both hold on `--protect`-transformed traces (scrub staircases,
//!    fractional ECC levels) exactly as on raw workload traces;
//! 4. the full validator row built from a kernel estimate equals the row
//!    an independent `Validator::component` call produces.

use std::sync::Arc;

use serr_core::prelude::{Validator, VulnerabilityTrace};
use serr_mc::{MonteCarlo, MonteCarloConfig, MttfEstimate, SamplerKind, StartPhase};
use serr_trace::{CompiledTrace, IntervalTrace, Transform, TransformPipeline};
use serr_types::{Frequency, RawErrorRate};

fn engine(threads: usize, start_phase: StartPhase) -> MonteCarlo {
    MonteCarlo::new(MonteCarloConfig {
        trials: 8_000,
        seed: 0x5EE9_0001,
        threads,
        sampler: SamplerKind::BatchedInversion,
        start_phase,
        ..Default::default()
    })
}

fn raw_trace() -> IntervalTrace {
    let pattern = [1.0, 1.0, 0.25, 0.0, 0.5, 0.75, 0.0, 0.0];
    let levels: Vec<f64> = pattern.iter().cycle().take(160).copied().collect();
    IntervalTrace::from_levels(&levels).expect("valid trace")
}

fn protected_trace() -> IntervalTrace {
    // The same shapes `--protect scrub:50+ecc:8` feeds the samplers.
    let pipeline = TransformPipeline::new(vec![
        Transform::Scrub { interval_cycles: 50 },
        Transform::EccSecDed { word_bits: 8 },
    ]);
    pipeline.apply_interval(&raw_trace()).expect("pipeline applies")
}

fn sweep_rates() -> Vec<RawErrorRate> {
    [1e-2, 0.5, 2.0, 25.0, 400.0, 9_000.0].iter().map(|&y| RawErrorRate::per_year(y)).collect()
}

fn assert_estimates_bit_equal(a: &MttfEstimate, b: &MttfEstimate, what: &str) {
    assert_eq!(a.mttf.as_secs().to_bits(), b.mttf.as_secs().to_bits(), "{what}: mean drifted");
    assert_eq!(a.relative_ci95().to_bits(), b.relative_ci95().to_bits(), "{what}: CI drifted");
    assert_eq!(a.ttf_seconds.count, b.ttf_seconds.count, "{what}: trial count drifted");
    assert_eq!(a.truncated, b.truncated, "{what}: truncation flag drifted");
    assert_eq!(a.sampler, b.sampler, "{what}: sampler tag drifted");
}

#[test]
fn kernel_points_match_independent_runs_on_raw_and_protected_traces() {
    let freq = Frequency::base();
    let rates = sweep_rates();
    for (tname, trace) in [("raw", raw_trace()), ("protected", protected_trace())] {
        for start in [StartPhase::WorkloadStart, StartPhase::Stationary] {
            let solo_engine = engine(1, start);
            let solo: Vec<MttfEstimate> = rates
                .iter()
                .map(|&r| solo_engine.component_mttf(&trace, r, freq).expect("solo run"))
                .collect();
            let multi = solo_engine
                .component_mttf_multi(&trace, &rates, freq)
                .expect("kernel run")
                .into_iter()
                .map(|p| p.expect("point"))
                .collect::<Vec<_>>();
            assert_eq!(multi.len(), solo.len());
            for (i, (m, s)) in multi.iter().zip(&solo).enumerate() {
                assert_estimates_bit_equal(m, s, &format!("{tname} {start:?} point {i}"));
            }
        }
    }
}

#[test]
fn kernel_sweeps_are_bit_identical_across_thread_counts() {
    let freq = Frequency::base();
    let rates = sweep_rates();
    for (tname, trace) in [("raw", raw_trace()), ("protected", protected_trace())] {
        let baseline: Vec<MttfEstimate> = engine(1, StartPhase::WorkloadStart)
            .component_mttf_multi(&trace, &rates, freq)
            .expect("kernel run")
            .into_iter()
            .map(|p| p.expect("point"))
            .collect();
        for threads in [2usize, 8] {
            let run: Vec<MttfEstimate> = engine(threads, StartPhase::WorkloadStart)
                .component_mttf_multi(&trace, &rates, freq)
                .expect("kernel run")
                .into_iter()
                .map(|p| p.expect("point"))
                .collect();
            for (i, (a, b)) in baseline.iter().zip(&run).enumerate() {
                assert_estimates_bit_equal(
                    a,
                    b,
                    &format!("{tname} point {i} at {threads} threads"),
                );
            }
        }
    }
}

#[test]
fn validator_rows_from_kernel_estimates_match_independent_validation() {
    // The grouped sweep path builds its rows with
    // `Validator::component_with_mc` from kernel estimates on the group's
    // one compiled trace; the row must
    // be indistinguishable from the one `Validator::component` computes
    // with its own independent engine run.
    let freq = Frequency::base();
    let rates = sweep_rates();
    let trace: Arc<dyn VulnerabilityTrace> = Arc::new(protected_trace());
    let mc = MonteCarloConfig {
        trials: 8_000,
        seed: 0x5EE9_0001,
        sampler: SamplerKind::BatchedInversion,
        ..Default::default()
    };
    let v = Validator::new(freq, mc);
    let compiled = CompiledTrace::compile(&*trace).expect("protected trace compiles");
    let kernel = v.monte_carlo().compiled_mttf_multi(&compiled, &rates, freq).expect("kernel run");
    for (i, est) in kernel.into_iter().enumerate() {
        let grouped = v
            .component_with_mc(&*trace, Some(&compiled), rates[i], est.expect("point"))
            .expect("grouped row");
        let solo = v.component(&*trace, rates[i]).expect("solo row");
        assert_eq!(
            grouped.mttf_mc.mttf.as_secs().to_bits(),
            solo.mttf_mc.mttf.as_secs().to_bits(),
            "point {i}: MC mean"
        );
        assert_eq!(
            grouped.mttf_avf.as_secs().to_bits(),
            solo.mttf_avf.as_secs().to_bits(),
            "point {i}: AVF step"
        );
        assert_eq!(
            grouped.avf_error_vs_mc.to_bits(),
            solo.avf_error_vs_mc.to_bits(),
            "point {i}: AVF error"
        );
        assert_eq!(
            grouped.softarch_error_vs_mc.to_bits(),
            solo.softarch_error_vs_mc.to_bits(),
            "point {i}: SoftArch error"
        );
    }
}
