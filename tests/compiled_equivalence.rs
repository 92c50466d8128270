//! Every estimator that reads a `CompiledTrace` instead of its source must
//! return the source's bits: the validator compiles each trace once and
//! hands that one table to Monte Carlo, renewal and SoftArch, keeping only
//! AVF on the source. Checked on the traces the paper's SPEC points use —
//! every benchmark profile's unit traces, the `SystemModel` superposition
//! of a processor's units and `pipeline::processor_trace` — at 20k
//! simulated instructions and two seeds.

use std::sync::{Arc, OnceLock};

use serr_core::pipeline::{processor_trace, BenchmarkRun};
use serr_core::prelude::*;
use serr_trace::CompiledTrace;

const SEEDS: [u64; 2] = [7, 42];
const INSTRUCTIONS: u64 = 20_000;
/// Three N×S scales: the AVF step's valid regime, the knee, and far past it.
const N_TIMES_S: [f64; 3] = [1e6, 1e10, 5e12];

/// One simulated program's traces, labelled: the four unit traces, their
/// `SystemModel` combined trace (the validator's `system_parts` ground
/// truth) and the processor composite (Fig 6a).
fn traces_of(profile: BenchmarkProfile, seed: u64) -> Vec<(String, Arc<dyn VulnerabilityTrace>)> {
    let name = profile.name;
    let output = Simulator::new(SimConfig::power4())
        .run(TraceGenerator::new(profile, seed), INSTRUCTIONS)
        .expect("profile simulates");
    let rates = UnitRates::paper();
    let t = &output.traces;
    let units: [(&str, RawErrorRate, Arc<dyn VulnerabilityTrace>); 4] = [
        ("int", rates.int_unit, Arc::new(t.int_unit.clone())),
        ("fp", rates.fp_unit, Arc::new(t.fp_unit.clone())),
        ("decode", rates.decode, Arc::new(t.decode.clone())),
        ("regfile", rates.regfile, Arc::new(t.regfile.clone())),
    ];
    let mut builder = SystemModel::builder(Frequency::base());
    for (i, (_, rate, trace)) in units.iter().enumerate() {
        builder.add(format!("part{i}"), *rate, trace.clone()).expect("valid part");
    }
    let combined = builder.build().expect("valid system").combined_trace();
    let run = BenchmarkRun { name: name.to_owned(), output };
    let processor = processor_trace(&run, &rates).expect("processor trace");
    let mut out: Vec<(String, Arc<dyn VulnerabilityTrace>)> = units
        .into_iter()
        .map(|(unit, _, trace)| (format!("{name}/{seed}/{unit}"), trace))
        .collect();
    out.push((format!("{name}/{seed}/combined"), Arc::new(combined)));
    out.push((format!("{name}/{seed}/processor"), Arc::new(processor)));
    out
}

/// Every profile's traces at both seeds, simulated once for all tests.
fn all_traces() -> &'static [(String, Arc<dyn VulnerabilityTrace>)] {
    static ALL: OnceLock<Vec<(String, Arc<dyn VulnerabilityTrace>)>> = OnceLock::new();
    ALL.get_or_init(|| {
        BenchmarkProfile::all()
            .into_iter()
            .flat_map(|p| SEEDS.map(|seed| traces_of(p.clone(), seed)))
            .flatten()
            .collect()
    })
}

fn bits<E: std::fmt::Debug>(r: &Result<Mttf, E>) -> Result<u64, String> {
    r.as_ref().map(|m| m.as_secs().to_bits()).map_err(|e| format!("{e:?}"))
}

#[test]
fn renewal_and_softarch_read_the_source_bits_from_the_compiled_table() {
    let freq = Frequency::base();
    let soft = SoftArch::new(freq);
    let mut compared = 0usize;
    for (label, trace) in all_traces() {
        let compiled = CompiledTrace::compile(&**trace).expect("SPEC traces compile");
        assert!(
            compiled.folds_like(&**trace),
            "{label}: compilation merged a span, so the estimators fall back to the source"
        );
        for n_s in N_TIMES_S {
            let rate = RawErrorRate::baseline_per_bit().scale(n_s);
            let renewal = |t: &dyn VulnerabilityTrace| {
                bits(&serr_core::prelude::analytic::renewal::renewal_mttf(t, rate, freq))
            };
            assert_eq!(renewal(&compiled), renewal(&**trace), "{label} renewal at N×S={n_s:e}");
            assert_eq!(
                bits(&soft.component_mttf(&compiled, rate)),
                bits(&soft.component_mttf(&**trace, rate)),
                "{label} SoftArch at N×S={n_s:e}"
            );
            compared += 2;
        }
    }
    assert_eq!(compared, 21 * SEEDS.len() * 6 * N_TIMES_S.len() * 2);
}

#[test]
fn monte_carlo_on_the_compiled_table_equals_component_mttf_on_the_source() {
    let mc = MonteCarlo::new(MonteCarloConfig { trials: 2_048, threads: 1, ..Default::default() });
    let freq = Frequency::base();
    let rate = RawErrorRate::baseline_per_bit().scale(1e10);
    for (label, trace) in all_traces() {
        if trace.is_never_vulnerable() {
            continue;
        }
        let compiled = CompiledTrace::compile(&**trace).expect("SPEC traces compile");
        let on_compiled = mc.compiled_mttf(&compiled, rate, freq).expect("compiled run");
        let on_source = mc.component_mttf(&**trace, rate, freq).expect("source run");
        assert_eq!(on_compiled, on_source, "{label}");
    }
}

#[test]
fn composite_avf_stays_on_the_source_trace() {
    // A composite's AVF is the rate-weighted mean of its parts' AVFs; the
    // compiled table's is total mass over the period. They differ in the
    // last bits, and the validator reports the source's.
    let trace: Arc<dyn VulnerabilityTrace> =
        traces_of(BenchmarkProfile::by_name("gzip").expect("known profile"), SEEDS[0])
            .pop()
            .expect("processor trace")
            .1;
    let compiled = CompiledTrace::compile(&*trace).expect("compiles");
    assert_ne!(trace.avf().to_bits(), compiled.avf().to_bits());
    assert!((trace.avf() - compiled.avf()).abs() < 1e-12);

    let v = Validator::new(
        Frequency::base(),
        MonteCarloConfig { trials: 2_048, threads: 1, ..Default::default() },
    );
    let rate = RawErrorRate::baseline_per_bit().scale(1e10);
    let row = v.component(&*trace, rate).expect("component validation");
    assert_eq!(row.avf.to_bits(), trace.avf().to_bits());
    let step = serr_core::avf::avf_step_mttf(&*trace, rate).expect("AVF step");
    assert_eq!(row.mttf_avf.as_secs().to_bits(), step.as_secs().to_bits());
    let on_compiled = v.component_on(&*trace, Some(&compiled), rate).expect("on compiled");
    assert_eq!(on_compiled, row);
}
