//! `spec-cold` and `spec-warm`: the Section 5.1 row path
//! (`experiments::sec5_1_sweep`) over four SPEC profiles that span the
//! simulator's IPC range — gzip (1.55), swim (0.79), equake (0.31) and
//! mcf (0.10).
//!
//! `spec-cold` starts every run from an empty trace cache in a fresh
//! process, so workload generation and the timing simulator do most of the
//! work. `spec-warm` finds every trace-cache entry on disk (written by its
//! set-up) and runs the paper's 1M Monte Carlo trials per component, so
//! trace load, compile, sampling, renewal and SoftArch do the work.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serr_core::avf::avf_step_mttf;
use serr_core::checkpoint::{self, Journal, JournalRow, SweepOptions};
use serr_core::experiments::{sec5_1_sweep, ExperimentConfig, Sec51Row};
use serr_core::jsonio::Json;
use serr_core::par;
use serr_core::pipeline::{load_cache_entry_mmap, simulate_benchmark, write_cache_entry};
use serr_core::rates::UnitRates;
use serr_core::sofr;
use serr_mc::system::SystemModel;
use serr_mc::MonteCarlo;
use serr_sim::{SimConfig, SimOutput, Simulator};
use serr_softarch::SoftArch;
use serr_trace::VulnerabilityTrace;
use serr_types::{relative_error, RawErrorRate, SerrError};
use serr_workload::{BenchmarkProfile, TraceGenerator};

use crate::layers::{batch_metrics, Counters};
use crate::replica::{gate_row, mc_call, GateLog};
use crate::span::Tracer;
use crate::util::{derive_seed, digest, dir_listing, jnum, obj, peak_rss_mb, reset_dir};

/// The four programs, from the dispatch-bound to the stall-bound end.
pub const PROGRAMS: [&str; 4] = ["gzip", "swim", "equake", "mcf"];

/// Which of the two SPEC workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
}

/// `ExperimentConfig::cli()` (300k simulated instructions) with the
/// simulation and Monte Carlo seeds drawn from the workload seed; the warm
/// workload runs the paper's 1M trials.
#[must_use]
fn config(kind: Kind, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::cli();
    cfg.seed = derive_seed(seed, 1);
    cfg.mc.seed = derive_seed(seed, 2);
    if kind == Kind::Warm {
        cfg.mc.trials = 1_000_000;
    }
    cfg
}

fn cache_dir(work: &Path) -> PathBuf {
    work.join("trace-cache")
}

fn journal_dir(work: &Path) -> PathBuf {
    work.join("journal")
}

/// Points the pipeline's disk cache at this run's directory. Called before
/// any thread starts.
fn use_cache_dir(work: &Path) {
    std::env::set_var("SERR_TRACE_CACHE", cache_dir(work));
}

/// Set-up, in a fresh process: empty the trace cache and journal, then
/// fill the trace cache. For the warm workload that leaves every program's
/// entry on disk for the runs; for the cold workload it is an untimed
/// warm-up run of the whole job (each cold run empties the cache again).
pub fn setup(kind: Kind, seed: u64, work: &Path) -> Json {
    use_cache_dir(work);
    reset_dir(&cache_dir(work));
    reset_dir(&journal_dir(work));
    let cfg = config(kind, seed);
    if kind == Kind::Warm {
        let sims = par::par_map(&PROGRAMS, par::fanout_threads(PROGRAMS.len()), |_, name| {
            simulate_benchmark(name, cfg.sim_instructions, cfg.seed).map(|_| ())
        });
        for r in sims {
            r.expect("set-up simulation of a SPEC profile");
        }
    } else {
        let opts = SweepOptions::fresh().in_dir(journal_dir(work));
        sec5_1_sweep(&PROGRAMS, &cfg, &opts).expect("warm-up run of the Section 5.1 sweep");
    }
    obj(vec![("cache_entries", jnum(dir_listing(&cache_dir(work)).len() as f64))])
}

/// The digest of a run's output rows and simulated statistics (cycles and
/// per-unit AVF of each program).
fn run_digest(rows: &[Sec51Row], sims: &[(&str, &SimOutput)]) -> String {
    let mut records: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    for (name, out) in sims {
        let t = &out.traces;
        let avf = [t.int_unit.avf(), t.fp_unit.avf(), t.decode.avf(), t.regfile.avf()];
        records.push(format!("{name} cycles={} avf={avf:?}", out.stats.cycles));
    }
    digest(&records)
}

/// One untraced run through the public entry point, in a fresh process.
pub fn job(kind: Kind, seed: u64, work: &Path) -> Json {
    use_cache_dir(work);
    let cache = cache_dir(work);
    reset_dir(&journal_dir(work));
    if kind == Kind::Cold {
        reset_dir(&cache);
    }
    let before = dir_listing(&cache);
    let cfg = config(kind, seed);
    let opts = SweepOptions::fresh().in_dir(journal_dir(work));

    let t0 = std::time::Instant::now();
    let report = sec5_1_sweep(&PROGRAMS, &cfg, &opts);
    let wall = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let report = report.expect("the sweep's journal is private to this run");
    let after = dir_listing(&cache);
    let hits = before.iter().filter(|e| after.contains(e)).count();
    let misses = after.iter().filter(|e| !before.iter().any(|b| b.0 == e.0)).count();
    // The run's simulations are memoized in this process; reading them back
    // after the clock stopped costs nothing and touches no disk.
    let runs: Vec<_> = PROGRAMS
        .iter()
        .filter_map(|&n| simulate_benchmark(n, cfg.sim_instructions, cfg.seed).ok().map(|r| (n, r)))
        .collect();
    let sims: Vec<(&str, &SimOutput)> = runs.iter().map(|(n, r)| (*n, &r.output)).collect();
    obj(vec![
        ("wall_s", jnum(wall)),
        ("rss_mb", jnum(rss)),
        ("points", jnum(PROGRAMS.len() as f64)),
        ("failed", jnum(report.failures.len() as f64)),
        ("resumed", jnum(report.resumed as f64)),
        ("records", jnum(report.computed as f64)),
        ("cache_hits", jnum(hits as f64)),
        ("cache_misses", jnum(misses as f64)),
        ("digest", Json::Str(run_digest(&report.rows, &sims))),
        ("gate_rows", gate_rows(&report.rows)),
    ])
}

/// The figures of a run's rows that carry Monte Carlo noise, for the gate:
/// each component's and the processor's error against the Monte Carlo
/// MTTF, keyed like the replica's bands.
fn gate_rows(rows: &[Sec51Row]) -> Json {
    let mut out = Vec::new();
    for r in rows {
        let b = &r.benchmark;
        for (unit, _, err) in &r.components {
            out.push(gate_row(b, format!("{b}/{unit}"), *err));
        }
        out.push(gate_row(b, format!("{b}/sofr"), r.sofr_error));
    }
    Json::Arr(out)
}

/// The cache entry the pipeline wrote for `name`: its file name ends in
/// `-<name>-<instructions>-<seed>.store`.
fn cache_entry(dir: &Path, name: &str, cfg: &ExperimentConfig) -> Option<PathBuf> {
    let suffix = format!("-{name}-{}-{}.store", cfg.sim_instructions, cfg.seed);
    let mut found = dir_listing(dir).into_iter().filter(|e| e.0.ends_with(&suffix));
    match (found.next(), found.next()) {
        (Some(e), None) => Some(dir.join(e.0)),
        _ => None,
    }
}

/// Everything one traced point shares.
struct Ctx<'a> {
    kind: Kind,
    cfg: ExperimentConfig,
    inner: ExperimentConfig,
    work: &'a Path,
    tracer: &'a Tracer,
    counters: &'a Counters,
    gate: &'a GateLog,
}

/// The traced replica: the same rows as `sec5_1_sweep`, composed from each
/// crate's public functions with a span around every call, so the time of
/// each layer can be read from outside the program. Its digest must equal
/// the untraced run's, and every Monte Carlo estimate it produces passes
/// through the correctness gate.
pub fn replica(kind: Kind, seed: u64, work: &Path) -> Json {
    use_cache_dir(work);
    reset_dir(&journal_dir(work));
    if kind == Kind::Cold {
        reset_dir(&cache_dir(work));
    }
    let cfg = config(kind, seed);
    // The entry point's own fan-out: one program per thread, each with a
    // single-threaded Monte Carlo engine.
    let threads = par::fanout_threads(PROGRAMS.len());
    let mut inner = cfg;
    if threads > 1 {
        inner.mc.threads = 1;
    }
    let (tracer, counters, gate) = (Tracer::default(), Counters::default(), GateLog::default());
    let ctx = Ctx { kind, cfg, inner, work, tracer: &tracer, counters: &counters, gate: &gate };

    let t0 = std::time::Instant::now();
    let results = tracer.span("job", None, 0, |job| {
        let fp = checkpoint::fingerprint(&["perfbench-sec5_1", &format!("{cfg:?}")]);
        let journal = tracer.span("checkpoint.open", Some(job), 0, |_| {
            Journal::open(&journal_dir(work), "sec5_1", fp, true)
        });
        let journal = journal.expect("the replica's journal is private to this run");
        counters.add("checkpoint.resumed", journal.completed().len() as f64);
        tracer.span("phase", Some(job), 0, |phase| {
            par::try_par_map(&PROGRAMS, threads, |i, name| {
                tracer.span("point", Some(phase), i as u64, |pt| {
                    let (row, out) = replica_row(&ctx, name, pt, i as u64)?;
                    tracer.span("checkpoint.record", Some(pt), i as u64, |_| {
                        journal.record(i, &row.to_journal())
                    })?;
                    counters.add("checkpoint.records", 1.0);
                    Ok((row, out))
                })
            })
        })
    });
    let wall = t0.elapsed().as_secs_f64();

    let failed = results.iter().filter(|r| r.is_err()).count();
    let ok: Vec<(Sec51Row, SimOutput)> = results.into_iter().filter_map(Result::ok).collect();
    let rows: Vec<Sec51Row> = ok.iter().map(|(r, _)| r.clone()).collect();
    let sims: Vec<(&str, &SimOutput)> = ok.iter().map(|(r, o)| (r.benchmark.as_str(), o)).collect();
    let metrics = batch_metrics(&tracer.finish(), &counters, threads);
    gate.to_json(vec![
        ("wall_s", jnum(wall)),
        ("points", jnum(PROGRAMS.len() as f64)),
        ("failed", jnum(failed as f64)),
        ("digest", Json::Str(run_digest(&rows, &sims))),
        ("metrics", obj(metrics.iter().map(|(k, v)| (k.as_str(), jnum(*v))).collect())),
    ])
}

/// One program's Section 5.1 row, mirroring the entry point's own row
/// function call for call.
fn replica_row(
    ctx: &Ctx<'_>,
    name: &str,
    pt: usize,
    p: u64,
) -> Result<(Sec51Row, SimOutput), SerrError> {
    let (tr, counters, cfg) = (ctx.tracer, ctx.counters, &ctx.cfg);
    let cache = cache_dir(ctx.work);
    let out = match ctx.kind {
        Kind::Warm => {
            let path = cache_entry(&cache, name, cfg)
                .ok_or_else(|| SerrError::invalid_config("warm trace-cache entry missing"))?;
            let out = tr
                .span("store.cache_load", Some(pt), p, |_| load_cache_entry_mmap(&path))
                .ok_or_else(|| SerrError::invalid_config("warm trace-cache entry unreadable"))?;
            counters.add("store.cache_hits", 1.0);
            counters
                .add("store.cache_bytes", std::fs::metadata(&path).map_or(0, |m| m.len()) as f64);
            out
        }
        Kind::Cold => {
            let profile = BenchmarkProfile::by_name(name)?;
            let budget = usize::try_from(cfg.sim_instructions).expect("instruction budget fits");
            // Probe: the same instruction stream, generated on its own.
            tr.span("workload.gen", Some(pt), p, |_| {
                for inst in TraceGenerator::new(profile.clone(), cfg.seed).take(budget) {
                    std::hint::black_box(inst);
                }
            });
            let out = tr.span("sim.run", Some(pt), p, |_| {
                Simulator::new(SimConfig::power4())
                    .run(TraceGenerator::new(profile, cfg.seed), cfg.sim_instructions)
            })?;
            let path = cache.join(format!("replica-{name}.store"));
            tr.span("store.cache_write", Some(pt), p, |_| write_cache_entry(&path, &out))?;
            counters.add("store.cache_misses", 1.0);
            counters
                .add("store.cache_bytes", std::fs::metadata(&path).map_or(0, |m| m.len()) as f64);
            counters.add("workload.instructions", cfg.sim_instructions as f64);
            counters.add("sim.cycles", out.stats.cycles as f64);
            out
        }
    };

    let rates = UnitRates::paper();
    let freq = cfg.frequency;
    let mc = MonteCarlo::new(ctx.inner.mc);
    let t = &out.traces;
    let units: [(&str, RawErrorRate, Arc<dyn VulnerabilityTrace>); 4] = [
        ("int", rates.int_unit, Arc::new(t.int_unit.clone())),
        ("fp", rates.fp_unit, Arc::new(t.fp_unit.clone())),
        ("decode", rates.decode, Arc::new(t.decode.clone())),
        ("regfile", rates.regfile, Arc::new(t.regfile.clone())),
    ];
    let mut components = Vec::new();
    let (mut max_err, mut max_err_exact) = (0.0f64, 0.0f64);
    for (unit, rate, trace) in &units {
        if trace.is_never_vulnerable() {
            components.push(((*unit).to_owned(), 0.0, 0.0));
            ctx.gate.exact(format!("{name}/{unit}"), 0.0);
            continue;
        }
        let trace: &dyn VulnerabilityTrace = &**trace;
        let est = mc_call(tr, counters, pt, p, trace, cfg.mc.trials, 1, || {
            mc.component_mttf(trace, *rate, freq)
        })?;
        let mttf_avf = tr.span("core.avf", Some(pt), p, |_| avf_step_mttf(trace, *rate))?;
        let renewal = renewal(ctx, pt, p, trace, *rate)?;
        softarch(ctx, pt, p, trace, *rate)?;
        ctx.gate.error_vs(format!("{name}/{unit}"), &est, renewal.as_secs(), mttf_avf.as_secs());
        let err = relative_error(mttf_avf.as_secs(), est.mttf.as_secs());
        components.push(((*unit).to_owned(), trace.avf(), err));
        max_err = max_err.max(err);
        max_err_exact = max_err_exact.max(relative_error(mttf_avf.as_secs(), renewal.as_secs()));
    }

    // SOFR over the per-part renewal MTTFs, fanned out like the validator.
    let parts: Vec<(RawErrorRate, Arc<dyn VulnerabilityTrace>)> =
        units.iter().map(|(_, r, t)| (*r, t.clone())).collect();
    let per_part = par::par_map(&parts, par::fanout_threads(parts.len()), |_, (rate, trace)| {
        if trace.is_never_vulnerable() {
            return Ok(None);
        }
        Ok(Some(renewal(ctx, pt, p, &**trace, *rate)?.to_failure_rate()))
    });
    let part_rates: Vec<_> = per_part
        .into_iter()
        .collect::<Result<Vec<_>, SerrError>>()?
        .into_iter()
        .flatten()
        .collect();
    let mttf_sofr = sofr::sofr_failure_rate(part_rates)?.to_mttf();

    let mut builder = SystemModel::builder(freq);
    for (i, (rate, trace)) in parts.iter().enumerate() {
        builder.add(format!("part{i}"), *rate, trace.clone())?;
    }
    let system = builder.build()?;
    let combined = system.combined_trace();
    let total = system.total_rate();
    let est =
        mc_call(tr, counters, pt, p, &combined, cfg.mc.trials, 1, || mc.system_mttf(&system))?;
    let exact = renewal(ctx, pt, p, &combined, total)?;
    softarch(ctx, pt, p, &combined, total)?;
    ctx.gate.error_vs(format!("{name}/sofr"), &est, exact.as_secs(), mttf_sofr.as_secs());

    let row = Sec51Row {
        benchmark: name.to_owned(),
        components,
        max_component_error: max_err,
        max_component_error_exact: max_err_exact,
        sofr_error: relative_error(mttf_sofr.as_secs(), est.mttf.as_secs()),
        sofr_error_exact: relative_error(mttf_sofr.as_secs(), exact.as_secs()),
        ipc: out.stats.ipc(),
    };
    Ok((row, out))
}

fn renewal(
    ctx: &Ctx<'_>,
    pt: usize,
    p: u64,
    trace: &dyn VulnerabilityTrace,
    rate: RawErrorRate,
) -> Result<serr_types::Mttf, SerrError> {
    ctx.counters.add("analytic.renewal_calls", 1.0);
    ctx.tracer.span("analytic.renewal", Some(pt), p, |_| {
        serr_analytic::renewal::renewal_mttf(trace, rate, ctx.cfg.frequency)
    })
}

fn softarch(
    ctx: &Ctx<'_>,
    pt: usize,
    p: u64,
    trace: &dyn VulnerabilityTrace,
    rate: RawErrorRate,
) -> Result<serr_types::Mttf, SerrError> {
    ctx.counters.add("softarch.calls", 1.0);
    ctx.tracer.span("softarch", Some(pt), p, |_| {
        SoftArch::new(ctx.cfg.frequency).component_mttf(trace, rate)
    })
}
