//! `sweep-synth`: a Figure 5 / 6(b) design-space fan (`fig5_sweep` then
//! `fig6b_sweep`) over the synthesized `day` and `week` traces, at 1M
//! trials, each run with a fresh checkpoint journal.
//!
//! It uses the Monte Carlo layer the opposite way to `spec-warm`: many
//! rates per trace on a few-segment trace whose tables fit in L1, so the
//! shared-stream kernel's per-rate half dominates, beside one fsync'd
//! journal record per point.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serr_core::avf::avf_step_mttf;
use serr_core::checkpoint::{self, Journal, JournalRow, SweepOptions};
use serr_core::design::Workload;
use serr_core::experiments::{
    fig5_sweep, fig6b_sweep, synthesized_trace, ExperimentConfig, Fig5Row, Fig6Row,
};
use serr_core::jsonio::Json;
use serr_core::par;
use serr_core::sofr;
use serr_mc::{MonteCarlo, MttfEstimate};
use serr_softarch::SoftArch;
use serr_trace::VulnerabilityTrace;
use serr_types::{relative_error, Mttf, RawErrorRate, SerrError};

use crate::layers::{batch_metrics, Counters};
use crate::replica::{gate_row, mc_call, GateLog};
use crate::span::Tracer;
use crate::util::{derive_seed, digest, jnum, obj, peak_rss_mb, reset_dir, uniform};

const WORKLOADS: [Workload; 2] = [Workload::Day, Workload::Week];
/// Figure 5 N×S values per workload, log-spaced over the artifact's range.
const FIG5_POINTS: usize = 48;
/// Figure 6(b) cluster sizes: the artifact's own.
const FIG6_C: [u64; 5] = [2, 8, 5_000, 50_000, 500_000];
/// Figure 6(b) N×S values per (workload, C).
const FIG6_POINTS: usize = 16;

/// The experiment configuration: 1M trials, seeds from the workload seed.
#[must_use]
fn config(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::cli();
    cfg.seed = derive_seed(seed, 1);
    cfg.mc.seed = derive_seed(seed, 2);
    cfg.mc.trials = 1_000_000;
    cfg
}

/// `n` log-spaced values over `[lo, hi]`, each jittered within its own
/// step by the seed, so every seed sweeps a different but equally dense
/// grid.
fn grid(seed: u64, salt: u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut state = derive_seed(seed, salt);
    let (a, b) = (lo.log10(), hi.log10());
    (0..n).map(|i| 10f64.powf(a + (b - a) * (i as f64 + uniform(&mut state)) / n as f64)).collect()
}

/// The Figure 5 and Figure 6(b) N×S axes for `seed`.
#[must_use]
fn grids(seed: u64) -> (Vec<f64>, Vec<f64>) {
    (grid(seed, 3, FIG5_POINTS, 1e7, 5e12), grid(seed, 4, FIG6_POINTS, 1e7, 1e9))
}

/// Design points per run.
#[must_use]
fn point_count() -> usize {
    WORKLOADS.len() * (FIG5_POINTS + FIG6_C.len() * FIG6_POINTS)
}

fn journal_dir(work: &Path) -> PathBuf {
    work.join("journal")
}

/// Set-up, in a fresh process: an empty journal directory and one untimed
/// warm-up run of both sweeps (each run starts a fresh journal again).
pub fn setup(seed: u64, work: &Path) -> Json {
    reset_dir(&journal_dir(work));
    let cfg = config(seed);
    let (ns5, ns6) = grids(seed);
    let opts = SweepOptions::fresh().in_dir(journal_dir(work));
    let r5 = fig5_sweep(&WORKLOADS, &ns5, &cfg, &opts).expect("warm-up run of fig5_sweep");
    let r6 =
        fig6b_sweep(&WORKLOADS, &FIG6_C, &ns6, &cfg, &opts).expect("warm-up run of fig6b_sweep");
    obj(vec![("points", jnum((r5.rows.len() + r6.rows.len()) as f64))])
}

fn run_digest(fig5: &[Fig5Row], fig6: &[Fig6Row]) -> String {
    let records: Vec<String> = fig5
        .iter()
        .map(|r| format!("{r:?}"))
        .chain(fig6.iter().map(|r| format!("{r:?}")))
        .collect();
    digest(&records)
}

/// One untraced run through the public entry points, in a fresh process
/// with a fresh journal.
pub fn job(seed: u64, work: &Path) -> Json {
    reset_dir(&journal_dir(work));
    let cfg = config(seed);
    let (ns5, ns6) = grids(seed);
    let opts = SweepOptions::fresh().in_dir(journal_dir(work));

    let t0 = std::time::Instant::now();
    let r5 = fig5_sweep(&WORKLOADS, &ns5, &cfg, &opts);
    let r6 = fig6b_sweep(&WORKLOADS, &FIG6_C, &ns6, &cfg, &opts);
    let wall = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let r5 = r5.expect("the sweep's journal is private to this run");
    let r6 = r6.expect("the sweep's journal is private to this run");
    obj(vec![
        ("wall_s", jnum(wall)),
        ("rss_mb", jnum(rss)),
        ("points", jnum(point_count() as f64)),
        ("failed", jnum((r5.failures.len() + r6.failures.len()) as f64)),
        ("resumed", jnum((r5.resumed + r6.resumed) as f64)),
        ("records", jnum((r5.computed + r6.computed) as f64)),
        ("cache_hits", jnum(0.0)),
        ("cache_misses", jnum(0.0)),
        ("digest", Json::Str(run_digest(&r5.rows, &r6.rows))),
        ("gate_rows", gate_rows(&r5.rows, &r6.rows)),
    ])
}

/// The band key of a design point: figure, trace, C and N×S.
fn point_key(figure: &str, label: &str, c: u64, prod: f64) -> String {
    format!("{figure}/{label}@{c}@{prod:?}")
}

/// Each row's Monte Carlo MTTF, for the gate; every row is its own point.
fn gate_rows(fig5: &[Fig5Row], fig6: &[Fig6Row]) -> Json {
    let rows = fig5
        .iter()
        .map(|r| (point_key("fig5", &r.workload, 1, r.n_times_s), r.mttf_mc_years))
        .chain(
            fig6.iter()
                .map(|r| (point_key("fig6b", &r.workload, r.c, r.n_times_s), r.mttf_mc_years)),
        );
    Json::Arr(rows.map(|(key, v)| gate_row(&key, key.clone(), v)).collect())
}

/// One design point of either figure: `(label, trace, C, N×S)`; Figure 5
/// points have `C = 1` and are evaluated as single components.
type Point = (&'static str, Arc<dyn VulnerabilityTrace>, u64, f64);

struct Ctx<'a> {
    cfg: ExperimentConfig,
    tracer: &'a Tracer,
    counters: &'a Counters,
    gate: &'a GateLog,
}

/// The traced replica of both sweeps, composed from each crate's public
/// functions; see [`crate::spec::replica`].
pub fn replica(seed: u64, work: &Path) -> Json {
    reset_dir(&journal_dir(work));
    let cfg = config(seed);
    let (ns5, ns6) = grids(seed);
    let (tracer, counters, gate) = (Tracer::default(), Counters::default(), GateLog::default());
    let ctx = Ctx { cfg, tracer: &tracer, counters: &counters, gate: &gate };
    let threads = par::fanout_threads(point_count());

    let t0 = std::time::Instant::now();
    let (fig5, fig6, failed) = tracer.span("job", None, 0, |job| {
        let traces: Vec<Arc<dyn VulnerabilityTrace>> = WORKLOADS
            .iter()
            .map(|&w| synthesized_trace(w, &cfg).expect("synthesized traces build"))
            .collect();
        let mut p5: Vec<Point> = Vec::new();
        let mut p6: Vec<Point> = Vec::new();
        for (w, t) in WORKLOADS.iter().zip(&traces) {
            p5.extend(ns5.iter().map(|&prod| (w.label(), t.clone(), 1, prod)));
            for &c in &FIG6_C {
                p6.extend(ns6.iter().map(|&prod| (w.label(), t.clone(), c, prod)));
            }
        }
        let fig5 =
            sweep(&ctx, job, work, "fig5", &p5, threads, |i, p, est| fig5_row(&ctx, i, p, est));
        let fig6 =
            sweep(&ctx, job, work, "fig6b", &p6, threads, |i, p, est| fig6_row(&ctx, i, p, est));
        let failed5 = fig5.iter().filter(|r| r.is_err()).count();
        let failed6 = fig6.iter().filter(|r| r.is_err()).count();
        (
            fig5.into_iter().filter_map(Result::ok).collect::<Vec<_>>(),
            fig6.into_iter().filter_map(Result::ok).collect::<Vec<_>>(),
            failed5 + failed6,
        )
    });
    let wall = t0.elapsed().as_secs_f64();

    let metrics = batch_metrics(&tracer.finish(), &counters, threads);
    gate.to_json(vec![
        ("wall_s", jnum(wall)),
        ("points", jnum(point_count() as f64)),
        ("failed", jnum(failed as f64)),
        ("digest", Json::Str(run_digest(&fig5, &fig6))),
        ("metrics", obj(metrics.iter().map(|(k, v)| (k.as_str(), jnum(*v))).collect())),
    ])
}

/// One sweep, mirroring the entry point: a fresh journal, one shared-stream
/// Monte Carlo kernel per distinct trace over all of its points' rates,
/// then the per-point analytic estimators fanned out across `threads`.
fn sweep<R: JournalRow + Send>(
    ctx: &Ctx<'_>,
    job: usize,
    work: &Path,
    kind: &str,
    points: &[Point],
    threads: usize,
    eval: impl Fn(usize, &Point, MttfEstimate) -> Result<R, SerrError> + Sync,
) -> Vec<Result<R, SerrError>> {
    let tr = ctx.tracer;
    let coords: Vec<String> =
        points.iter().map(|(l, _, c, prod)| format!("{l}@{c}@{prod:?}")).collect();
    let mut parts: Vec<&str> = vec!["perfbench", kind];
    parts.extend(coords.iter().map(String::as_str));
    let fp = checkpoint::fingerprint(&parts);
    let journal = tr
        .span("checkpoint.open", Some(job), 0, |_| {
            Journal::open(&journal_dir(work), kind, fp, true)
        })
        .expect("the replica's journal is private to this run");
    ctx.counters.add("checkpoint.resumed", journal.completed().len() as f64);

    // Group points by trace identity, in order of first appearance.
    let mut groups: Vec<(Arc<dyn VulnerabilityTrace>, Vec<usize>)> = Vec::new();
    for (i, p) in points.iter().enumerate() {
        match groups.iter_mut().find(|(t, _)| Arc::ptr_eq(t, &p.1)) {
            Some((_, members)) => members.push(i),
            None => groups.push((p.1.clone(), vec![i])),
        }
    }
    let mc = MonteCarlo::new(ctx.cfg.mc);
    let mut estimates: Vec<Option<Result<MttfEstimate, SerrError>>> = vec![None; points.len()];
    for (g, (trace, members)) in groups.iter().enumerate() {
        let rates: Vec<RawErrorRate> = members
            .iter()
            .map(|&i| RawErrorRate::baseline_per_bit().scale(points[i].3).scale(points[i].2 as f64))
            .collect();
        let out = mc_call(
            tr,
            ctx.counters,
            job,
            g as u64,
            &**trace,
            ctx.cfg.mc.trials,
            rates.len(),
            || mc.component_mttf_multi(&**trace, &rates, ctx.cfg.frequency),
        );
        match out {
            Ok(results) => {
                for (&i, r) in members.iter().zip(results) {
                    estimates[i] = Some(r);
                }
            }
            Err(e) => {
                for &i in members {
                    estimates[i] = Some(Err(e.clone()));
                }
            }
        }
    }

    tr.span("phase", Some(job), 0, |phase| {
        par::try_par_map(points, threads, |i, p| {
            tr.span("point", Some(phase), i as u64, |pt| {
                let est = estimates[i].clone().expect("every point belongs to a group")?;
                let row = eval(pt, p, est)?;
                tr.span("checkpoint.record", Some(pt), i as u64, |_| {
                    journal.record(i, &row.to_journal())
                })?;
                ctx.counters.add("checkpoint.records", 1.0);
                Ok(row)
            })
        })
    })
}

fn renewal(
    ctx: &Ctx<'_>,
    pt: usize,
    trace: &dyn VulnerabilityTrace,
    rate: RawErrorRate,
) -> Result<Mttf, SerrError> {
    ctx.counters.add("analytic.renewal_calls", 1.0);
    ctx.tracer.span("analytic.renewal", Some(pt), 0, |_| {
        serr_analytic::renewal::renewal_mttf(trace, rate, ctx.cfg.frequency)
    })
}

fn softarch(
    ctx: &Ctx<'_>,
    pt: usize,
    trace: &dyn VulnerabilityTrace,
    rate: RawErrorRate,
) -> Result<Mttf, SerrError> {
    ctx.counters.add("softarch.calls", 1.0);
    ctx.tracer.span("softarch", Some(pt), 0, |_| {
        SoftArch::new(ctx.cfg.frequency).component_mttf(trace, rate)
    })
}

/// `Validator::component_with_mc`, call for call.
fn fig5_row(ctx: &Ctx<'_>, pt: usize, p: &Point, est: MttfEstimate) -> Result<Fig5Row, SerrError> {
    let (label, trace, _, prod) = p;
    let trace: &dyn VulnerabilityTrace = &**trace;
    let rate = RawErrorRate::baseline_per_bit().scale(*prod);
    let mttf_avf = ctx.tracer.span("core.avf", Some(pt), 0, |_| avf_step_mttf(trace, rate))?;
    let exact = renewal(ctx, pt, trace, rate)?;
    let sa = softarch(ctx, pt, trace, rate)?;
    ctx.gate.mttf_years(point_key("fig5", label, 1, *prod), &est, exact.as_secs());
    Ok(Fig5Row {
        workload: (*label).to_owned(),
        n_times_s: *prod,
        avf: trace.avf(),
        mttf_avf_years: mttf_avf.as_years(),
        mttf_mc_years: est.mttf.as_years(),
        error: relative_error(mttf_avf.as_secs(), est.mttf.as_secs()),
        softarch_error: relative_error(sa.as_secs(), est.mttf.as_secs()),
    })
}

/// `Validator::system_identical_with_mc`, call for call.
fn fig6_row(ctx: &Ctx<'_>, pt: usize, p: &Point, est: MttfEstimate) -> Result<Fig6Row, SerrError> {
    let (label, trace, c, prod) = p;
    let trace: &dyn VulnerabilityTrace = &**trace;
    let component_rate = RawErrorRate::baseline_per_bit().scale(*prod);
    let component = renewal(ctx, pt, trace, component_rate)?;
    let mttf_sofr = sofr::sofr_mttf_identical(component, *c)?;
    let system_rate = component_rate.scale(*c as f64);
    let exact = renewal(ctx, pt, trace, system_rate)?;
    let sa = softarch(ctx, pt, trace, system_rate)?;
    ctx.gate.mttf_years(point_key("fig6b", label, *c, *prod), &est, exact.as_secs());
    Ok(Fig6Row {
        workload: (*label).to_owned(),
        c: *c,
        n_times_s: *prod,
        mttf_sofr_years: mttf_sofr.as_years(),
        mttf_mc_years: est.mttf.as_years(),
        error: relative_error(mttf_sofr.as_secs(), est.mttf.as_secs()),
        softarch_error: relative_error(sa.as_secs(), est.mttf.as_secs()),
    })
}
