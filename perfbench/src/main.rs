//! End-to-end benchmark of the soft-error estimation pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `spec-cold`, `spec-warm`, `sweep-synth`, `serve-mix` (see
//! README.md and `BENCHMARK.json` for why each exists and what each should
//! move). Every run of
//! a workload's job happens in a fresh child process of this executable,
//! with all of the program's telemetry off. With `--trace 0` the last line
//! of standard output is the end-to-end result; with `--trace 1` it is the
//! per-layer result of the traced replica, which composes the same job from
//! each crate's public functions with a span around every call. Either way
//! the correctness gate runs: every Monte Carlo estimate must lie within
//! five standard errors of the exact renewal MTTF of the same point, in
//! the untraced runs' own output as well as in the replica's.

mod layers;
mod replica;
mod serve;
mod span;
mod spec;
mod stats;
mod synth;
mod util;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use serr_core::jsonio::Json;

use crate::stats::{median, quartiles, tail_percentile};
use crate::util::{cache_sizes, cpu_ticks, jnum, nproc, num, obj, run_child, text};

const WORKLOADS: [&str; 4] = ["spec-cold", "spec-warm", "sweep-synth", "serve-mix"];

/// Runs of the job per measurement window, at least.
const MIN_RUNS: usize = 3;
/// Set-ups per batch measurement; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The per-layer metrics and their units, in the order `BENCHMARK.json`
/// lists them.
const LAYER_METRICS: [(&str, &str); 39] = [
    ("workload.gen_ms", "ms"),
    ("workload.instructions", "count"),
    ("sim.run_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.host_ns_per_cycle", "ns"),
    ("sim.minst_per_s", "Minst/s"),
    ("store.cache_write_ms", "ms"),
    ("store.cache_load_ms", "ms"),
    ("store.cache_bytes", "B"),
    ("store.cache_hits", "count"),
    ("store.cache_misses", "count"),
    ("trace.compile_ms", "ms"),
    ("trace.compiles", "count"),
    ("trace.segments", "count"),
    ("trace.prefix_bytes_computed", "B"),
    ("mc.sample_ms", "ms"),
    ("mc.trials", "count"),
    ("mc.ns_per_trial", "ns"),
    ("mc.kernel_calls", "count"),
    ("mc.points_per_kernel", "count"),
    ("analytic.renewal_ms", "ms"),
    ("analytic.renewal_calls", "count"),
    ("core.avf_ms", "ms"),
    ("softarch.ms", "ms"),
    ("softarch.calls", "count"),
    ("checkpoint.open_ms", "ms"),
    ("checkpoint.record_ms", "ms"),
    ("checkpoint.records", "count"),
    ("checkpoint.resumed", "count"),
    ("core.fanout_util", "ratio"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.estimate_ms", "ms"),
    ("serve.queue_wait_ms_derived", "ms"),
    ("serve.resumed_frac", "ratio"),
    ("serve.trace_cache_hit_frac", "ratio"),
    ("serve.shed", "count"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_ms", "ms"),
];

#[derive(Debug)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err("--workload, --seed, --seconds and --trace are all required".to_owned());
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Opts { workload, seed, seconds, trace })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("child") {
        child(&args[1..]);
        return;
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench-run");
    let work = root.join(format!("{}-{}", opts.workload, std::process::id()));
    let (summary, result) = if opts.workload == "serve-mix" {
        serve_parent(&opts, &work)
    } else {
        batch_parent(&opts, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    println!("{}", summary.to_json());
    println!("{result}");
}

/// Child entry: `child <mode> --workload W --seed N --work DIR [--pass-seconds S]`.
fn child(args: &[String]) {
    let mode = args.first().map(String::as_str).unwrap_or_default();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_default()
    };
    let workload = flag("--workload");
    let seed: u64 = flag("--seed").parse().expect("child --seed");
    let work = PathBuf::from(flag("--work"));
    let out = match (workload.as_str(), mode) {
        ("spec-cold" | "spec-warm", _) => {
            let kind = if workload == "spec-cold" { spec::Kind::Cold } else { spec::Kind::Warm };
            match mode {
                "setup" => spec::setup(kind, seed, &work),
                "job" => spec::job(kind, seed, &work),
                _ => spec::replica(kind, seed, &work),
            }
        }
        ("sweep-synth", "setup") => synth::setup(seed, &work),
        ("sweep-synth", "job") => synth::job(seed, &work),
        ("sweep-synth", _) => synth::replica(seed, &work),
        _ => {
            serve::pass(seed, &work, flag("--pass-seconds").parse().expect("child --pass-seconds"))
        }
    };
    println!("{}", out.to_json());
}

fn child_args(opts: &Opts, work: &Path) -> Vec<String> {
    vec![
        "--workload".to_owned(),
        opts.workload.clone(),
        "--seed".to_owned(),
        opts.seed.to_string(),
        "--work".to_owned(),
        work.display().to_string(),
    ]
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| jnum(x)).collect())
}

/// Host facts for the summary line. `steal_frac` is the share of the
/// host's CPU time since `since` (a [`cpu_ticks`] reading) that the
/// hypervisor gave to other guests: a run with a high share measured a
/// busy host, not the program.
fn host(since: (u64, u64)) -> Json {
    let caches =
        cache_sizes().into_iter().map(|(l, b)| Json::Arr(vec![jnum(f64::from(l)), jnum(b as f64)]));
    let (steal, total) = cpu_ticks();
    let steal_frac = steal.saturating_sub(since.0) as f64 / total.saturating_sub(since.1) as f64;
    obj(vec![
        ("nproc", jnum(nproc() as f64)),
        ("cache_level_bytes", Json::Arr(caches.collect())),
        ("steal_frac", jnum(steal_frac)),
    ])
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with counts printed as whole numbers. A metric that could not
/// be measured prints as `null` and makes the run incorrect.
fn result(correct: bool, attempted: u64, failed: u64, metrics: Vec<(&str, f64, &str)>) -> String {
    let correct = correct && metrics.iter().all(|(_, v, _)| v.is_finite());
    let metrics: Vec<String> = metrics
        .into_iter()
        .map(|(k, v, unit)| {
            let value = if v.is_finite() { format!("{v}") } else { "null".to_owned() };
            format!("\"{k}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

fn layer_result(correct: bool, attempted: u64, failed: u64, values: &[(String, f64)]) -> String {
    let get = |k: &str| values.iter().find(|(n, _)| n == k).map_or(0.0, |(_, v)| *v);
    let metrics = LAYER_METRICS.iter().map(|&(k, unit)| (k, get(k), unit)).collect();
    result(correct, attempted, failed, metrics)
}

/// Batch workloads: set up several times, run the job in fresh processes
/// until the window closes, then gate every run's output with the bands the
/// replica derives.
fn batch_parent(opts: &Opts, work: &Path) -> (Json, String) {
    let ticks = cpu_ticks();
    let args = child_args(opts, work);
    let setups: Vec<f64> = (0..SETUP_REPS).map(|_| run_child("setup", &args).0).collect();

    let window = Instant::now();
    let (mut jobs, mut replicas) = (Vec::new(), Vec::new());
    while jobs.len() < MIN_RUNS || window.elapsed().as_secs_f64() < opts.seconds {
        jobs.push(run_child("job", &args).1);
        if opts.trace {
            replicas.push(run_child("replica", &args).1);
        }
    }
    if replicas.is_empty() {
        replicas.push(run_child("replica", &args).1);
    }

    // The gate. The replica checks its own estimates against the exact
    // MTTFs and derives, for every figure of the output that carries Monte
    // Carlo noise, the band a correct estimate puts it in; every untraced
    // run's own figures must fall in those bands.
    let bands: BTreeMap<String, (f64, f64)> = replicas[0]
        .get("gate_bands")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|b| {
            let b = b.as_array()?;
            Some((b.first()?.as_str()?.to_owned(), (b.get(1)?.as_f64()?, b.get(2)?.as_f64()?)))
        })
        .collect();
    let replica_failed =
        replicas.iter().map(|r| num(r, "gate_failed") + num(r, "failed")).sum::<f64>();
    let (expect_hits, expect_misses) = match opts.workload.as_str() {
        "spec-cold" => (0.0, spec::PROGRAMS.len() as f64),
        "spec-warm" => (spec::PROGRAMS.len() as f64, 0.0),
        _ => (0.0, 0.0),
    };
    let (mut attempted, mut failed, mut rows_checked) = (0u64, 0u64, 0u64);
    for j in &jobs {
        let points = num(j, "points");
        let hygiene = num(j, "resumed") == 0.0
            && num(j, "records") == points - num(j, "failed")
            && num(j, "cache_hits") == expect_hits
            && num(j, "cache_misses") == expect_misses;
        let rows = j.get("gate_rows").and_then(Json::as_array).unwrap_or_default();
        let mut outside = BTreeSet::new();
        for row in rows {
            let row = row.as_array().unwrap_or_default();
            let field = |i: usize| row.get(i);
            let point = field(0).and_then(Json::as_str).unwrap_or_default();
            let key = field(1).and_then(Json::as_str).unwrap_or_default();
            let value = field(2).and_then(Json::as_f64).unwrap_or(f64::NAN);
            if !bands.get(key).is_some_and(|&(lo, hi)| (lo..=hi).contains(&value)) {
                outside.insert(point.to_owned());
            }
        }
        rows_checked += rows.len() as u64;
        let bad = if hygiene { num(j, "failed") + outside.len() as f64 } else { points };
        attempted += points as u64;
        failed += bad.min(points) as u64;
    }
    let correct = failed == 0 && replica_failed == 0.0;
    // Digests compare outputs bit for bit: across this run's jobs, against
    // the replica, and across commits. A mismatch is reported, not failed:
    // a change that moves an estimate by an ulp is still correct if the
    // bands hold.
    let digest = text(&jobs[0], "digest");
    let jobs_agree = jobs.iter().all(|j| text(j, "digest") == digest);
    let replica_digest = text(&replicas[0], "digest");

    let walls: Vec<f64> = jobs.iter().map(|j| num(j, "wall_s")).collect();
    let run_s = median(&walls);
    let (q1, q3) = quartiles(&walls);
    let (tail_p, tail) = tail_percentile(&walls);
    let points = num(&jobs[0], "points");
    let layer = |k: &str| {
        median(
            &replicas
                .iter()
                // Layers this workload does not cross report 0.
                .map(|r| {
                    r.get("metrics").and_then(|m| m.get(k)).and_then(Json::as_f64).unwrap_or(0.0)
                })
                .collect::<Vec<_>>(),
        )
    };
    let summary = obj(vec![
        ("workload", Json::Str(opts.workload.clone())),
        ("seed", Json::Str(opts.seed.to_string())),
        ("trace", Json::Bool(opts.trace)),
        ("digest", Json::Str(digest.clone())),
        ("digests_agree", Json::Bool(jobs_agree)),
        ("replica_digest", Json::Str(replica_digest.clone())),
        ("digest_matches_replica", Json::Bool(digest == replica_digest)),
        ("runs", jnum(jobs.len() as f64)),
        ("run_s", nums(&walls)),
        ("run_s_quartiles", nums(&[q1, q3])),
        ("latency_percentile", jnum(f64::from(tail_p))),
        ("setup_s", nums(&setups)),
        ("failed_frac", jnum(failed as f64 / attempted.max(1) as f64)),
        ("gate_checked", jnum(num(&replicas[0], "gate_checked"))),
        ("gate_worst_z", jnum(num(&replicas[0], "gate_worst_z"))),
        ("gate_bands", jnum(bands.len() as f64)),
        ("job_rows_checked", jnum(rows_checked as f64)),
        ("prefix_bytes_computed", jnum(layer("trace.prefix_bytes_computed"))),
        ("host", host(ticks)),
    ]);
    let result = if opts.trace {
        let replica_walls: Vec<f64> = replicas.iter().map(|r| num(r, "wall_s")).collect();
        let values: Vec<(String, f64)> = LAYER_METRICS
            .iter()
            .map(|&(k, _)| {
                let v = if k == "bench.trace_overhead_frac" {
                    median(&replica_walls) / run_s - 1.0
                } else {
                    layer(k)
                };
                (k.to_owned(), v)
            })
            .collect();
        layer_result(correct, attempted, failed, &values)
    } else {
        result(
            correct,
            attempted,
            failed,
            vec![
                ("setup_s", median(&setups), "s"),
                ("run_s", run_s, "s"),
                (
                    "peak_rss_mb",
                    median(&jobs.iter().map(|j| num(j, "rss_mb")).collect::<Vec<_>>()),
                    "MiB",
                ),
                ("latency_p50_ms", run_s * 1e3, "ms"),
                ("latency_p99_ms", tail * 1e3, "ms"),
                ("throughput_rps", points / run_s, "1/s"),
            ],
        )
    };
    (summary, result)
}

/// `serve-mix`: two set-up-only daemons, then one that also takes the
/// open-loop pass for the whole window; `setup_s` is the median of the
/// three set-ups.
fn serve_parent(opts: &Opts, work: &Path) -> (Json, String) {
    let ticks = cpu_ticks();
    let mut args = child_args(opts, work);
    args.push("--pass-seconds".to_owned());
    let mut setups = Vec::new();
    for _ in 0..2 {
        let mut a = args.clone();
        a.push("0".to_owned());
        setups.push(num(&run_child("serve", &a).1, "setup_s"));
    }
    args.push(opts.seconds.to_string());
    let pass = run_child("serve", &args).1;
    setups.push(num(&pass, "setup_s"));

    let arr = |k: &str| -> Vec<f64> {
        pass.get(k)
            .and_then(Json::as_array)
            .map_or_else(Vec::new, |a| a.iter().filter_map(Json::as_f64).collect())
    };
    let latency = arr("latency_ms");
    let (tail_p, tail) = tail_percentile(&latency);
    let sent = num(&pass, "sent");
    let failed = num(&pass, "failed");
    let completed = sent - failed;
    let wall = num(&pass, "wall_s");
    let correct = failed == 0.0
        && num(&pass, "gate_failed") == 0.0
        && pass.get("counts_ok") == Some(&Json::Bool(true));
    let summary = obj(vec![
        ("workload", Json::Str(opts.workload.clone())),
        ("seed", Json::Str(opts.seed.to_string())),
        ("trace", Json::Bool(opts.trace)),
        ("digest", Json::Str(text(&pass, "digest"))),
        ("offered_rps", jnum(serve::RATE_RPS)),
        ("sent", jnum(sent)),
        ("repeats", jnum(num(&pass, "repeats"))),
        ("resumed", jnum(num(&pass, "resumed"))),
        ("resume_wrong", jnum(num(&pass, "resume_wrong"))),
        ("cache_lookups", jnum(num(&pass, "cache_lookups"))),
        ("cache_hits", jnum(num(&pass, "cache_hits"))),
        ("cache_misses", jnum(num(&pass, "cache_misses"))),
        ("counts_ok", pass.get("counts_ok").cloned().unwrap_or(Json::Bool(false))),
        ("latency_samples", jnum(latency.len() as f64)),
        ("latency_percentile", jnum(f64::from(tail_p))),
        ("setup_s", nums(&setups)),
        ("failed_frac", jnum(failed / sent.max(1.0))),
        ("gate_checked", jnum(num(&pass, "gate_checked"))),
        ("gate_worst_z", jnum(num(&pass, "gate_worst_z"))),
        ("host", host(ticks)),
    ]);
    let attempted = sent as u64;
    let result = if opts.trace {
        let estimate_ms = num(&pass, "estimate_ms_sum") / num(&pass, "estimate_count").max(1.0);
        let resumed = num(&pass, "resumed");
        let values = vec![
            ("serve.roundtrip_ms".to_owned(), median(&arr("roundtrip_ms"))),
            ("serve.estimate_ms".to_owned(), estimate_ms),
            (
                "serve.queue_wait_ms_derived".to_owned(),
                num(&pass, "computed_latency_mean_ms") - estimate_ms,
            ),
            ("serve.resumed_frac".to_owned(), resumed / completed.max(1.0)),
            ("serve.trace_cache_hit_frac".to_owned(), num(&pass, "trace_cache_hit_frac")),
            ("serve.shed".to_owned(), num(&pass, "shed")),
            ("bench.gen_late_ms".to_owned(), tail_percentile(&arr("late_ms")).1),
        ];
        layer_result(correct, attempted, failed as u64, &values)
    } else {
        result(
            correct,
            attempted,
            failed as u64,
            vec![
                ("setup_s", median(&setups), "s"),
                ("run_s", wall, "s"),
                ("peak_rss_mb", num(&pass, "rss_mb"), "MiB"),
                ("latency_p50_ms", median(&latency), "ms"),
                ("latency_p99_ms", tail, "ms"),
                ("throughput_rps", completed / wall, "1/s"),
            ],
        )
    };
    (summary, result)
}
