//! `serve-mix`: an open loop at a fixed offered rate into a `serr-serve`
//! daemon with the default 2+2 workers, over a unix socket.
//!
//! Requests are `mttf` and `sofr` on warmed traces, at the design points
//! of the figures the CLI's `serr sweep` computes: a fresh request on a
//! loop (`day`, `week`) takes a point of the Figure 5 grid (`mttf`, 7 N×S
//! values) or of the Figure 6(b) grid (`sofr`, 3 N×S values × Table 2's 5
//! cluster sizes); a SPEC request takes a point of the Figure 6(a) grid
//! (`sofr` on gzip, mcf or equake, 4 N×S values × 5 cluster sizes). Its
//! N×S is the grid value times a seeded factor within 1%, so the body is
//! new to the daemon but costs what the figure's point costs. Each seed
//! visits every grid point equally often, in a seeded order, and repeats
//! fill the same share of every block of slots, so every seed sends the
//! same mix. Two shares have no record to come from and are assumptions:
//! the share of exact repeats ([`REPEAT_SHARE`]) and the share of SPEC
//! requests ([`SPEC_EVERY`]). README.md records how p50 and p99 respond
//! when they change.
//!
//! This is the only workload that runs the bounded queues, admission, the
//! LRU trace cache and the results map. Protection transforms are left
//! out: no paper artifact applies them.
//!
//! One process generates all load: one connection, one sending thread on
//! the schedule and one receiving thread, so the generator never uses more
//! threads or connections than the two-core host has cores.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serr_core::design::C_VALUES;
use serr_core::experiments::{ExperimentConfig, REPRESENTATIVE_BENCHMARKS};
use serr_core::jsonio::Json;
use serr_core::workspec::WorkloadSpec;
use serr_mc::SamplerKind;
use serr_obs::Obs;
use serr_serve::{Bind, Client, Request, RequestBody, Response, ServeConfig, Server};
use serr_types::RawErrorRate;

use crate::replica::GATE_SIGMAS;
use crate::util::{derive_seed, digest, jnum, obj, peak_rss_mb, reset_dir, uniform, within_sigmas};

/// Offered load, requests per second: well below the rate at which the
/// daemon starts to queue this mix on two cores (README.md), so latency
/// measures service, not collapse. A 20 s pass holds 1000 requests, so 10
/// lie beyond p99.
pub const RATE_RPS: f64 = 50.0;
/// Assumed share of the slots that are not SPEC slots in which a request
/// repeats an earlier one exactly: exactly this many of every
/// [`REPEAT_BLOCK`] such slots. With no record to take it from, it is set
/// where the median latency is steady: the median then lies in the middle
/// of the loop requests in the sampler's cheap regime, away from their
/// slow end, where contention on the host piles up (README.md).
const REPEAT_SHARE: usize = 4;
/// See [`REPEAT_SHARE`].
const REPEAT_BLOCK: usize = 10;
/// Assumed share of requests that ask about a SPEC program: one slot in
/// this many. Each costs 100–300 ms of trace building and sampling, against
/// 5–20 ms for a request on a loop, so the SPEC requests are the slowest
/// 2.5% of a pass and set its p99 (README.md).
const SPEC_EVERY: usize = 40;
/// N×S of the CLI's Figure 5 sweep (`serr sweep fig5`).
const FIG5_N_S: [f64; 7] = [1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 5e12];
/// N×S of the CLI's Figure 6(a) sweep (`serr sweep fig6a`).
const FIG6A_N_S: [f64; 4] = [1e8, 1e9, 2e12, 5e12];
/// N×S of the CLI's Figure 6(b) sweep (`serr sweep fig6b`).
const FIG6B_N_S: [f64; 3] = [1e7, 1e8, 1e9];
/// A fresh request's N×S lies within this factor of its grid value.
const JITTER: f64 = 0.01;
/// A repeat copies a request due at least this long before it, so the
/// original has almost always been answered and the results map holds it.
const REPEAT_MIN_AGE_S: f64 = 1.0;
/// Monte Carlo trials per request: half the paper's count per component.
/// Fewer make a request on a loop so short that its latency follows the
/// host's thread wake-ups more than the program; the paper's 1M keeps the
/// daemon busy enough that a slow minute of the host queues it
/// (README.md).
const TRIALS: u64 = 500_000;
/// Longest wait for the last reply after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The warmed traces: Figures 5 and 6(b)'s loops, then the SPEC programs.
fn workloads() -> Vec<WorkloadSpec> {
    let loops = [WorkloadSpec::Day, WorkloadSpec::Week];
    let programs = REPRESENTATIVE_BENCHMARKS.iter().map(|&p| WorkloadSpec::Spec(p.to_owned()));
    loops.into_iter().chain(programs).collect()
}

/// One scheduled request: when it is due (seconds after the pass starts)
/// and what it asks.
#[derive(Debug, Clone)]
struct Planned {
    due_s: f64,
    body: RequestBody,
    repeat: bool,
}

/// A uniform index below `len`.
fn draw(s: &mut u64, len: usize) -> usize {
    ((uniform(s) * len as f64) as usize).min(len - 1)
}

/// `0..len` in a seeded order (Fisher–Yates).
fn shuffled(s: &mut u64, len: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        v.swap(i, draw(s, i + 1));
    }
    v
}

/// One design point of a figure: trace, N×S and cluster size (`None` for
/// an `mttf` request).
#[derive(Debug, Clone)]
struct Point {
    workload: WorkloadSpec,
    n_times_s: f64,
    c: Option<u64>,
}

/// The `sofr` points of a Figure 6 grid on one trace: every cluster size
/// of Table 2 at every N×S of `n_s`.
fn fig6_points(workload: &WorkloadSpec, n_s: &[f64]) -> Vec<Point> {
    C_VALUES
        .iter()
        .flat_map(|&c| {
            n_s.iter().map(move |&n_times_s| Point {
                workload: workload.clone(),
                n_times_s,
                c: Some(c),
            })
        })
        .collect()
}

/// The design points of Figures 5 and 6(b) on the two loops.
fn loop_grid() -> Vec<Point> {
    workloads()[..2]
        .iter()
        .flat_map(|w| {
            let fig5 =
                FIG5_N_S.iter().map(|&n_times_s| Point { workload: w.clone(), n_times_s, c: None });
            fig5.chain(fig6_points(w, &FIG6B_N_S))
        })
        .collect()
}

/// Hands out design points so that every block of `grid.len()` draws
/// visits each point once, in a seeded order.
struct Rotation {
    grid: Vec<Point>,
    order: Vec<usize>,
}

impl Rotation {
    fn new(grid: Vec<Point>) -> Rotation {
        Rotation { grid, order: Vec::new() }
    }

    /// The next point, as a fresh request body: its N×S moved by a seeded
    /// factor within [`JITTER`].
    fn next(&mut self, s: &mut u64) -> RequestBody {
        if self.order.is_empty() {
            self.order = shuffled(s, self.grid.len());
        }
        let p = &self.grid[self.order.pop().expect("refilled above")];
        let n_times_s = p.n_times_s * (1.0 + JITTER * (2.0 * uniform(s) - 1.0));
        let rate_per_year = RawErrorRate::baseline_per_bit().scale(n_times_s).events_per_year();
        let (workload, trials, sampler) =
            (p.workload.clone(), TRIALS, SamplerKind::BatchedInversion);
        match p.c {
            None => RequestBody::Mttf { workload, rate_per_year, trials, sampler },
            Some(components) => {
                RequestBody::Sofr { workload, rate_per_year, components, trials, sampler }
            }
        }
    }
}

/// The seeded open-loop schedule for a pass of `pass_s` seconds at
/// [`RATE_RPS`]: one request per 1/[`RATE_RPS`] slot, at a seeded instant
/// within its slot. Every [`SPEC_EVERY`]th request is a fresh request at
/// a Figure 6(a) point; of every [`REPEAT_BLOCK`] other slots,
/// [`REPEAT_SHARE`] seeded ones repeat a request due at least
/// [`REPEAT_MIN_AGE_S`] before (a fresh request while there is none), and
/// the rest are fresh requests at Figure 5 and 6(b) points. Slotted
/// arrivals, evenly spaced SPEC slots, blocked repeats and the rotation
/// over the grids keep the offered load and its mix the same for every
/// seed.
#[must_use]
fn schedule(seed: u64, pass_s: f64) -> Vec<Planned> {
    let mut s = derive_seed(seed, 7);
    let mut loops = Rotation::new(loop_grid());
    // The programs take the SPEC slots in turn, so every seed asks about
    // each as often; each goes through its own Figure 6(a) points.
    let mut programs: Vec<Rotation> =
        workloads()[2..].iter().map(|w| Rotation::new(fig6_points(w, &FIG6A_N_S))).collect();
    let n = (RATE_RPS * pass_s).round() as usize;
    let mut plan: Vec<Planned> = Vec::with_capacity(n);
    let mut repeat_slots: Vec<bool> = Vec::new();
    for i in 0..n {
        let t = (i as f64 + uniform(&mut s)) / RATE_RPS;
        if i % SPEC_EVERY == SPEC_EVERY - 1 {
            let program = &mut programs[(i / SPEC_EVERY) % REPRESENTATIVE_BENCHMARKS.len()];
            plan.push(Planned { due_s: t, body: program.next(&mut s), repeat: false });
            continue;
        }
        if repeat_slots.is_empty() {
            let picked = shuffled(&mut s, REPEAT_BLOCK);
            repeat_slots = picked.iter().map(|&k| k < REPEAT_SHARE).collect();
        }
        let old = plan.partition_point(|p| p.due_s <= t - REPEAT_MIN_AGE_S);
        if repeat_slots.pop().expect("refilled above") && old > 0 {
            let j = draw(&mut s, old);
            plan.push(Planned { due_s: t, body: plan[j].body.clone(), repeat: true });
        } else {
            plan.push(Planned { due_s: t, body: loops.next(&mut s), repeat: false });
        }
    }
    plan
}

fn socket(work: &Path) -> PathBuf {
    work.join("serve.sock")
}

/// A daemon with the CLI's defaults and its metrics kept by `obs`, except
/// that each estimate samples on one thread: the two estimate workers then
/// run as many sampling threads as the host has cores, so a request on a
/// loop does not share a core with a SPEC request that runs beside it.
fn start(work: &Path, obs: &Obs) -> Server {
    reset_dir(work);
    reset_dir(&work.join("trace-cache"));
    std::env::set_var("SERR_TRACE_CACHE", work.join("trace-cache"));
    let mut cfg = ServeConfig::new(Bind::Unix(socket(work)));
    cfg.mc_threads = 1;
    cfg.obs = obs.clone();
    Server::start(cfg).expect("daemon binds its socket in the work directory")
}

/// The set-up's requests: one `mttf` request per warmed trace.
fn warmups() -> Vec<RequestBody> {
    workloads()
        .into_iter()
        .map(|workload| RequestBody::Mttf {
            workload,
            rate_per_year: 1.0,
            trials: TRIALS,
            sampler: SamplerKind::BatchedInversion,
        })
        .collect()
}

/// Set-up: start the daemon and answer the warm-up requests one at a
/// time, so the daemon's peak memory does not depend on which simulations
/// happened to overlap.
fn setup(work: &Path, obs: &Obs) -> (Server, f64) {
    let t0 = Instant::now();
    let server = start(work, obs);
    let mut client = Client::connect(server.bind_addr()).expect("daemon accepts a connection");
    for (i, body) in warmups().into_iter().enumerate() {
        let req = Request { id: i as u64, deadline_ms: None, tag: None, body };
        match client.roundtrip(&req) {
            Ok(Some(r)) if r.state() == "result" => {}
            other => panic!("warm-up request failed: {other:?}"),
        }
    }
    (server, t0.elapsed().as_secs_f64())
}

fn stop(server: Server) {
    server.shutdown();
    server.wait();
}

/// One child process: set up a daemon, then (for `pass_s > 0`) drive one
/// open-loop pass and check every answer.
pub fn pass(seed: u64, work: &Path, pass_s: f64) -> Json {
    let obs = Obs::disabled();
    let (server, setup_s) = setup(work, &obs);
    if pass_s <= 0.0 {
        stop(server);
        return obj(vec![("setup_s", jnum(setup_s))]);
    }
    let plan = schedule(seed, pass_s);
    let (replies, late_ms, wall) = open_loop(&socket(work), &plan);
    let rss = peak_rss_mb();
    let snapshot = obs.metrics().snapshot();
    stop(server);

    let cfg = ExperimentConfig::cli();
    let mut traces = BTreeMap::new();
    let mut gate = (0u64, 0u64, 0f64);
    let mut first: BTreeMap<String, u64> = BTreeMap::new();
    // Per body: whether it was sent before, and when (ms after the pass
    // start) its first answer arrived. The warm-up answers came before.
    let mut asked: BTreeSet<String> = warmups().iter().map(RequestBody::canonical).collect();
    let mut answered: BTreeMap<String, f64> =
        asked.iter().map(|k| (k.clone(), f64::NEG_INFINITY)).collect();
    let mut computed_keys = BTreeSet::new();
    let mut records = Vec::new();
    let (mut failed, mut shed, mut resumed, mut resume_wrong) = (0u64, 0u64, 0u64, 0u64);
    let mut latency_ms = Vec::new();
    let mut roundtrip_ms = Vec::new();
    let mut computed_ms = Vec::new();
    for (p, reply) in plan.iter().zip(&replies) {
        let canonical = p.body.canonical();
        let seen = !asked.insert(canonical.clone());
        let Some((sent, recv, resp)) = reply else {
            failed += 1;
            continue;
        };
        let est = match resp {
            Response::Estimate { est, .. } if est.state() == "result" => est,
            Response::Shed { .. } => {
                shed += 1;
                failed += 1;
                continue;
            }
            _ => {
                failed += 1;
                continue;
            }
        };
        latency_ms.push(*recv);
        roundtrip_ms.push(*recv - *sent);
        let due_ms = p.due_s * 1e3;
        let answered_before = answered.get(&canonical).is_some_and(|&at| at < due_ms + *sent);
        if !resume_consistent(est.resumed, seen, answered_before) {
            resume_wrong += 1;
            failed += 1;
        }
        answered.entry(canonical.clone()).or_insert(due_ms + *recv);
        resumed += u64::from(est.resumed);
        if !est.resumed {
            computed_ms.push(*recv);
            computed_keys.insert(canonical.clone());
        }
        records.push(format!("{canonical} {:?} {:?}", est.mttf_mc_s, est.rel_ci95));
        // A repeat must be answered bit-identically to its original.
        match first.get(&canonical) {
            Some(&bits) if bits != est.mttf_mc_s.to_bits() => {
                failed += 1;
                continue;
            }
            Some(_) => continue,
            None => {
                first.insert(canonical, est.mttf_mc_s.to_bits());
            }
        }
        let (workload, rate, c) = match &p.body {
            RequestBody::Mttf { workload, rate_per_year, .. } => (workload, *rate_per_year, 1),
            RequestBody::Sofr { workload, rate_per_year, components, .. } => {
                (workload, *rate_per_year, *components)
            }
            _ => unreachable!("the schedule holds only mttf and sofr requests"),
        };
        let trace = traces
            .entry(workload.canonical())
            .or_insert_with(|| workload.trace(&cfg).expect("warmed workload trace builds"));
        let system_rate = RawErrorRate::per_year(rate).scale(c as f64);
        let exact = serr_analytic::renewal::renewal_mttf(&**trace, system_rate, cfg.frequency)
            .expect("exact MTTF of a served point")
            .as_secs();
        // The served CI is a normal-theory 95% interval (100k trials).
        let se = est.rel_ci95 * est.mttf_mc_s / 1.959_963_984_540_054;
        let ok = within_sigmas(est.mttf_mc_s, se, exact, GATE_SIGMAS);
        gate.0 += 1;
        gate.1 += u64::from(!ok);
        gate.2 = gate.2.max((est.mttf_mc_s - exact).abs() / se);
        failed += u64::from(!ok);
    }
    let counter = |k: &str| snapshot.counters.get(k).copied().unwrap_or(0) as f64;
    let (hits, misses, rebuilds) = (
        counter("serve.cache_hits"),
        counter("serve.cache_misses"),
        counter("serve.cache_rebuilds"),
    );
    let lookups = hits + misses + rebuilds;
    // Every computed request (warm-ups included) looks its trace up once;
    // each body misses at least once; no cached trace fails verification;
    // the daemon's resume counter agrees with the answers.
    let computed = (computed_ms.len() + warmups().len()) as f64;
    let counts_ok = rebuilds == 0.0
        && lookups == computed
        && misses >= (computed_keys.len() + warmups().len()) as f64
        && counter("serve.resumed") == resumed as f64;
    if !counts_ok {
        failed = plan.len() as u64;
    }
    let estimate = snapshot.histograms.get("serve.estimate_ms");
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| jnum(x)).collect());
    obj(vec![
        ("setup_s", jnum(setup_s)),
        ("wall_s", jnum(wall)),
        ("rss_mb", jnum(rss)),
        ("sent", jnum(plan.len() as f64)),
        ("repeats", jnum(plan.iter().filter(|p| p.repeat).count() as f64)),
        ("failed", jnum(failed as f64)),
        ("shed", jnum(shed as f64)),
        ("resumed", jnum(resumed as f64)),
        ("resume_wrong", jnum(resume_wrong as f64)),
        ("cache_lookups", jnum(lookups)),
        ("cache_hits", jnum(hits)),
        ("cache_misses", jnum(misses)),
        ("counts_ok", Json::Bool(counts_ok)),
        ("latency_ms", nums(&latency_ms)),
        ("roundtrip_ms", nums(&roundtrip_ms)),
        ("late_ms", nums(&late_ms)),
        (
            "computed_latency_mean_ms",
            jnum(computed_ms.iter().sum::<f64>() / computed_ms.len().max(1) as f64),
        ),
        ("estimate_ms_sum", jnum(estimate.map_or(0.0, |h| h.sum()))),
        ("estimate_count", jnum(estimate.map_or(0, |h| h.count()) as f64)),
        ("trace_cache_hit_frac", jnum(if lookups > 0.0 { hits / lookups } else { 0.0 })),
        ("digest", Json::Str(digest(&records))),
        ("gate_checked", jnum(gate.0 as f64)),
        ("gate_failed", jnum(gate.1 as f64)),
        ("gate_worst_z", jnum(gate.2)),
    ])
}

/// Whether a reply's `resumed` flag is the one the daemon must give. It
/// publishes a result before it replies, so a body whose answer reached the
/// client before the request went out must be resumed, and a body never
/// sent before must not be. A repeat sent while an earlier copy was still
/// in flight may go either way.
fn resume_consistent(resumed: bool, seen_before: bool, answered_before_send: bool) -> bool {
    if answered_before_send {
        resumed
    } else {
        seen_before || !resumed
    }
}

/// A reply: when the request actually went out and when its answer came
/// back, both in milliseconds after the request was due, and the answer.
type Reply = Option<(f64, f64, Response)>;

/// Sends `plan` on its schedule over one connection while a second thread
/// reads replies. Returns one reply slot per request, how late each send
/// was (ms), and the pass wall time (first due to last reply, seconds).
fn open_loop(sock: &Path, plan: &[Planned]) -> (Vec<Reply>, Vec<f64>, f64) {
    let mut writer = UnixStream::connect(sock).expect("daemon accepts a connection");
    let reader = writer.try_clone().expect("socket handle clones");
    reader.set_read_timeout(Some(DRAIN_TIMEOUT)).expect("socket read timeout");
    let start = Instant::now() + Duration::from_millis(20);
    let n = plan.len();

    let (received, late_ms) = std::thread::scope(|s| {
        let rx = s.spawn(move || {
            let mut r = BufReader::new(reader);
            let mut got: Vec<(Instant, String)> = Vec::with_capacity(n);
            let mut line = String::new();
            while got.len() < n {
                line.clear();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => got.push((Instant::now(), line.trim_end().to_owned())),
                }
            }
            got
        });
        let mut late_ms = Vec::with_capacity(n);
        let mut sent_at = Vec::with_capacity(n);
        for (i, p) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(p.due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let now = Instant::now();
            late_ms.push(now.duration_since(due).as_secs_f64() * 1e3);
            sent_at.push(now);
            let req = Request { id: i as u64, deadline_ms: None, tag: None, body: p.body.clone() };
            let line = req.to_line() + "\n";
            writer.write_all(line.as_bytes()).expect("request write to the daemon");
        }
        let got = rx.join().expect("reply reader thread");
        ((got, sent_at), late_ms)
    });
    let (got, sent_at) = received;
    let mut replies: Vec<Reply> = vec![None; n];
    let mut last = start;
    for (at, line) in got {
        let Some(resp) = Response::parse(&line) else { continue };
        let id = match &resp {
            Response::Estimate { id, .. } | Response::Shed { id, .. } => Some(*id),
            Response::Error { id, .. } => *id,
            _ => None,
        };
        let Some(i) = id.map(|i| i as usize).filter(|&i| i < n) else { continue };
        let due = start + Duration::from_secs_f64(plan[i].due_s);
        let ms = |t: Instant| t.saturating_duration_since(due).as_secs_f64() * 1e3;
        replies[i] = Some((ms(sent_at[i]), ms(at), resp));
        last = last.max(at);
    }
    (replies, late_ms, last.duration_since(start).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resumed_flag_must_follow_what_the_client_saw() {
        // Answered before this copy went out: only a resumed reply is right.
        assert!(resume_consistent(true, true, true));
        assert!(!resume_consistent(false, true, true));
        // Never sent before: only a computed reply is right.
        assert!(resume_consistent(false, false, false));
        assert!(!resume_consistent(true, false, false));
        // Earlier copy still in flight: either is right.
        assert!(resume_consistent(true, true, false));
        assert!(resume_consistent(false, true, false));
    }

    #[test]
    fn schedule_is_seeded_and_spaces_the_spec_slots() {
        let a = schedule(11, 2.0);
        assert_eq!(a.len(), (RATE_RPS * 2.0).round() as usize);
        let b = schedule(11, 2.0);
        let bodies = |p: &[Planned]| p.iter().map(|x| x.body.canonical()).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&b));
        assert_ne!(bodies(&a), bodies(&schedule(12, 2.0)));
        for (i, p) in a.iter().enumerate() {
            let spec = p.body.canonical().contains("spec:");
            assert_eq!(spec && !p.repeat, i % SPEC_EVERY == SPEC_EVERY - 1, "slot {i}");
        }
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
    }

    #[test]
    fn every_seed_sends_the_same_mix() {
        // How often each design point is asked about fresh: command, trace,
        // cluster size and the grid value its N×S lies around.
        let mix = |seed: u64| {
            let plan = schedule(seed, 20.0);
            let grid_values: Vec<f64> =
                FIG5_N_S.iter().chain(&FIG6A_N_S).chain(&FIG6B_N_S).copied().collect();
            let mut counts: BTreeMap<String, usize> = BTreeMap::new();
            for p in plan.iter().filter(|p| !p.repeat) {
                let (cmd, workload, rate, c) = match &p.body {
                    RequestBody::Mttf { workload, rate_per_year, .. } => {
                        ("mttf", workload, *rate_per_year, 1)
                    }
                    RequestBody::Sofr { workload, rate_per_year, components, .. } => {
                        ("sofr", workload, *rate_per_year, *components)
                    }
                    _ => unreachable!("only mttf and sofr are scheduled"),
                };
                let n_s = rate / RawErrorRate::baseline_per_bit().events_per_year();
                let g = grid_values
                    .iter()
                    .find(|&&g| (n_s / g - 1.0).abs() <= JITTER * (1.0 + 1e-9))
                    .expect("every N×S lies within the jitter of a grid value");
                *counts.entry(format!("{cmd} {} {c} {g:e}", workload.canonical())).or_default() +=
                    1;
            }
            (plan.iter().filter(|p| p.repeat).count(), counts)
        };
        let (repeats, counts) = mix(1);
        // 1000 slots, 25 of them SPEC slots; REPEAT_SHARE of every
        // REPEAT_BLOCK others repeat, except in the first second, where
        // nothing is old enough.
        let others = 975 * REPEAT_SHARE / REPEAT_BLOCK;
        let first_second = 50 * REPEAT_SHARE / REPEAT_BLOCK;
        assert!(
            (others - first_second - 5..=others).contains(&repeats),
            "{repeats} repeats against {others} slots"
        );
        assert_eq!(counts.len(), loop_grid().len() + 25, "every loop point, one per SPEC slot");
        for seed in 2..6 {
            let (r, c) = mix(seed);
            assert!(r.abs_diff(repeats) <= 3, "seed {seed}: {r} repeats against {repeats}");
            for (shape, n) in counts.iter().filter(|(k, _)| !k.contains("spec:")) {
                let m = c.get(shape).copied().unwrap_or(0);
                assert!(n.abs_diff(m) <= 1, "seed {seed}: {shape} asked {m} times against {n}");
            }
        }
    }
}
