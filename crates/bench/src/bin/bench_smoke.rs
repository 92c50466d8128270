//! Fixed smoke benchmark with machine-readable output.
//!
//! This binary runs a small, fixed set of sampler duels plus a
//! shared-stream sweep-kernel duel, a timing-simulator row, one figure
//! sweep, a checkpoint/chaos probe, and a `serr serve` service probe, and
//! writes the results as JSON to `BENCH_engines.json` at the repository
//! root, so successive changes leave a perf trajectory that tooling can
//! diff.
//!
//! Usage: `cargo run --release -p serr-bench --bin bench_smoke [out.json]`

use std::time::{Duration, Instant};

use serr_core::checkpoint::{fingerprint, Journal};
use serr_core::experiments::{fig5, fig5_sweep, ExperimentConfig};
use serr_core::jsonio::Json;
use serr_core::pipeline::{
    load_cache_entry_mmap, load_cache_entry_read, simulate_benchmark, write_cache_entry,
};
use serr_core::prelude::{
    run_chaos, ChaosConfig, ProtectionSpec, Provenance, SweepOptions, Validator, Workload,
    WorkloadSpec,
};
use serr_inject::{FaultKind, FaultPlan};
use serr_mc::{MonteCarlo, MonteCarloConfig, SamplerKind};
use serr_obs::{Event, Obs, Value};
use serr_serve::{Bind, Client, Request, RequestBody, Response, ServeConfig, Server};
use serr_sim::{SimConfig, Simulator};
use serr_trace::{CompiledTrace, IntervalTrace, VulnerabilityTrace};
use serr_types::{Frequency, RawErrorRate};
use serr_workload::{BenchmarkProfile, Instruction, TraceGenerator};

/// Pulls a numeric field out of an event, NaN if absent or non-numeric.
fn field_f64(e: &Event, key: &str) -> f64 {
    e.fields
        .iter()
        .find_map(|(k, v)| {
            (*k == key).then(|| match v {
                Value::F64(x) => *x,
                Value::U64(n) => *n as f64,
                _ => f64::NAN,
            })
        })
        .unwrap_or(f64::NAN)
}

struct Timing {
    name: &'static str,
    iterations: u32,
    mean_ms: f64,
    min_ms: f64,
}

/// Times `f` over `iters` iterations after one untimed warmup.
fn time<R>(name: &'static str, iters: u32, mut f: impl FnMut() -> R) -> Timing {
    std::hint::black_box(f());
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        total += dt;
        min = min.min(dt);
    }
    Timing { name, iterations: iters, mean_ms: total / f64::from(iters), min_ms: min }
}

/// Times `a` and `b` over `iters` interleaved pairs (after one untimed
/// warmup each), alternating which runs first, so that both sides see the
/// same host state: back-to-back blocks can land in different CPU-frequency
/// or noisy-neighbour modes and bias a ratio between them.
fn time_interleaved<R, S>(
    names: [&'static str; 2],
    iters: u32,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> S,
) -> (Timing, Timing) {
    std::hint::black_box(a());
    std::hint::black_box(b());
    let mut total = [0.0f64; 2];
    let mut min = [f64::INFINITY; 2];
    for i in 0..iters {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let t0 = Instant::now();
            if side == 0 {
                std::hint::black_box(a());
            } else {
                std::hint::black_box(b());
            }
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            total[side] += dt;
            min[side] = min[side].min(dt);
        }
    }
    let timing = |side: usize| Timing {
        name: names[side],
        iterations: iters,
        mean_ms: total[side] / f64::from(iters),
        min_ms: min[side],
    };
    (timing(0), timing(1))
}

/// A unique estimation request for the service probe: the duty-cycle
/// spelling varies the workload and the rate varies with `i`, so no two
/// requests share a canonical body and none short-circuits through the
/// daemon's resume map.
fn serve_request(i: u64, trials: u64) -> Request {
    let duty = ["duty:0.002:0.5", "duty:0.004:0.25", "duty:0.001:0.75", "duty:0.003:0.4"]
        [usize::try_from(i % 4).expect("i % 4 fits usize")];
    Request {
        id: i,
        deadline_ms: None,
        tag: Some(i),
        body: RequestBody::Mttf {
            workload: WorkloadSpec::parse(duty).expect("duty workload parses"),
            rate_per_year: 1.0e6 * (1.0 + i as f64 / 100.0),
            trials,
            sampler: SamplerKind::default(),
        },
    }
}

/// Snapshot of the daemon's counters via a `stats` request.
fn serve_stats(client: &mut Client) -> Vec<(String, u64)> {
    let resp = client
        .roundtrip(&Request { id: 9_999, deadline_ms: None, tag: None, body: RequestBody::Stats })
        .expect("stats io")
        .expect("stats response");
    match resp {
        Response::Stats { counters, .. } => counters,
        other => panic!("stats request answered with {other:?}"),
    }
}

fn serve_counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v)
}

/// Graceful shutdown: request, assert the ack, and join the daemon.
fn shut_down_service(client: &mut Client, server: Server) {
    let ack = client
        .roundtrip(&Request { id: 0, deadline_ms: None, tag: None, body: RequestBody::Shutdown })
        .expect("shutdown io")
        .expect("shutdown ack");
    assert!(matches!(ack, Response::ShutdownAck { .. }), "expected shutdown ack, got {ack:?}");
    server.wait();
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| {
        // crates/bench -> repository root.
        format!("{}/../../BENCH_engines.json", env!("CARGO_MANIFEST_DIR"))
    });
    let freq = Frequency::base();
    let mut timings = Vec::new();

    // The per-event phase-lookup stress test the compiled path targets.
    let levels: Vec<f64> = (0..10_000).map(|i| f64::from(u32::from(i % 7 == 0))).collect();
    let fine = IntervalTrace::from_levels(&levels).expect("fine-grained trace levels are valid");
    let mc = MonteCarlo::new(MonteCarloConfig { trials: 2_000, threads: 1, ..Default::default() });
    let rate = RawErrorRate::per_year(100.0);
    timings.push(time("monte_carlo/fine_grained_10k_segments", 20, || {
        mc.component_mttf(&fine, rate, freq).expect("fine-grained MC case runs")
    }));

    // The day-like case: two huge segments, stresses the period-skip math
    // rather than the lookup.
    let day_like = IntervalTrace::busy_idle(1_000_000, 1_000_000).expect("day-like trace is valid");
    let mc_day =
        MonteCarlo::new(MonteCarloConfig { trials: 10_000, threads: 1, ..Default::default() });
    let day_rate = RawErrorRate::per_year(1.0e4);
    timings.push(time("monte_carlo/day_like_10k_trials", 20, || {
        mc_day.component_mttf(&day_like, rate, freq).expect("day-like MC case runs");
        mc_day.component_mttf(&day_like, day_rate, freq).expect("day-like MC case runs")
    }));

    // Three-way sampler duel on a low-AVF workload (schema v6): busy 1
    // cycle in 1000, so the event-loop walk burns ~1/AVF = 1000 thinning
    // rejections per trial, the scalar Λ-inversion sampler spends exactly
    // one Exp(1) draw, and the batched sampler amortizes that draw's RNG,
    // log transforms, and phase probe across whole chunks in SoA passes.
    // Min-of-N timings (one untimed warmup each; N = 25 for the two
    // sub-millisecond inversion samplers, where a min-of-5 is still timer
    // noise, and 5 for the ~400 ms event loop), per-trial event counts,
    // and ns-per-trial all land in the JSON; the run aborts if either
    // advertised advantage — inversion ≥10× over the event loop, batched
    // ≥5× over scalar inversion — ever regresses.
    let low_avf = IntervalTrace::busy_idle(1, 999).expect("low-AVF trace is valid");
    let duel_rate = RawErrorRate::per_year(1.0e3);
    let duel_trials = 20_000u64;
    let duel_config = |sampler| MonteCarloConfig {
        trials: duel_trials,
        threads: 1,
        sampler,
        ..Default::default()
    };
    let mc_ev = MonteCarlo::new(duel_config(SamplerKind::EventLoop));
    let mc_inv = MonteCarlo::new(duel_config(SamplerKind::Inversion));
    let mc_batched = MonteCarlo::new(duel_config(SamplerKind::BatchedInversion));
    let ev_est = mc_ev.component_mttf(&low_avf, duel_rate, freq).expect("event-loop duel runs");
    let inv_est = mc_inv.component_mttf(&low_avf, duel_rate, freq).expect("inversion duel runs");
    let batched_est =
        mc_batched.component_mttf(&low_avf, duel_rate, freq).expect("batched duel runs");
    assert_eq!(ev_est.sampler, SamplerKind::EventLoop);
    assert_eq!(inv_est.sampler, SamplerKind::Inversion);
    assert_eq!(batched_est.sampler, SamplerKind::BatchedInversion);
    let t_ev = time("sampler/event_loop_low_avf_20k_trials", 5, || {
        mc_ev.component_mttf(&low_avf, duel_rate, freq).expect("event-loop duel runs")
    });
    let t_inv = time("sampler/inversion_low_avf_20k_trials", 25, || {
        mc_inv.component_mttf(&low_avf, duel_rate, freq).expect("inversion duel runs")
    });
    let t_batched = time("sampler/batched_inversion_low_avf_20k_trials", 25, || {
        mc_batched.component_mttf(&low_avf, duel_rate, freq).expect("batched duel runs")
    });
    let ns_per_trial = |t: &Timing| t.min_ms * 1e6 / duel_trials as f64;
    let speedup = t_ev.min_ms / t_inv.min_ms;
    let batched_speedup = t_inv.min_ms / t_batched.min_ms;
    let sampler_json = format!(
        "  \"sampler_duel\": {{\"workload\": \"busy_idle_1_999\", \"avf\": 0.001, \
         \"trials\": {duel_trials}, \"event_loop_min_ms\": {:.4}, \"inversion_min_ms\": {:.4}, \
         \"batched_inversion_min_ms\": {:.4}, \
         \"event_loop_events_per_trial\": {:.2}, \"inversion_events_per_trial\": {:.2}, \
         \"batched_inversion_events_per_trial\": {:.2}, \
         \"event_loop_ns_per_trial\": {:.1}, \"inversion_ns_per_trial\": {:.1}, \
         \"batched_inversion_ns_per_trial\": {:.1}, \
         \"speedup\": {speedup:.1}, \"batched_speedup_vs_inversion\": {batched_speedup:.1}}},",
        t_ev.min_ms,
        t_inv.min_ms,
        t_batched.min_ms,
        ev_est.mean_events_per_trial,
        inv_est.mean_events_per_trial,
        batched_est.mean_events_per_trial,
        ns_per_trial(&t_ev),
        ns_per_trial(&t_inv),
        ns_per_trial(&t_batched),
    );
    println!(
        "sampler duel: event-loop {:.3} ms ({:.1} events/trial) vs inversion {:.3} ms \
         ({:.1} events/trial) vs batched {:.3} ms ({:.1} events/trial) -> \
         {speedup:.1}x scalar, {batched_speedup:.1}x batched-over-scalar",
        t_ev.min_ms,
        ev_est.mean_events_per_trial,
        t_inv.min_ms,
        inv_est.mean_events_per_trial,
        t_batched.min_ms,
        batched_est.mean_events_per_trial
    );
    assert!(
        speedup >= 10.0,
        "inversion sampler must be >=10x faster than the event loop on the low-AVF duel, \
         measured {speedup:.1}x"
    );
    assert!(
        batched_speedup >= 5.0,
        "batched inversion must be >=5x faster than the scalar sampler on the low-AVF duel, \
         measured {batched_speedup:.1}x"
    );
    timings.push(t_ev);
    timings.push(t_inv);
    timings.push(t_batched);

    // Observed re-run of the day-like case: per-stage wall time and the
    // per-chunk convergence trajectory fold into the JSON, so the perf
    // trajectory also records *where* the time goes and how fast the
    // estimator tightens.
    let (obs, sink) = Obs::memory();
    let mc_observed =
        MonteCarlo::new(MonteCarloConfig { trials: 10_000, threads: 1, ..Default::default() })
            .with_observer(obs.clone());
    mc_observed.component_mttf(&day_like, rate, freq).expect("observed MC case runs");
    let snap = obs.metrics().snapshot();
    let stage_entries: Vec<String> = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("stage."))
        .map(|(name, h)| {
            format!(
                "    {{\"stage\": \"{name}\", \"count\": {}, \"total_ms\": {:.4}}}",
                h.count(),
                h.sum()
            )
        })
        .collect();
    let stages_json = format!("  \"stages\": [\n{}\n  ],", stage_entries.join(",\n"));
    let convergence_entries: Vec<String> = sink
        .events_of("mc.chunk")
        .iter()
        .map(|e| {
            format!(
                "    {{\"chunk\": {}, \"n\": {}, \"mean_s\": {:.6e}, \"ci95_s\": {:.6e}}}",
                e.seq,
                field_f64(e, "n") as u64,
                field_f64(e, "mean_s"),
                field_f64(e, "ci95_s")
            )
        })
        .collect();
    assert!(
        !convergence_entries.is_empty(),
        "observed MC run must emit at least one convergence snapshot"
    );
    let convergence_json =
        format!("  \"mc_convergence\": [\n{}\n  ],", convergence_entries.join(",\n"));

    // One figure sweep: three Figure 5 design points on the day workload,
    // exercising the parallel fan-out in serr-core.
    let sweep_cfg = ExperimentConfig {
        mc: MonteCarloConfig { trials: 10_000, ..Default::default() },
        ..ExperimentConfig::quick()
    };
    timings.push(time("sweep/fig5_day_3_points", 5, || {
        fig5(&[Workload::Day], &[1e7, 1e10, 1e13], &sweep_cfg).expect("fig5 sweep runs")
    }));

    // Checkpoint/resume probe: the same sweep run Fresh (computes and
    // journals every point) then Resume (must restore all of them without
    // recomputation). The counts land in the JSON so a perf-tracking diff
    // also notices if resume silently stops resuming.
    let ck_dir =
        format!("{}/../../target/serr-checkpoints/bench-smoke", env!("CARGO_MANIFEST_DIR"));
    let points = [1e7, 1e10, 1e13];
    let fresh =
        fig5_sweep(&[Workload::Day], &points, &sweep_cfg, &SweepOptions::fresh().in_dir(&ck_dir))
            .expect("fresh checkpointed sweep runs");
    let resumed =
        fig5_sweep(&[Workload::Day], &points, &sweep_cfg, &SweepOptions::resume().in_dir(&ck_dir))
            .expect("resumed checkpointed sweep runs");
    let checkpoint_json = format!(
        "  \"checkpoint\": {{\"sweep\": \"fig5_day_3_points\", \"fresh_computed\": {}, \
         \"resume_restored\": {}, \"resume_recomputed\": {}}},",
        fresh.computed, resumed.resumed, resumed.computed
    );
    println!(
        "checkpoint probe: fresh computed {}, resume restored {} / recomputed {}",
        fresh.computed, resumed.resumed, resumed.computed
    );

    // Chaos smoke campaign: a small fixed fault-injection run whose
    // detect/degrade/miss counts land in the JSON, so a perf-tracking diff
    // also notices if the detect-or-degrade guarantee regresses.
    let chaos_cfg =
        ChaosConfig { campaigns: 20, seed: 0xBE5C, trials: 2_000, ..Default::default() };
    let chaos = run_chaos(&chaos_cfg).expect("chaos smoke campaign runs");
    let chaos_json = format!(
        "  \"chaos\": {{\"campaigns\": {}, \"clean\": {}, \"retried\": {}, \"degraded\": {}, \
         \"suspect\": {}, \"misses\": {}}},",
        chaos.outcomes.len(),
        chaos.count(Provenance::Clean),
        chaos.count(Provenance::Retried),
        chaos.count(Provenance::Degraded),
        chaos.count(Provenance::Suspect),
        chaos.misses()
    );
    println!(
        "chaos probe: {} campaigns -> {} clean, {} retried, {} degraded, {} suspect, {} misses",
        chaos.outcomes.len(),
        chaos.count(Provenance::Clean),
        chaos.count(Provenance::Retried),
        chaos.count(Provenance::Degraded),
        chaos.count(Provenance::Suspect),
        chaos.misses()
    );
    assert!(chaos.is_sound(), "chaos smoke campaign produced a silently wrong result");

    // Service probe (schema v7): the `serr serve` daemon exercised
    // in-process over unix sockets, three short campaigns. (a) Pipelined
    // unique requests against a healthy server measure sustained JSONL
    // throughput. (b) A worker-starved server (zero estimate slots,
    // depth-1 queues) must shed every request — through admission control
    // or the shutdown drain — never hang or drop one. (c) A chaos
    // campaign under injected worker panics must restart one estimate
    // slot per panic. The counts land in the JSON so a perf-tracking diff
    // also notices if service throughput, the backpressure contract, or
    // the supervision loop regresses.
    let serve_dir = std::env::temp_dir().join("serr-bench-smoke-serve");
    let _ = std::fs::remove_dir_all(&serve_dir);
    std::fs::create_dir_all(&serve_dir).expect("create service probe dir");

    let (serve_obs, _serve_sink) = Obs::memory();
    let mut serve_cfg = ServeConfig::new(Bind::Unix(serve_dir.join("throughput.sock")));
    serve_cfg.obs = serve_obs;
    serve_cfg.mc_threads = 1;
    let server = Server::start(serve_cfg).expect("throughput server starts");
    let mut client = Client::connect(server.bind_addr()).expect("connect throughput server");
    let serve_n = 32u64;
    let t0 = Instant::now();
    for i in 0..serve_n {
        client.send_line(&serve_request(i, 2_000).to_line()).expect("pipeline request");
    }
    for _ in 0..serve_n {
        let line = client.recv_line().expect("recv").expect("pipelined response line");
        let resp = Response::parse(&line).expect("response parses");
        assert_eq!(resp.state(), "result", "clean service request must terminate as `result`");
    }
    let throughput_rps = serve_n as f64 / t0.elapsed().as_secs_f64();
    shut_down_service(&mut client, server);

    let mut shed_cfg = ServeConfig::new(Bind::Unix(serve_dir.join("shed.sock")));
    shed_cfg.compile_workers = 1;
    shed_cfg.estimate_workers = 0;
    shed_cfg.queue_depth = 1;
    shed_cfg.journal_dir = Some(serve_dir.join("shed-journal"));
    shed_cfg.mc_threads = 1;
    let server = Server::start(shed_cfg).expect("shed server starts");
    let mut client = Client::connect(server.bind_addr()).expect("connect shed server");
    let shed_n = 6u64;
    for i in 0..shed_n {
        client.send_line(&serve_request(100 + i, 2_000).to_line()).expect("pipeline request");
    }
    client
        .send_line(
            &Request { id: 0, deadline_ms: None, tag: None, body: RequestBody::Shutdown }.to_line(),
        )
        .expect("send shutdown");
    let mut shed = 0u64;
    let mut acked = false;
    while let Some(line) = client.recv_line().expect("recv") {
        match Response::parse(&line).expect("response parses") {
            Response::Shed { .. } => shed += 1,
            Response::ShutdownAck { .. } => acked = true,
            other => panic!("worker-starved server produced {other:?}"),
        }
        if acked && shed == shed_n {
            break;
        }
    }
    assert!(acked, "shed server never acknowledged shutdown");
    assert_eq!(shed, shed_n, "a worker-starved depth-1 server must shed every request");
    server.wait();

    // The injected panics below are supervised crashes, not bugs: silence
    // the default hook for the daemon's own worker threads only, so a
    // genuine assertion failure in this binary still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let in_service_worker =
            std::thread::current().name().is_some_and(|n| n.starts_with("serr-serve"));
        if !in_service_worker {
            default_hook(info);
        }
    }));
    let (panic_obs, _panic_sink) = Obs::memory();
    let mut panic_cfg = ServeConfig::new(Bind::Unix(serve_dir.join("panic.sock")));
    panic_cfg.chaos = Some(FaultPlan::new(0xB0B, FaultKind::ServeWorkerPanic));
    panic_cfg.obs = panic_obs;
    panic_cfg.mc_threads = 1;
    let server = Server::start(panic_cfg).expect("panic server starts");
    let mut client = Client::connect(server.bind_addr()).expect("connect panic server");
    let panic_n = 16u64;
    for i in 0..panic_n {
        let resp = client
            .roundtrip(&serve_request(200 + i, 1_000))
            .expect("request io")
            .expect("response under panic chaos");
        assert!(
            matches!(resp.state(), "result" | "error"),
            "panic-chaos request terminated as {}",
            resp.state()
        );
    }
    let injected_panics = serve_counter(&serve_stats(&mut client), "serve.injected_panics");
    assert!(injected_panics >= 1, "seeded plan must panic at least one of {panic_n} workers");
    // The worker answers its request before dying, so the final restart
    // may still be in flight: poll until the supervisor catches up.
    let catch_up = Instant::now() + Duration::from_secs(60);
    let worker_restarts = loop {
        let restarts = serve_counter(&serve_stats(&mut client), "serve.worker_restarts");
        if restarts >= injected_panics {
            break restarts;
        }
        assert!(
            Instant::now() < catch_up,
            "supervisor stuck at {restarts} restarts for {injected_panics} injected panics"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    shut_down_service(&mut client, server);
    let _ = std::fs::remove_dir_all(&serve_dir);

    let service_json = format!(
        "  \"service\": {{\"requests\": {}, \"throughput_rps\": {throughput_rps:.1}, \
         \"shed\": {shed}, \"worker_restarts\": {worker_restarts}, \
         \"injected_panics\": {injected_panics}}},",
        serve_n + shed_n + panic_n
    );
    println!(
        "service probe: {serve_n} pipelined requests at {throughput_rps:.1} rps, \
         {shed} shed on the starved server, {worker_restarts} worker restarts \
         for {injected_panics} injected panics"
    );

    // Storage probe (schema v8): the durable-store layer measured against
    // the format it replaced. (a) A dense checkpoint journal — 2,000 rows,
    // each carrying a 64-sample trace vector, the shape the figure sweeps
    // write — is resumed from the CRC-paged binary store and, for
    // comparison, parsed from the legacy JSONL spelling of the same rows;
    // the run aborts if the binary resume is not at least 5x faster,
    // because that advantage is the reason the binary format exists.
    // (b) One trace-cache entry loaded through the default mmap path and
    // through an ordinary buffered read, so the zero-copy claim stays
    // measured.
    let storage_dir = std::env::temp_dir().join("serr-bench-smoke-storage");
    let _ = std::fs::remove_dir_all(&storage_dir);
    std::fs::create_dir_all(&storage_dir).expect("create storage probe dir");
    let journal_rows = 2_000usize;
    let dense_row = |i: usize| -> Json {
        let trace: Vec<Json> =
            (0..64).map(|k| Json::Num(((i * 64 + k) as f64).sqrt() * 0.013 + 0.2)).collect();
        Json::Obj(vec![
            ("i".to_owned(), Json::Num(i as f64)),
            ("trace".to_owned(), Json::Arr(trace)),
        ])
    };
    let storage_fp = fingerprint(&["bench-smoke", "storage"]);
    {
        let journal = Journal::open(&storage_dir, "bench-storage", storage_fp, true)
            .expect("storage probe journal opens");
        for i in 0..journal_rows {
            journal.record(i, &dense_row(i)).expect("storage probe row records");
        }
    }
    // The legacy line format the binary journal replaced, verbatim:
    // `{"i":N,"ck":"<fnv hex>","row":<json>}` with the checksum over the
    // decimal index and the row's canonical JSON.
    let legacy_text: String = (0..journal_rows)
        .map(|i| {
            let row = dense_row(i).to_json();
            let ck = fingerprint(&[&i.to_string(), &row]);
            format!("{{\"i\":{i},\"ck\":\"{ck:016x}\",\"row\":{row}}}\n")
        })
        .collect();
    let t_binary = time("storage/binary_journal_resume_2k_rows", 5, || {
        let journal = Journal::open(&storage_dir, "bench-storage", storage_fp, false)
            .expect("binary resume opens");
        assert_eq!(journal.completed().len(), journal_rows);
    });
    let t_jsonl = time("storage/jsonl_journal_parse_2k_rows", 5, || {
        // What every resume paid before the binary store: parse each line,
        // re-serialize the row to verify its checksum, and collect the
        // completed-point map.
        let mut rows = std::collections::BTreeMap::new();
        for line in legacy_text.lines() {
            let mut v = Json::parse(line).expect("legacy line parses");
            let i = v.get("i").and_then(Json::as_u64).expect("index field") as usize;
            let row = v.get("row").expect("row field");
            let ck = v.get("ck").and_then(Json::as_str).expect("checksum field");
            let expect = format!("{:016x}", fingerprint(&[&i.to_string(), &row.to_json()]));
            assert_eq!(ck, expect, "legacy checksum holds");
            if let Json::Obj(fields) = &mut v {
                if let Some(pos) = fields.iter().position(|(k, _)| k == "row") {
                    rows.insert(i, fields.swap_remove(pos).1);
                }
            }
        }
        assert_eq!(rows.len(), journal_rows);
    });
    let binary_resume_speedup = t_jsonl.min_ms / t_binary.min_ms;
    println!(
        "storage probe: {journal_rows}-row dense journal resumes in {:.3} ms binary vs \
         {:.3} ms JSONL -> {binary_resume_speedup:.1}x",
        t_binary.min_ms, t_jsonl.min_ms
    );
    assert!(
        binary_resume_speedup >= 5.0,
        "binary journal resume must be >=5x faster than the JSONL parse it replaced on the \
         dense-trace workload, measured {binary_resume_speedup:.1}x"
    );

    let cache_entry = storage_dir.join("cache-probe.store");
    let sim = simulate_benchmark("gzip", 100_000, 7).expect("cache probe simulation runs");
    write_cache_entry(&cache_entry, &sim.output).expect("cache probe entry writes");
    let t_cache_mmap = time("storage/cache_load_mmap", 25, || {
        load_cache_entry_mmap(&cache_entry).expect("mmap cache load decodes")
    });
    let t_cache_read = time("storage/cache_load_read", 25, || {
        load_cache_entry_read(&cache_entry).expect("buffered cache load decodes")
    });
    println!(
        "storage probe: cache entry loads in {:.3} ms mmap vs {:.3} ms read",
        t_cache_mmap.min_ms, t_cache_read.min_ms
    );
    let storage_json = format!(
        "  \"storage\": {{\"journal_rows\": {journal_rows}, \
         \"jsonl_resume_ms\": {:.4}, \"binary_resume_ms\": {:.4}, \
         \"binary_resume_speedup\": {binary_resume_speedup:.1}, \
         \"cache_load_mmap_ms\": {:.4}, \"cache_load_read_ms\": {:.4}}},",
        t_jsonl.min_ms, t_binary.min_ms, t_cache_mmap.min_ms, t_cache_read.min_ms
    );
    let _ = std::fs::remove_dir_all(&storage_dir);
    timings.push(t_binary);
    timings.push(t_jsonl);
    timings.push(t_cache_mmap);
    timings.push(t_cache_read);

    // Protection-model probe (schema v9): the AVF-step-vs-MC comparison on
    // the day workload under each transform in the --protect algebra.
    // SEC-DED is a pointwise no-op on the binary day trace (every cycle is
    // fully vulnerable or not at all — there is no second-bit word state to
    // save), so its row must be bit-identical to the unprotected one;
    // scrubbing and delayed reporting are strictly protective, so their
    // MTTFs must not fall below baseline. The rows land in the JSON so the
    // perf trajectory also records how far the two-step method drifts from
    // ground truth once a protection transform reshapes the trace.
    let model_cfg = serr_core::experiments::ExperimentConfig {
        mc: MonteCarloConfig { trials: 20_000, threads: 1, ..Default::default() },
        ..serr_core::experiments::ExperimentConfig::quick()
    };
    let day_trace = WorkloadSpec::Day.trace(&model_cfg).expect("day workload trace builds");
    let model_ns = 1.0e8;
    let model_rate =
        RawErrorRate::per_year(model_ns * serr_types::BASELINE_RAW_RATE_PER_BIT_PER_YEAR);
    let model_validator = Validator::new(model_cfg.frequency, model_cfg.mc.clone());
    let model_specs = ["none", "ecc:64", "scrub:1e11", "delay:1e13"];
    let mut model_rows = Vec::new();
    let mut model_results = Vec::new();
    for spec in model_specs {
        let protect = ProtectionSpec::parse(spec).expect("model protection spec parses");
        let protected = protect.apply(day_trace.clone()).expect("model protection applies");
        let r = model_validator.component(&protected, model_rate).expect("model validation runs");
        model_rows.push(format!(
            "    {{\"protect\": \"{spec}\", \"avf\": {:.6}, \"mttf_avf_s\": {:.6e}, \
             \"mttf_mc_s\": {:.6e}, \"avf_err_vs_mc_pct\": {:.3}}}",
            r.avf,
            r.mttf_avf.as_secs(),
            r.mttf_mc.mttf.as_secs(),
            r.avf_error_vs_mc * 100.0
        ));
        println!(
            "models probe: day + {spec:<11} avf {:.4}, mttf(avf) {:.3e} s, mttf(mc) {:.3e} s",
            r.avf,
            r.mttf_avf.as_secs(),
            r.mttf_mc.mttf.as_secs()
        );
        model_results.push((spec, r));
    }
    let baseline = &model_results[0].1;
    let ecc = &model_results[1].1;
    assert!(
        ecc.avf.to_bits() == baseline.avf.to_bits()
            && ecc.mttf_mc.mttf.as_secs().to_bits() == baseline.mttf_mc.mttf.as_secs().to_bits(),
        "SEC-DED must be bit-identical to no protection on the binary day trace"
    );
    for (spec, r) in &model_results[2..] {
        assert!(
            r.mttf_mc.mttf.as_secs() >= baseline.mttf_mc.mttf.as_secs(),
            "{spec} must not report a worse MTTF than the unprotected baseline"
        );
    }

    // Transform-overhead gate: the no-protection path through the pipeline
    // (the default for every mttf/sofr run) must stay an Arc pass-through —
    // if it ever starts copying or re-deriving the trace, compilation cost
    // is the first place it shows. The two sides run interleaved, so both
    // minima come from the same host state. Real transform application cost
    // is recorded informationally alongside.
    let fine_arc: std::sync::Arc<dyn VulnerabilityTrace> = std::sync::Arc::new(fine.clone());
    let no_protection = ProtectionSpec::none();
    // Both closures compile through the same `Arc<dyn ...>` the CLI hands
    // the estimators, so the ratio isolates the pipeline's own cost rather
    // than dynamic-vs-static dispatch inside compilation.
    let (t_compile_raw, t_compile_identity) = time_interleaved(
        ["transform/compile_raw_10k_segments", "transform/identity_pipeline_compile_10k_segments"],
        100,
        || CompiledTrace::compile(&fine_arc).expect("fine trace compiles"),
        || {
            let t = no_protection.apply(fine_arc.clone()).expect("identity pipeline applies");
            CompiledTrace::compile(&t).expect("fine trace compiles through identity")
        },
    );
    let scrub_ecc = ProtectionSpec::parse("scrub:100,ecc:64").expect("probe pipeline parses");
    let t_apply = time("transform/scrub_ecc_apply_10k_segments", 25, || {
        scrub_ecc.apply(fine_arc.clone()).expect("scrub+ecc applies to the fine trace")
    });
    let transform_overhead = t_compile_identity.min_ms / t_compile_raw.min_ms - 1.0;
    println!(
        "transform probe: raw compile {:.4} ms vs identity-pipeline compile {:.4} ms \
         ({:+.1}%), scrub+ecc apply {:.4} ms",
        t_compile_raw.min_ms,
        t_compile_identity.min_ms,
        transform_overhead * 100.0,
        t_apply.min_ms
    );
    assert!(
        transform_overhead <= 0.05,
        "the no-protection transform path must add <=5% to trace compilation, \
         measured {:+.1}%",
        transform_overhead * 100.0
    );
    let models_json = format!(
        "  \"models\": {{\"workload\": \"day\", \"n_s\": {model_ns:e}, \"trials\": 20000, \
         \"protections\": [\n{}\n  ], \"transform_overhead\": {{\
         \"raw_compile_min_ms\": {:.4}, \"identity_pipeline_compile_min_ms\": {:.4}, \
         \"overhead_frac\": {transform_overhead:.4}, \"scrub_ecc_apply_min_ms\": {:.4}}}}},",
        model_rows.join(",\n"),
        t_compile_raw.min_ms,
        t_compile_identity.min_ms,
        t_apply.min_ms
    );
    timings.push(t_compile_raw);
    timings.push(t_compile_identity);
    timings.push(t_apply);

    // Sweep-kernel duel (schema v10): a 32-point Figure-5-style rate fan
    // over the fine-grained 10k-segment workload trace, estimated two ways
    // with the same seed and sampler — a loop of independent per-point
    // `component_mttf` runs (the pre-kernel sweep path, which re-compiled
    // the trace and regenerated every RNG/log plane for each point) versus
    // one `component_mttf_multi` call that compiles the trace once and
    // pays each chunk's RNG words, uniforms, and vectorized log pass once
    // for all 32 λ values; only the λ-dependent finish (mass scale, tiered
    // log, inverse lookup, statistics fold) stays per point. Common random
    // numbers make the comparison exact, not statistical: before timing,
    // every kernel point is asserted bit-identical to its independent run
    // at 1 *and* 8 threads, so the measured speedup buys literally the
    // same bits. The run aborts if the kernel's amortization advantage
    // ever drops below 3x.
    let kernel_points = 32usize;
    let kernel_trials = 2_000u64;
    let kernel_rates: Vec<RawErrorRate> = (0..kernel_points)
        .map(|i| RawErrorRate::per_year(50.0 * 1.25f64.powi(i32::try_from(i).expect("small"))))
        .collect();
    for threads in [1usize, 8] {
        let mc_t = MonteCarlo::new(MonteCarloConfig {
            trials: kernel_trials,
            threads,
            sampler: SamplerKind::BatchedInversion,
            ..Default::default()
        });
        let multi =
            mc_t.component_mttf_multi(&fine, &kernel_rates, freq).expect("sweep kernel duel runs");
        for (i, (point, &r)) in multi.iter().zip(&kernel_rates).enumerate() {
            let point = point.as_ref().expect("kernel point succeeds");
            let solo = mc_t.component_mttf(&fine, r, freq).expect("independent point runs");
            assert!(
                point.mttf.as_secs().to_bits() == solo.mttf.as_secs().to_bits()
                    && point.ttf_seconds.ci95.to_bits() == solo.ttf_seconds.ci95.to_bits(),
                "sweep kernel point {i} must be bit-identical to its independent run \
                 at {threads} threads"
            );
        }
    }
    let mc_kernel = MonteCarlo::new(MonteCarloConfig {
        trials: kernel_trials,
        threads: 1,
        sampler: SamplerKind::BatchedInversion,
        ..Default::default()
    });
    let t_sweep_per_point = time("sweep_kernel/per_point_32x2k_trials", 5, || {
        for &r in &kernel_rates {
            mc_kernel.component_mttf(&fine, r, freq).expect("per-point sweep runs");
        }
    });
    let t_sweep_kernel = time("sweep_kernel/shared_stream_32x2k_trials", 5, || {
        mc_kernel.component_mttf_multi(&fine, &kernel_rates, freq).expect("kernel sweep runs")
    });
    let kernel_speedup = t_sweep_per_point.min_ms / t_sweep_kernel.min_ms;
    let trial_points = kernel_points as f64 * kernel_trials as f64;
    println!(
        "sweep-kernel duel: {kernel_points} points x {kernel_trials} trials, per-point \
         {:.3} ms ({:.1} ns/trial-point) vs shared-stream {:.3} ms ({:.1} ns/trial-point) \
         -> {kernel_speedup:.1}x, bit-identical at 1 and 8 threads",
        t_sweep_per_point.min_ms,
        t_sweep_per_point.min_ms * 1e6 / trial_points,
        t_sweep_kernel.min_ms,
        t_sweep_kernel.min_ms * 1e6 / trial_points
    );
    assert!(
        kernel_speedup >= 3.0,
        "the shared-stream sweep kernel must be >=3x faster than independent per-point runs \
         on the 32-point duel, measured {kernel_speedup:.1}x"
    );
    let sweep_kernel_json = format!(
        "  \"sweep_kernel\": {{\"points\": {kernel_points}, \"trials\": {kernel_trials}, \
         \"per_point_min_ms\": {:.4}, \"kernel_min_ms\": {:.4}, \
         \"per_point_ns_per_trial_point\": {:.1}, \"kernel_ns_per_trial_point\": {:.1}, \
         \"speedup\": {kernel_speedup:.1}, \"bit_identical_threads\": [1, 8]}},",
        t_sweep_per_point.min_ms,
        t_sweep_kernel.min_ms,
        t_sweep_per_point.min_ms * 1e6 / trial_points,
        t_sweep_kernel.min_ms * 1e6 / trial_points
    );
    timings.push(t_sweep_per_point);
    timings.push(t_sweep_kernel);

    // Simulator row (schema v11): `Simulator::run` alone over a
    // pre-generated instruction stream, for dispatch-bound gzip and
    // stall-heavy mcf at the CLI's 300k instructions. Simulated cycles are
    // a property of the model and must not move with a speed-up; Minst/s
    // and host ns per simulated cycle are the layer's speed. Informational
    // only: no trajectory exists yet to calibrate a gate on.
    let sim_instructions = 300_000u64;
    let mut sim_rows = Vec::new();
    for (program, name) in [("gzip", "sim/gzip_300k"), ("mcf", "sim/mcf_300k")] {
        let profile = BenchmarkProfile::by_name(program).expect("known benchmark");
        let stream: Vec<Instruction> = TraceGenerator::new(profile, 7)
            .take(usize::try_from(sim_instructions).expect("fits usize"))
            .collect();
        let simulator = Simulator::new(SimConfig::power4());
        let run = || simulator.run(stream.iter().copied(), sim_instructions).expect("simulates");
        let cycles = run().stats.cycles;
        let t = time(name, 3, run);
        let minst_per_s = sim_instructions as f64 / (t.min_ms * 1e3);
        let ns_per_cycle = t.min_ms * 1e6 / cycles as f64;
        println!(
            "simulator: {program} {sim_instructions} instructions, {cycles} cycles in \
             {:.1} ms -> {minst_per_s:.2} Minst/s, {ns_per_cycle:.1} host ns/cycle",
            t.min_ms
        );
        sim_rows.push(format!(
            "    {{\"program\": \"{program}\", \"cycles\": {cycles}, \"min_ms\": {:.3}, \
             \"minst_per_s\": {minst_per_s:.3}, \"ns_per_cycle\": {ns_per_cycle:.1}}}",
            t.min_ms
        ));
        timings.push(t);
    }
    let simulator_json = format!(
        "  \"simulator\": {{\"instructions\": {sim_instructions}, \"seed\": 7, \"programs\": [\n{}\n  ]}},",
        sim_rows.join(",\n")
    );

    let entries: Vec<String> = timings
        .iter()
        .map(|t| {
            format!(
                "    {{\"name\": \"{}\", \"iterations\": {}, \"mean_ms\": {:.4}, \"min_ms\": {:.4}}}",
                t.name, t.iterations, t.mean_ms, t.min_ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": 11,\n  \"suite\": \"engines-smoke\",\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n  \"timings\": [\n{}\n  ]\n}}\n",
        sampler_json,
        sweep_kernel_json,
        simulator_json,
        checkpoint_json,
        chaos_json,
        service_json,
        storage_json,
        models_json,
        stages_json,
        convergence_json,
        entries.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark JSON");

    for t in &timings {
        println!(
            "{:<45} mean {:>10.3} ms   min {:>10.3} ms   ({} iters)",
            t.name, t.mean_ms, t.min_ms, t.iterations
        );
    }
    println!("\nwrote {out_path}");
}
