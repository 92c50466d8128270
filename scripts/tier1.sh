#!/usr/bin/env bash
# Tier-1 gate: the whole workspace must build in release mode and every
# test must pass. Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# Whole-workspace gate: plain `cargo test` only runs the root package, and
# plain `cargo build` skips the serr-bench binaries. Every crate's suite
# runs here, and --no-fail-fast reports every failing crate, not just the
# first.
cargo test -q --workspace --no-fail-fast
cargo build --release -p serr-bench

# Storage gate: the durable-store suites by name — the CRC-paged container
# (serr-store) and the workspace-level durability acceptance (torn-write
# recovery, bit-identical at 1 and 8 worker threads). Both also ran in the
# workspace step above; running them addressed keeps a storage regression
# from hiding in a long test log.
cargo test -q -p serr-store
cargo test -q --test storage_durability

# Formatting gate: the committed rustfmt.toml is the single style arbiter;
# a diff that disagrees with it fails fast here rather than in review.
cargo fmt --check

# Fault-injection tests again in release mode with debug assertions armed:
# the injectors and the Monte Carlo chaos hooks carry debug_assert range
# checks (bit positions, corruption offsets, poison factors, chunk
# accounting) that plain --release would compile out and that the dev
# profile runs without release codegen. Scoped to the two injection-bearing
# crates so the gate stays fast.
RUSTFLAGS="-C debug-assertions" cargo test -q --release -p serr-inject -p serr-mc

# Chaos smoke campaign: a small fixed-seed fault-injection run across all
# fifteen estimator-level injector kinds (the four store-* faults against
# the binary journal, and trace-transform corruption of the protection
# pipeline's output) must uphold the detect-or-degrade invariant (the
# binary exits nonzero on any silently-wrong result).
cargo run --release -p serr-bench --bin chaos_campaign -- --campaigns 30 --seed 7 --trials 3000

# Perf smoke: writes target/bench-smoke.json (schema v12; the committed
# BENCH_engines.json trajectory is regenerated by running bench_smoke with
# no argument). The JSON carries a `storage` section — binary-vs-JSONL
# journal resume time and mmap-vs-read cache load time — a `models`
# section: the AVF+SOFR-vs-MC comparison under the ECC/scrub/delay
# protection transforms — a `sweep_kernel` section: the 32-point
# shared-stream duel — a `simulator` section: cycles, Minst/s and host ns
# per simulated cycle of `Simulator::run` on gzip and mcf at 300k
# instructions — and a `real_trace` section: segment count, batched-sampler
# ns/trial and lookup-only ns/trial on the gzip and mcf processor traces at
# 300k instructions (the last two informational, with no gate). It asserts
# five perf contracts — the Λ-inversion sampler stays >=10x faster than the
# event-loop walk, the batched inversion sampler stays >=5x faster than the
# scalar one, the binary journal resume stays >=5x faster than the JSONL
# parse it replaced on a dense-trace workload (min of 30 runs per side,
# in two separate blocks), the no-protection transform path
# adds <=5% to trace compilation (min of 100 compiles per side, the two
# sides interleaved so both see the same host state), and the shared-stream
# sweep kernel stays >=3x faster than independent per-point runs while
# staying bit-identical to them at 1 and 8 threads — the binary aborts if
# any contract regresses.
cargo run --release -p serr-bench --bin bench_smoke -- target/bench-smoke.json

# Protection smoke: every transform in the --protect algebra is AVF-
# monotone (protective), so a scrubbed run can never report a worse MTTF
# than the unprotected baseline. The AVF-step MTTF is deterministic (no
# Monte Carlo noise), so >= holds exactly; the awk filter normalizes the
# human-readable unit (s/days/years) before comparing.
mttf_avf_step_s() {
  awk '/MTTF, AVF step/ {
    v = $(NF-1) + 0.0; u = $NF
    if (u == "years") v *= 31536000; else if (u == "days") v *= 86400
    print v
  }'
}
BASE_MTTF=$(cargo run --release --bin serr -- \
  mttf --workload day --n-s 1e8 --trials 2000 | mttf_avf_step_s)
SCRUB_MTTF=$(cargo run --release --bin serr -- \
  mttf --workload day --n-s 1e8 --trials 2000 --protect scrub:1e11 | mttf_avf_step_s)
awk -v b="$BASE_MTTF" -v s="$SCRUB_MTTF" 'BEGIN {
  if (b <= 0.0 || s < b) {
    printf "protection smoke: scrubbed MTTF %s fell below baseline %s\n", s, b
    exit 1
  }
}'

# Observability smoke: a metrics-instrumented mttf run must produce
# parseable JSONL with per-stage timings and at least one Monte Carlo
# convergence snapshot, validated by the obs_check binary. SERR_THREADS=3
# exercises the telemetry path under the parallel fold (sequence keys are
# thread-count invariant by contract).
mkdir -p target
SERR_THREADS=3 cargo run --release --bin serr -- \
  mttf --workload day --n-s 1e8 --trials 20000 --metrics target/obs-smoke.jsonl
cargo run --release -p serr-bench --bin obs_check -- target/obs-smoke.jsonl

# Service smoke: bring up the `serr serve` daemon on a unix socket, drive
# it with `serr request` (mttf, sofr, sweep, stats), then shut it down
# gracefully. Every response is one JSONL line with a typed terminal
# state; the daemon must drain and exit zero on the shutdown request. The
# sweep request rides the shared-stream kernel server-side and must come
# back as one `result` line carrying every point.
SERVE_DIR="$(mktemp -d)"
SOCK="$SERVE_DIR/serr.sock"
cargo run --release --bin serr -- \
  serve --bind "unix:$SOCK" --journal-dir "$SERVE_DIR/journal" &
SERVE_PID=$!
for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
[[ -S "$SOCK" ]] || { echo "serve smoke: daemon never bound $SOCK" >&2; exit 1; }
REQ=(cargo run --release --bin serr -- request --connect "unix:$SOCK")
"${REQ[@]}" --cmd mttf -w duty:0.001:0.5 --rate 1e6 --trials 2000 \
  | grep -q '"state":"result"'
"${REQ[@]}" --cmd sofr -w duty:0.001:0.5 --rate 1e6 -c 100 --trials 2000 \
  | grep -q '"state":"result"'
"${REQ[@]}" --cmd sweep -w duty:0.001:0.5 --rates 1e6,2e6,4e6 --trials 2000 \
  | grep '"state":"result"' | grep -q '"points"'
"${REQ[@]}" --cmd stats | grep -q '"counters"'
"${REQ[@]}" --cmd shutdown | grep -q '"shutdown":true'
wait "$SERVE_PID"

# Store inspect smoke: the daemon just journaled its results into the
# CRC-paged binary store; `serr store inspect` must dump its header and
# page table and report an undamaged file. Capture the dump once instead of
# piping straight into `grep -q`: early-exit grep closes the pipe while serr
# is still printing the page table, which panics it with SIGPIPE once the
# store (now carrying sweep results too) outgrows the pipe buffer.
RESULTS_STORE=$(ls "$SERVE_DIR"/journal/serve-results-*.store)
INSPECT_OUT=$(cargo run --release --bin serr -- store inspect "$RESULTS_STORE")
printf '%s\n' "$INSPECT_OUT" >&2
grep -q 'checkpoint-journal' <<<"$INSPECT_OUT"
grep -q 'damage          : none' <<<"$INSPECT_OUT"
rm -rf "$SERVE_DIR"

# Robustness gate: no `.unwrap()` in library or binary code — a poisoned
# design point must surface as a typed error, never a panic path someone
# forgot about. Test code (#[cfg(test)] and tests/ targets) is
# exempt, which is exactly what the --lib --bins target selection gives us.
# `unwrap_used` is a restriction-group lint, so `-A clippy::all` silences
# the default lints without masking it. `.expect("reason")` stays allowed:
# it documents why the failure is impossible.
cargo clippy --workspace --lib --bins -- -A clippy::all -D clippy::unwrap_used \
  -D clippy::neg_cmp_op_on_partial_ord -D clippy::manual_clamp \
  -D clippy::manual_range_contains -D clippy::manual_is_multiple_of \
  -D clippy::needless_return -D clippy::write_with_newline

# Observability gate: library crates must not print to stderr/stdout with
# the print macros — diagnostics go through serr-obs typed events (the
# sanctioned StderrSink writes via io::stderr(), which the lint does not
# flag). Only the root CLI package is exempt (its lib hosts the command
# runner whose stdout IS the product); --lib keeps the bench/figure
# binaries out of scope automatically.
cargo clippy --workspace --exclude soft-error-analysis --lib -- \
  -A clippy::all -D clippy::print_stderr -D clippy::print_stdout
