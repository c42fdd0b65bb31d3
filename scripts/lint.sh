#!/usr/bin/env bash
# Static gate: formatting + clippy + rustdoc, all with warnings denied.
#
#   scripts/lint.sh          # check formatting, lints and docs
#   scripts/lint.sh --fix    # apply rustfmt, then re-check lints and docs
#
# Also invoked by scripts/perf_smoke.sh --check, so a perf gate run cannot
# pass on a tree that fails the static checks.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--fix" ]]; then
  cargo fmt
else
  cargo fmt --check
fi

cargo clippy -q --all-targets -- -D warnings

# Portability gate: the whole workspace must build and pass tests with the
# SIMD shim's portable scalar fallback (the non-x86 / miri configuration),
# so a lane-semantics divergence between the SSE and fallback backends
# cannot land silently.
cargo clippy -q --all-targets --features surfos-em/scalar-fallback -- -D warnings
cargo test -q --workspace --features surfos-em/scalar-fallback

# Backend-equivalence gate: the runtime-dispatched kernels (scalar
# reference, sse2 pair-of-x4, native avx2 where the host has avx2+fma)
# must all return bit-identical geometry and channel results. Each arm
# forces one backend via SURFOS_SIMD and re-runs the em lane-semantics
# suite plus the geometry/channel equivalence proptests under it. (The
# avx2 arm is skipped, not failed, on hosts without it — SURFOS_SIMD=avx2
# deliberately falls back when not runnable, which would silently retest
# the detected backend.)
simd_arms=(scalar sse2)
if grep -qw avx2 /proc/cpuinfo 2>/dev/null && grep -qw fma /proc/cpuinfo 2>/dev/null; then
  simd_arms+=(avx2)
fi
for arm in "${simd_arms[@]}"; do
  SURFOS_SIMD="$arm" cargo test -q -p surfos-em -p surfos-geometry -p surfos-channel
done

# Determinism gate: the deterministic metrics projection must be
# byte-identical across identical runs with nothing else in the process,
# so a pass that depends on a sibling test having run first cannot hide.
cargo test -q -p surfos --test observability -- --exact identical_runs_yield_identical_deterministic_metrics

# Pool gate: the fan-out pool's robustness tests (a chunk panic on the
# caller and on a worker reaches the caller, the pool keeps fanning out
# afterwards, concurrent callers get serial bits, nested fan-out completes)
# with SURFOS_THREADS=3, so the pool has at least two workers on any host.
SURFOS_THREADS=3 cargo test -q -p surfos-channel --lib par::tests

# Serial-objective gate: the orchestrator's objectives (the joint
# MultiObjective, localization's probe fan-out) and the AoA loss they build
# on, with the pool forced serial, so the one-worker path is checked beside
# the default pooled run.
SURFOS_THREADS=1 cargo test -q -p surfos-orchestrator -p surfos-sensing

# Fused-step gate: every objective's one-pass loss + gradient, and Adam on
# it, against the two-pass reference, bit for bit, with SURFOS_THREADS=3 —
# more gradient chunks than threads, claimed in several orders.
SURFOS_THREADS=3 cargo test -q -p surfos-orchestrator --lib fused_

# Daemon wake gate: the wire tests and the idle-CPU test with one session
# worker (every handoff wakes the same parked worker) and with three (the
# acceptor's round robin across several wake descriptors).
for threads in 1 3; do
  SURFOS_THREADS="$threads" cargo test -q -p surfos --test service_plane --test daemon_idle
done

# Heartbeat memo gate: the orchestrator's slot memo (a hit is bit-identical
# to a re-run, on one slot and on two; each key input misses on its own),
# a kernel heartbeat that hits still configures its slot, and the campus
# coordinator's crowd rule (walker-free shards keep their blocker epoch and
# hit the memo, bit-identically to forcing a reset every tick) — with the
# pool serial and with several workers.
for threads in 1 3; do
  SURFOS_THREADS="$threads" cargo test -q -p surfos-orchestrator --lib memo_
  SURFOS_THREADS="$threads" cargo test -q -p surfos --lib memo_
done

# Shard-equivalence gate: the sharded kernel must stay bit-identical to a
# flat single-scene evaluation even with the worker pool forced serial, so
# a result that silently depends on thread count cannot land.
SURFOS_THREADS=1 cargo test -q -p surfos-bench --test shard_equivalence

# Benchmark-build gate: e2ebench is a package of its own outside the
# workspace, so a library API change that breaks it would pass every step
# above. --locked also fails any dependency edit that would rewrite
# e2ebench/Cargo.lock.
cargo test -q --offline --locked --manifest-path e2ebench/Cargo.toml

# Flight-recorder gate: a real `surfosd --trace` run over the demo script
# must produce a valid Chrome Trace Event document — balanced B/E pairs
# and monotonic timestamps on every track. The checker lives in
# crates/bench/tests/trace_valid.rs and reads the file via env var.
trace_tmp="$(mktemp)"
trap 'rm -f "$trace_tmp"' EXIT
cargo run -q --release -p surfos --bin surfosd -- --trace "$trace_tmp" examples/demo.surfos > /dev/null
SURFOS_TRACE_CHECK="$trace_tmp" \
  cargo test -q --release -p surfos-bench --test trace_valid trace_file_from_env

# Service-plane gate: boot a real `surfosd serve` on an ephemeral loopback
# port and a unix socket, drive it with a surfos-loadgen burst whose
# connections alternate between the two (so both arms of the shared framed
# connection run under load), then ask it to quit over stdin and require a
# clean shutdown plus a metrics snapshot carrying the rpc.* series
# (validated by crates/bench/tests/metrics_valid.rs, which reads the file
# via env var).
metrics_tmp="$(mktemp)"
serve_log="$(mktemp)"
serve_ctl="$(mktemp -d)"
trap 'rm -f "$trace_tmp" "$metrics_tmp" "$serve_log"; rm -rf "$serve_ctl"' EXIT
mkfifo "$serve_ctl/ctl"
cargo build -q --release -p surfos -p surfos-bench --bin surfosd --bin surfos-loadgen
target/release/surfosd serve --listen 127.0.0.1:0 --unix "$serve_ctl/surfosd.sock" \
  --metrics-json "$metrics_tmp" < "$serve_ctl/ctl" > "$serve_log" &
serve_pid=$!
exec 9> "$serve_ctl/ctl" # hold the control pipe open until we say quit
port=""
for _ in $(seq 100); do
  port="$(sed -n 's/^surfosd: listening on 127.0.0.1:\([0-9][0-9]*\)$/\1/p' "$serve_log")"
  [[ -n "$port" ]] && break
  sleep 0.1
done
[[ -n "$port" ]] || { echo "surfosd serve never reported its port" >&2; kill "$serve_pid"; exit 1; }
target/release/surfos-loadgen --connect "127.0.0.1:$port" --unix "$serve_ctl/surfosd.sock" \
  --conns 8 --requests 400 > /dev/null
echo quit >&9
exec 9>&-
wait "$serve_pid"
grep -q '^surfosd: stopped$' "$serve_log" || { echo "surfosd did not shut down cleanly" >&2; exit 1; }
SURFOS_METRICS_CHECK="$metrics_tmp" \
  cargo test -q --release -p surfos-bench --test metrics_valid metrics_file_from_env

# Doc gate: broken intra-doc links and missing docs (where a crate opts in
# via #![warn(missing_docs)]) fail the build, not just warn.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "lint: formatting, clippy (both simd configs), scalar-fallback tests, backend equivalence (${simd_arms[*]}), metrics determinism (alone), fan-out pool (3 threads), objectives (serial), fused step (3 threads), daemon wake (1 and 3 workers), heartbeat memo (1 and 3 threads), shard equivalence (serial), e2ebench build + tests, trace export, daemon smoke (serve on tcp + unix, loadgen on both, metrics) and rustdoc clean"
