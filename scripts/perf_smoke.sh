#!/usr/bin/env bash
# Perf smoke + regression gate.
#
# Runs the channel, dynamics, spatial, building, optimizer, campus, obs
# and rpc criterion benches and collects
# the per-benchmark medians into a machine-readable BENCH_channel.json at
# the repo root. With --check, fresh medians are then compared against the
# checked-in BENCH_baseline.json and the script exits non-zero when any
# benchmark regressed by more than the global tolerance (1.25 = 25 %).
# A full run (no --group) also fails on, and names, every baseline id the
# fresh run did not produce: a deleted or renamed bench must leave the
# baseline in the same change. BENCH_channel.json is generated output and
# not tracked.
#
# A baseline entry may carry an optional per-benchmark annotation
# `"tolerance": <ratio>` (anywhere after its "median_ns" on the same
# line) to override the global tolerance for that id alone — e.g. a noisy
# microbenchmark gated at 2.0 while the rest stay at the default.
#
#   scripts/perf_smoke.sh                    # run benches, write BENCH_channel.json
#   scripts/perf_smoke.sh --check            # run benches, then gate against baseline
#   scripts/perf_smoke.sh --check-only       # gate an existing BENCH_channel.json
#   scripts/perf_smoke.sh --group campus     # run only bench targets matching "campus"
#   SURFOS_THREADS=1 scripts/perf_smoke.sh   # serial baseline
#
# --group limits the run to bench targets whose name contains the given
# substring (and skips the obs_smoke attachment). Combine with --check to
# gate just those ids against the baseline; the other baseline ids are
# then not expected.
#
# To refresh the baseline after an intentional perf change:
#   scripts/perf_smoke.sh && cp BENCH_channel.json BENCH_baseline.json
set -euo pipefail

cd "$(dirname "$0")/.."

mode=run
group=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --check) mode=check ;;
    --check-only) mode=check_only ;;
    --group)
      group="${2:-}"
      [[ -n "$group" ]] || { echo "--group needs a bench-target substring" >&2; exit 2; }
      shift
      ;;
    *) echo "usage: $0 [--check|--check-only] [--group <name>]" >&2; exit 2 ;;
  esac
  shift
done

tolerance=1.25
baseline_file="BENCH_baseline.json"
fresh_file="BENCH_channel.json"

tmpfiles=()
cleanup() { rm -f "${tmpfiles[@]}"; }
trap cleanup EXIT

run_benches() {
  local jsonl obs_jsonl
  jsonl="$(mktemp)"
  obs_jsonl="$(mktemp)"
  tmpfiles+=("$jsonl" "$obs_jsonl")

  local targets=(channel_sim dynamics spatial building optimizer campus obs rpc)
  if [[ -n "$group" ]]; then
    local filtered=() t
    for t in "${targets[@]}"; do
      [[ "$t" == *"$group"* ]] && filtered+=("$t")
    done
    ((${#filtered[@]})) || { echo "no bench target matches --group '$group'" >&2; exit 2; }
    targets=("${filtered[@]}")
  fi
  local t
  for t in "${targets[@]}"; do
    CRITERION_JSONL="$jsonl" cargo bench -p surfos-bench --bench "$t"
  done

  # Observability attachment: derived cache/culling metrics and span
  # medians from an instrumented kernel run. These lines use
  # "span"/"p50_ns" and "metric"/"value" keys, so extract_medians (which
  # matches "id"/"median_ns") never gates on them. Skipped for filtered
  # runs — it belongs to the full sweep.
  if [[ -z "$group" ]]; then
    cargo run -q --release -p surfos-bench --bin obs_smoke > "$obs_jsonl"
  fi

  # Wrap the JSON lines into one JSON document with run metadata. The
  # "simd" field is the requested dispatch override ("auto" = runtime
  # detection); the realized backend is the em.simd.backend line in the
  # observability attachment.
  local threads="${SURFOS_THREADS:-auto}"
  local simd="${SURFOS_SIMD:-auto}"
  {
    printf '{\n  "threads": "%s",\n  "simd": "%s",\n  "benchmarks": [\n' "$threads" "$simd"
    sed 's/^/    /; $!s/$/,/' "$jsonl"
    printf '  ],\n  "observability": [\n'
    sed 's/^/    /; $!s/$/,/' "$obs_jsonl"
    printf '  ]\n}\n'
  } > "$fresh_file"

  echo "wrote $fresh_file ($(grep -c median_ns "$jsonl") benchmarks, $(wc -l < "$obs_jsonl") obs metrics, threads=$threads)"
}

# Extract "<id> <median_ns>" pairs from a BENCH json file.
extract_medians() {
  sed -n 's/.*"id": "\([^"]*\)", "median_ns": \([0-9.][0-9.]*\).*/\1 \2/p' "$1"
}

# Extract "<id> <median_ns> <tolerance>" triples (tolerance column present
# only for entries carrying the optional per-bench annotation).
extract_medians_with_tolerance() {
  sed -n '
    s/.*"id": "\([^"]*\)", "median_ns": \([0-9.][0-9.]*\).*"tolerance": \([0-9.][0-9.]*\).*/\1 \2 \3/p; t
    s/.*"id": "\([^"]*\)", "median_ns": \([0-9.][0-9.]*\).*/\1 \2/p
  ' "$1"
}

check_regressions() {
  if [[ ! -f "$baseline_file" ]]; then
    echo "missing $baseline_file — run 'scripts/perf_smoke.sh && cp $fresh_file $baseline_file' to create it" >&2
    exit 1
  fi
  if [[ ! -f "$fresh_file" ]]; then
    echo "missing $fresh_file — run 'scripts/perf_smoke.sh' first (or use --check)" >&2
    exit 1
  fi
  local base fresh
  base="$(mktemp)"; fresh="$(mktemp)"
  tmpfiles+=("$base" "$fresh")
  extract_medians_with_tolerance "$baseline_file" > "$base"
  extract_medians "$fresh_file" > "$fresh"

  local full=1
  [[ -z "$group" ]] || full=0
  awk -v tol="$tolerance" -v full="$full" '
    NR == FNR {
      baseline[$1] = $2
      if (NF >= 3) bench_tol[$1] = $3
      ids[++n_base] = $1
      next
    }
    { produced[$1] = 1 }
    ($1 in baseline) && baseline[$1] > 0 {
      t = ($1 in bench_tol) ? bench_tol[$1] : tol
      ratio = $2 / baseline[$1]
      n++
      if (ratio > t) {
        printf "REGRESSION  %-55s %12.1f -> %12.1f ns  (x%.2f > x%.2f)\n", $1, baseline[$1], $2, ratio, t
        bad++
      } else {
        printf "ok          %-55s %12.1f -> %12.1f ns  (x%.2f <= x%.2f)\n", $1, baseline[$1], $2, ratio, t
      }
    }
    END {
      for (i = 1; full && i <= n_base; i++) {
        if (!(ids[i] in produced)) {
          printf "MISSING     %-55s (in baseline, not produced by this run)\n", ids[i]
          missing++
        }
      }
      if (missing > 0)
        printf "%d baseline ids not produced by this run; remove deleted ids from the baseline\n", missing | "cat >&2"
      if (n == 0)
        print "no overlapping benchmark ids between baseline and fresh run" | "cat >&2"
      if (bad > 0)
        printf "%d of %d benchmarks regressed by more than x%.2f\n", bad, n, tol | "cat >&2"
      if (missing > 0 || n == 0 || bad > 0)
        exit 1
      printf "all %d benchmarks within x%.2f of baseline\n", n, tol
    }
  ' "$base" "$fresh"
}

case "$mode" in
  run) run_benches ;;
  check) scripts/lint.sh; run_benches; check_regressions ;;
  check_only) check_regressions ;;
esac
