#!/usr/bin/env bash
# Bench smoke: runs the self-checking benchmarks and emits their JSON
# records.
#
#   bench_cache — cold-vs-warm cache mix (per-strategy speedups, cache hit
#     rates, bit-identity at parallelism 1/2/8). Exits non-zero if the warm
#     mix is not at least 2x faster than cold or any cached result diverges
#     from the uncached reference. Emits BENCH_cache.json.
#   bench_fused — fused join-aggregate vs. forced-unfused on fig-13-style
#     conv layers (parallelism 8 and 1, caches off; fused ns per join pair
#     per layer). Exits non-zero if fusion is not at least 2x faster
#     overall at parallelism 8, any fused plan materializes join output, or
#     results diverge. Emits BENCH_fused.json.
#   obs_overhead — tracing overhead on the fig-13 conv workload. Exits
#     non-zero if the disabled-collector path drifts more than 3% between
#     interleaved passes (zero-cost-when-off guard); records the
#     enabled-collector overhead. Emits BENCH_obs.json.
#   govern_overhead — governance overhead on the same workload. Exits
#     non-zero if the governance-off path drifts more than 3% between
#     interleaved passes (zero-cost-when-off guard); records the
#     deadline+budget-armed overhead. Emits BENCH_govern.json.
#
# Usage: scripts/bench_json.sh [cache_output.json] [fused_output.json] [obs_output.json] [govern_output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

CACHE_OUT="${1:-${BENCH_JSON_OUT:-BENCH_cache.json}}"
FUSED_OUT="${2:-BENCH_fused.json}"
OBS_OUT="${3:-BENCH_obs.json}"
GOVERN_OUT="${4:-BENCH_govern.json}"

BENCH_JSON_OUT="$CACHE_OUT" cargo run --release -q -p bench --bin bench_cache
echo "--- $CACHE_OUT ---"
cat "$CACHE_OUT"

BENCH_JSON_OUT="$FUSED_OUT" cargo run --release -q -p bench --bin bench_fused
echo "--- $FUSED_OUT ---"
cat "$FUSED_OUT"

BENCH_JSON_OUT="$OBS_OUT" cargo run --release -q -p bench --bin obs_overhead
echo "--- $OBS_OUT ---"
cat "$OBS_OUT"

BENCH_JSON_OUT="$GOVERN_OUT" cargo run --release -q -p bench --bin govern_overhead
echo "--- $GOVERN_OUT ---"
cat "$GOVERN_OUT"
