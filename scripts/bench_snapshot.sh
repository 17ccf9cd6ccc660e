#!/usr/bin/env bash
# Perf-trajectory snapshot: run the headline benches (single_pulse /
# pq / fold_scratch / serve / analysis) and record the shim-harness numbers as
# BENCH_<name>.json so future PRs can diff against a committed baseline
# (CI uploads the fresh snapshot as an artifact on every push).
#
# Usage: scripts/bench_snapshot.sh [output-dir]   (default: repo root)
#
# Knobs:
#   HEX_BENCH_BUDGET_MS  per-sample time budget, default 40
#   HEX_RUNS             batch size for the fold_scratch sweep, default 16
#
# The numbers come from the offline criterion shim (best-of-samples), so
# treat them as smoke-level on shared CI runners; the committed baseline
# was taken on an idle machine and is what the README's ablation table
# quotes.
set -euo pipefail
cd "$(dirname "$0")/.."

out_dir="${1:-.}"
budget="${HEX_BENCH_BUDGET_MS:-40}"
runs="${HEX_RUNS:-16}"
cores="$(nproc 2>/dev/null || echo 1)"

# Parse the shim's report lines:
#   bench: <label>  <ns> ns/iter (<iters> iters, best of <samples>)...
# into {"name": label, "ns_per_iter": ns} entries.
snapshot() {
  local bench="$1" name="$2"
  HEX_BENCH_BUDGET_MS="$budget" HEX_RUNS="$runs" \
    cargo bench -q -p hex-bench --bench "$bench" \
    | tee /dev/stderr \
    | awk -v bench="$name" -v budget="$budget" -v runs="$runs" -v cores="$cores" '
      BEGIN {
        printf "{\n  \"bench\": \"%s\",\n  \"budget_ms\": %s,\n  \"hex_runs\": %s,\n  \"host_cores\": %s,\n  \"results\": [", bench, budget, runs, cores
        n = 0
      }
      /^bench: / {
        if (n++) printf ","
        printf "\n    {\"name\": \"%s\", \"ns_per_iter\": %s}", $2, $3
      }
      END { printf "\n  ]\n}\n" }' \
    > "$out_dir/BENCH_${name}.json"
  echo "wrote $out_dir/BENCH_${name}.json" >&2
}

snapshot des_engine single_pulse
snapshot pq pq
snapshot batch_parallel fold_scratch
snapshot serve serve
snapshot analysis analysis
