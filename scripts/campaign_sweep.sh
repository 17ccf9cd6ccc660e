#!/usr/bin/env bash
# Dynamic-fault campaign sweep: run the three canned `hexctl campaign`
# regimes (burst / crash / churn) on the paper's 50x20 grid and record
# the per-disturbance re-stabilization tables as CAMPAIGN.md. The output
# is a pure function of the engine and the seed; CI reruns this script at
# its default run count and compares the result with the committed file
# byte for byte.
#
# Usage: scripts/campaign_sweep.sh [output-file]   (default: CAMPAIGN.md)
#
# Knobs:
#   HEX_RUNS   runs per regime, default 10 (CI smokes with HEX_RUNS=2)
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-CAMPAIGN.md}"
runs="${HEX_RUNS:-10}"
pulses=10

cargo build -q --release --bin hexctl
hexctl="${CARGO_TARGET_DIR:-target}/release/hexctl"

campaign() { # campaign <regime> — JSON on stdout
  HEX_RUNS="$runs" "$hexctl" campaign --regime "$1" --pulses "$pulses"
}

{
  echo "# Dynamic fault campaigns"
  echo
  echo "Per-disturbance re-stabilization on the paper's 50x20 grid,"
  echo "scenario (iii), seed 42, $runs runs x $pulses pulses per regime"
  echo "(\`scripts/campaign_sweep.sh\`, driving \`hexctl campaign\`)."
  echo "Columns: pulses-to-restabilize is 1-based — the count from the"
  echo "first pulse launched at/after the disturbance to the first pulse"
  echo "of the persistent criterion-satisfying suffix of its segment."
  echo
  echo "CI regenerates this file and requires it byte-identical to the"
  echo "committed one."
} > "$out"

for regime in burst crash churn; do
  err_file="$(mktemp)"
  ref="$(campaign "$regime" 2>"$err_file")"
  {
    echo
    echo "## $regime"
    echo
    echo '```text'
    cat "$err_file"
    echo '```'
    echo
    echo '```json'
    echo "$ref"
    echo '```'
  } >> "$out"
  rm -f "$err_file"
  echo "campaign $regime: recorded" >&2
done

echo "wrote $out" >&2
