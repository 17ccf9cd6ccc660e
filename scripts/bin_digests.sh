#!/usr/bin/env bash
# Output digests of every hex-bench binary: build the figure/table
# drivers, run each at HEX_RUNS=2, and record one `sha256  name` line
# per binary (a hash of its stdout) as BIN_DIGESTS.txt. The output is a
# pure function of the engine, the analysis pipeline and the seed; CI
# reruns this script and compares the result with the committed file
# byte for byte, so a change that alters any binary's printed bytes has
# to re-record it on purpose. The run count is fixed and the knobs that
# change stdout (HEX_SEED, HEX_EMIT) are cleared, so an exported knob
# cannot leak into the recorded digests. Stderr is left alone, so a
# failing binary's panic reaches the log.
#
# Usage: scripts/bin_digests.sh [output-file]   (default: BIN_DIGESTS.txt)
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

out="${1:-BIN_DIGESTS.txt}"

cargo build -q --release -p hex-bench --bins
bin="${CARGO_TARGET_DIR:-target}/release"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
for src in crates/hex-bench/src/bin/*.rs; do
  name="$(basename "$src" .rs)"
  digest="$(env -u HEX_SEED -u HEX_EMIT HEX_RUNS=2 "$bin/$name" | sha256sum | cut -d' ' -f1)"
  echo "$digest  $name" >> "$tmp"
done
mv "$tmp" "$out"
echo "wrote $out" >&2
