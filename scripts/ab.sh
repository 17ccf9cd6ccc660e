#!/usr/bin/env bash
# A/B benchmark of the working tree against a parent revision. Both sides
# are exported with `git archive` into a scratch directory, each side's
# perfbench is built into its own target directory, and every workload of
# BENCHMARK.json runs in alternating pairs (order p c, c p, p c, ...; pair
# i runs both sides on seed i). The result is one JSON record per
# workload, printed to stdout as a JSON array. For each end-to-end metric
# a record holds both medians, the change in %, the parent's interquartile
# range over its median, the pairs the change won and both sides' runs;
# for the workload, the failed and attempted operations, both commits and
# host_cores.
#
# Usage: scripts/ab.sh <parent-rev> [pairs] > ab.json
#   pairs    alternating pairs per workload (default 10); every run
#            measures for BENCHMARK.json's run_seconds
#
# The working-tree side is `git stash create` (tracked files; new files
# count once staged), or HEAD when the tree is clean. Progress and one
# summary sentence per workload go to stderr; the scratch directory with
# each run's output, the raw result lines and the build logs is kept and
# named there. A metric is "unresolved" when the parent's IQR over its
# median exceeds the metric's bound: a change of that size is then inside
# the host's noise. A 30 s run takes about 40 s with its checks; the
# default 10 pairs of 3 workloads took 42 minutes on 2 cores.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."

usage="usage: scripts/ab.sh <parent-rev> [pairs]"
parent_rev="${1:?$usage}"
pairs="${2:-10}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
cores="$(nproc 2>/dev/null || echo 1)"

parent_commit="$(git rev-parse --short "$parent_rev^{commit}")"
change_tree="$(git stash create)"
if [ -n "$change_tree" ]; then
  change_commit="$(git rev-parse --short HEAD)+dirty"
else
  change_tree=HEAD
  change_commit="$(git rev-parse --short HEAD)"
fi

scratch="$(mktemp -d "${TMPDIR:-/tmp}/hexclock-ab.XXXXXX")"
echo "ab: parent $parent_commit, change $change_commit, scratch $scratch" >&2

for side in parent change; do
  if [ "$side" = parent ]; then rev="$parent_commit"; else rev="$change_tree"; fi
  mkdir -p "$scratch/$side"
  git archive "$rev" | tar -x -C "$scratch/$side"
  echo "ab: building $side" >&2
  (cd "$scratch/$side" &&
    CARGO_TARGET_DIR="$scratch/$side-target" cargo build --release --offline --quiet \
      --manifest-path perfbench/Cargo.toml) 2>>"$scratch/$side.log" ||
    { echo "ab: building $side failed, see $scratch/$side.log" >&2; exit 1; }
done

# run <side> <workload> <seed>: one benchmark run. Its stdout (the notes,
# such as hexd_sweep's latency percentiles, then the JSON result line) is
# kept as <side>-<workload>-<seed>.out, and the result line is appended
# to runs.tsv (a failed run records "correct": false).
run() {
  local side="$1" workload="$2" seed="$3" out line
  out="$scratch/$side-$workload-$seed.out"
  (cd "$scratch/$side" &&
    CARGO_TARGET_DIR="$scratch/$side-target" python3 perfbench/run.py \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    >"$out" 2>>"$scratch/$side.log" || true
  line="$(tail -n 1 "$out")"
  [ -n "$line" ] || line='{"correct": false}'
  printf '%s\t%s\t%s\t%s\n' "$workload" "$seed" "$side" "$line" >>"$scratch/runs.tsv"
}

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for workload in $workloads; do
  for i in $(seq "$pairs"); do
    echo "ab: $workload pair $i of $pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$workload" "$i"
      run change "$workload" "$i"
    else
      run change "$workload" "$i"
      run parent "$workload" "$i"
    fi
  done
done

python3 - "$scratch/runs.tsv" "$parent_commit" "$change_commit" "$cores" "$seconds" "$workloads" <<'EOF'
import json
import statistics
import sys

tsv, parent, change, cores, seconds, workloads = sys.argv[1:]
bench = json.load(open("BENCHMARK.json"))
runs = {}
for line in open(tsv):
    workload, seed, side, result = line.rstrip("\n").split("\t", 3)
    try:
        result = json.loads(result)
    except ValueError:
        result = {"correct": False}
    runs.setdefault(workload, {}).setdefault(int(seed), {})[side] = result

records = []
for workload in workloads.split():
    by_seed = runs.get(workload, {})
    sides = {side: [by_seed[s].get(side, {"correct": False}) for s in sorted(by_seed)]
             for side in ("parent", "change")}
    record = {
        "workload": workload,
        "parent": parent,
        "change": change,
        "host_cores": int(cores),
        "run_seconds": int(seconds),
        "pairs": len(by_seed),
        "failed_ops": {k: sum(r.get("failed", 0) for r in v) for k, v in sides.items()},
        "attempted_ops": {k: sum(r.get("attempted", 0) for r in v) for k, v in sides.items()},
        "incorrect_runs": {k: sum(not r.get("correct") for r in v) for k, v in sides.items()},
        "metrics": {},
    }
    notes = []
    for metric in bench["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pv, cv = [], []
        for p, c in zip(sides["parent"], sides["change"]):
            p = p.get("metrics", {}).get(name, {}).get("value")
            c = c.get("metrics", {}).get(name, {}).get("value")
            if p is not None and c is not None:
                pv.append(p)
                cv.append(c)
        if not pv:
            continue
        pm, cm = statistics.median(pv), statistics.median(cv)
        q = statistics.quantiles(pv, n=4, method="inclusive") if len(pv) > 1 else [pm, pm, pm]
        iqr = q[2] - q[0]
        change_pct = 100.0 * (cm - pm) / pm if pm else 0.0
        worse_pct = change_pct if lower else -change_pct
        won = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        entry = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent_median": pm,
            "change_median": cm,
            "change_pct": round(change_pct, 2),
            "parent_iqr_over_median": round(iqr / pm, 4) if pm else 0.0,
            "gap_exceeds_parent_iqr": abs(cm - pm) > iqr,
            "pairs_won": won,
            "pairs": len(pv),
            "outside_bound": worse_pct / 100.0 > metric["bound"],
            "unresolved": pm > 0 and iqr / pm > metric["bound"],
            "parent_runs": pv,
            "change_runs": cv,
        }
        record["metrics"][name] = entry
        flags = "".join([
            ", gap above the parent's IQR" if entry["gap_exceeds_parent_iqr"] else "",
            ", OUTSIDE ITS BOUND" if entry["outside_bound"] else "",
            ", unresolved" if entry["unresolved"] else "",
        ])
        notes.append(
            f"{name} {pm:.4g} -> {cm:.4g} {metric['unit']} ({change_pct:+.1f} %, "
            f"won {won} of {len(pv)}, parent IQR {100 * entry['parent_iqr_over_median']:.1f} %"
            f"{flags})")
    records.append(record)
    print(
        f"{workload}, {record['pairs']} alternating {seconds} s pairs, {parent} -> {change} "
        f"on {cores} cores: " + "; ".join(notes)
        + f"; failed operations {record['failed_ops']['parent']} -> {record['failed_ops']['change']}"
        + f", incorrect runs {record['incorrect_runs']['parent']} -> {record['incorrect_runs']['change']}.",
        file=sys.stderr)
json.dump(records, sys.stdout, indent=1)
print()
EOF
