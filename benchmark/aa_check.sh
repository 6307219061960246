#!/usr/bin/env bash
# A/A self-check: does the benchmark agree with itself?
#
#   benchmark/aa_check.sh [RUNS_PER_SET] [SECONDS]      (defaults: 5, 16)
#
# Runs two sets (A, B) of RUNS_PER_SET full untraced runs of every
# workload on the checked-out commit, interleaved run by run (A1 B1 A2 B2
# ...) so both sets see the same slow drift of the host. Run i of either
# set uses seed i. Prints, per workload x end-to-end metric, the two
# medians, how much worse B is than A, the bound, and the run-to-run
# spread (interquartile range over median, the larger of the two sets');
# exits non-zero if a gap or a spread (setup_s's excepted) exceeds its
# bound, or any run reports a failed op.
#
# If a metric fails here, raise R (--seconds up to 24 buys 6 rounds) or the
# epoch op counts within the time cap before touching a bound, and never
# add a switch that skips verification.
set -euo pipefail

runs="${1:-5}"
seconds="${2:-16}"
if [ "$runs" -lt 5 ]; then
    echo "error: at least 5 runs per set" >&2
    exit 2
fi

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out/aa"
rm -rf "$out"
mkdir -p "$out"
workloads="ingest_unique ingest_dedup_hot read_back churn_gc"

for i in $(seq 1 "$runs"); do
    for set in A B; do
        for w in $workloads; do
            echo "[$(date +%H:%M:%S)] set $set run $i/$runs $w" >&2
            # A failed check makes run.sh exit 1 after printing its result
            # line; keep going so the report shows it.
            "$here/run.sh" --workload "$w" --seed "$i" --seconds "$seconds" \
                | tail -n 1 > "$out/$set-$w-$i.json" || true
        done
    done
done

python3 - "$here/../BENCHMARK.json" "$out" "$runs" $workloads <<'EOF'
import json, statistics, sys

contract, out, runs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
# Bounds and directions come from BENCHMARK.json. On the three timer-free
# workloads the server's counters repeat exactly, so there the ledger
# ratios must agree to 0.1 % whatever the file allows churn_gc.
with open(contract) as f:
    BOUNDS = {m["name"]: (m["better"], m["bound"]) for m in json.load(f)["end_to_end"]}
EXACT = {"stored_bytes_per_user_byte", "modelled_mem_bytes_per_user_byte",
         "modelled_cpu_cycles_per_user_byte"}

def spread_of(values):
    """Interquartile range over median: how the benchmark's driver
    measures whether a metric is steady enough for its bound."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

def load(set_, w, i):
    with open(f"{out}/{set_}-{w}-{i}.json") as f:
        return json.loads(f.read())

bad = []
print(f"{'workload':<17}{'metric':<35}{'median A':>14}{'median B':>14}"
      f"{'B worse by':>12}{'bound':>8}{'spread':>9}")
for w in workloads:
    results = {s: [load(s, w, i) for i in range(1, runs + 1)] for s in "AB"}
    for s, rs in results.items():
        for i, r in enumerate(rs, 1):
            if not r["correct"] or r["failed"] != 0:
                bad.append(f"{w} set {s} run {i}: {r['failed']} of {r['attempted']} ops failed")
    for metric, (better, bound) in BOUNDS.items():
        limit = 0.001 if metric in EXACT and w != "churn_gc" else bound
        values = {s: [r["metrics"][metric]["value"] for r in rs] for s, rs in results.items()}
        a, b = (statistics.median(values[s]) for s in "AB")
        worse = (b - a) / a if better == "lower" else (a - b) / a
        spread = max(spread_of(values[s]) for s in "AB")
        flag = ""
        if abs(worse) > limit:
            flag = "  <-- FAIL"
            bad.append(f"{w} {metric}: sets differ by {worse:+.2%}, bound {limit:.1%}")
        # The spread runs over different seeds, so it is held to the file's
        # bound even where the A/A gap must be exact.
        if spread > bound and metric != "setup_s":
            flag = "  <-- FAIL"
            bad.append(f"{w} {metric}: spread {spread:.2%} exceeds bound {bound:.1%}")
        print(f"{w:<17}{metric:<35}{a:>14.6g}{b:>14.6g}{worse:>+12.2%}{limit:>8.1%}"
              f"{spread:>9.2%}{flag}")
if bad:
    print("\nA/A check FAILED:")
    for line in bad:
        print("  " + line)
    sys.exit(1)
print("\nA/A check passed: every gap and spread is within its bound, no failed op.")
EOF
