#!/usr/bin/env sh
# Bench snapshot: runs the cheap per-workload experiments and records the
# projected throughput plus a per-stage latency breakdown (p50/p99 of the
# modelled span durations) into BENCH_<tag>.json at the repository root.
#
# Usage: ./scripts/bench_snapshot.sh [tag]   (default tag: pr7)
#
# Throughput comes from the §7.5 projection printed by `fidr run`; stage
# latencies come from the fidr.spans.v1 files exported by `fidr spans`.
# Span durations are modelled time, so for a given binary the latency
# numbers are bit-reproducible; only future model changes move them.
# The worker_scaling section comes from the ablation_worker_scaling
# bench: its modelled speedup is deterministic; its wall GB/s is the
# median of three repeats with the min/max spread recorded alongside, a
# first-class regression-gated number since the persistent worker pool +
# multi-lane hashing landed (see docs/PERFORMANCE.md).
set -eu

TAG="${1:-pr7}"
OUT="BENCH_${TAG}.json"
OPS="${OPS:-2000}"
# Same CPU detection as scripts/check.sh's wall-gate skip, so the
# recorded host_cpus always matches the gating decision (the bench's own
# available_parallelism print is cross-checked against this in the JSON).
HOST_CPUS="$(nproc 2> /dev/null || getconf _NPROCESSORS_ONLN 2> /dev/null || echo 1)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cargo build --release -q --bin fidr

for wl in write-h write-m write-l read-mixed; do
    for variant in full baseline; do
        ./target/release/fidr run --workload "$wl" --variant "$variant" \
            --ops "$OPS" > "$TMP/run-$wl-$variant.txt"
    done
    ./target/release/fidr spans --workload "$wl" --variant full \
        --ops "$OPS" --spans-out "$TMP/spans-$wl.json" > /dev/null
done

# Worker-scaling ablation (write-heavy, one cache shard per worker).
FIDR_BENCH_OPS="${SCALING_OPS:-20000}" cargo bench -q -p fidr-bench \
    --bench ablation_worker_scaling > "$TMP/worker-scaling.txt"

# Tiered-cache ablation (mixed-locality streams, flat vs tiered
# admission at equal DRAM capacity).
FIDR_BENCH_OPS="${TIERED_OPS:-15000}" cargo bench -q -p fidr-bench \
    --bench ablation_tiered_cache > "$TMP/tiered-cache.txt"

TMP="$TMP" OPS="$OPS" TAG="$TAG" OUT="$OUT" HOST_CPUS="$HOST_CPUS" python3 - <<'EOF'
import json, os, re

tmp, out = os.environ["TMP"], os.environ["OUT"]
doc = {
    "schema": "fidr.bench.v1",
    "tag": os.environ["TAG"],
    "ops_per_workload": int(os.environ["OPS"]),
    "host_cpus": int(os.environ["HOST_CPUS"]),
    "workloads": {},
}

def pct(sorted_vals, q):
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]

for wl in ["write-h", "write-m", "write-l", "read-mixed"]:
    entry = {"throughput_gbps": {}, "stages": {}}
    for variant in ["full", "baseline"]:
        text = open(f"{tmp}/run-{wl}-{variant}.txt").read()
        m = re.search(r"achievable: ([0-9.]+) GB/s \(bottleneck: ([^)]+)\)", text)
        entry["throughput_gbps"][variant] = {
            "value": float(m.group(1)),
            "bottleneck": m.group(2),
        }
    spans = json.load(open(f"{tmp}/spans-{wl}.json"))["traceEvents"]
    durs = {}
    for ev in spans:
        durs.setdefault(ev["name"], []).append(float(ev["dur"]))  # microseconds
    for name, vals in sorted(durs.items()):
        vals.sort()
        entry["stages"][name] = {
            "count": len(vals),
            "p50_us": round(pct(vals, 0.50), 3),
            "p99_us": round(pct(vals, 0.99), 3),
        }
    doc["workloads"][wl] = entry

# Worker-scaling ablation: modelled numbers are deterministic per seed;
# wall numbers are medians of three repeats (min/max spread alongside)
# and are regression-gated by scripts/check.sh.
scaling = {"workload": "write-h", "rows": []}
for line in open(f"{tmp}/worker-scaling.txt"):
    m = re.match(
        r"worker-scaling: workers=(\d+) wall_gbps=([0-9.]+) wall_gbps_min=([0-9.]+) "
        r"wall_gbps_max=([0-9.]+) wall_gbps_warmup=([0-9.]+) modelled_gbps=([0-9.]+)",
        line,
    )
    if m:
        scaling["rows"].append(
            {
                "workers": int(m.group(1)),
                "wall_gbps": float(m.group(2)),
                "wall_gbps_min": float(m.group(3)),
                "wall_gbps_max": float(m.group(4)),
                "wall_gbps_warmup": float(m.group(5)),
                "modelled_gbps": float(m.group(6)),
            }
        )
    m = re.match(
        r"worker-scaling: wall_speedup_4x=([0-9.]+) modelled_speedup_4x=([0-9.]+) host_cpus=(\d+) "
        r"hash_kernel=(\S+)",
        line,
    )
    if m:
        scaling["wall_speedup_4x"] = float(m.group(1))
        scaling["modelled_speedup_4x"] = float(m.group(2))
        scaling["host_cpus"] = int(m.group(3))
        # Wall numbers only compare between snapshots with the same kernel.
        scaling["hash_kernel"] = m.group(4)
doc["worker_scaling"] = scaling

# Tiered-cache ablation: everything here is modelled (deterministic per
# seed). Gated by scripts/check.sh: speedup >= 1.0 and the two dedup
# ratios within 0.01 of each other.
tiered = {"workload": "mixed-locality", "modes": {}}
for line in open(f"{tmp}/tiered-cache.txt"):
    m = re.match(
        r"tiered-cache: mode=(\w+) modelled_gbps=([0-9.]+) dedup_ratio=([0-9.]+) "
        r"cache_hit=([0-9.]+) deferred=(\d+) scrub_dups=(\d+) cold_fetches=(\d+)",
        line,
    )
    if m:
        tiered["modes"][m.group(1)] = {
            "modelled_gbps": float(m.group(2)),
            "dedup_ratio": float(m.group(3)),
            "cache_hit": float(m.group(4)),
            "deferred": int(m.group(5)),
            "scrub_dups": int(m.group(6)),
            "cold_fetches": int(m.group(7)),
        }
    m = re.match(r"tiered-cache: speedup=([0-9.]+) dram_lines=(\d+)", line)
    if m:
        tiered["speedup"] = float(m.group(1))
        tiered["dram_lines"] = int(m.group(2))
doc["tiered_cache"] = tiered

with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out}")
EOF
