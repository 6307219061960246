#!/usr/bin/env sh
# Full local gate: formatting, lints, docs and tests.
# Run from the repository root: ./scripts/check.sh
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# The wire protocol has one revision; its retired version gating must
# not creep back.
if grep -rnE 'ProtocolVersion|decode_versioned|with_version' \
  crates src tests docs README.md DESIGN.md; then
  echo "protocol version gating is back (see matches above)" >&2
  exit 1
fi

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (no deps)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test"
cargo test --workspace -q

# Release-profile pass: guards that must not compile away (e.g. the
# container-id reuse check, once a debug_assert!) stay enforced.
echo "==> cargo test --release"
cargo test --workspace --release -q

# LZSS gate, deep where it is cheap: the workspace pass above already
# held `compress` to the greedy reference matcher kept in
# crates/compress/tests/identity.rs at the default case count (byte
# identity where the search skip stays idle, a size bound elsewhere); in
# release the same properties afford 4,096 cases each.
echo "==> lzss vs the reference matcher: identity where the skip is idle, bounded elsewhere (4096 cases)"
PROPTEST_CASES=4096 cargo test --release -q -p fidr-compress --test identity

# Same idea for the table-cache index: the inline-node PipelinedTree must
# make the parent's Vec-node tree's every split/refill/merge decision
# (crates/cache/tests/reference/), or Table 5's node counts drift.
echo "==> pipelined tree vs the reference tree (2048 cases)"
PROPTEST_CASES=2048 cargo test --release -q -p fidr-cache --test tree_reference

# And for SHA-256: every kernel this CPU runs, one-shot and in ragged
# batches of up to 39 messages, against the portable scalar function.
echo "==> sha-256 kernels vs scalar (4096 cases)"
PROPTEST_CASES=4096 cargo test --release -q -p fidr-hash

# Span-export smoke test: a small traced workload must produce a
# Perfetto-loadable fidr.spans.v1 file (the exporter validates the JSON
# shape before writing; the greps double-check the file on disk). CI
# uploads the file as an inspectable artifact.
echo "==> fidr spans export"
SPANS_OUT="${SPANS_OUT:-target/ci-spans.json}"
cargo run --release -q --bin fidr -- spans \
  --workload write-h --ops 500 --spans-out "$SPANS_OUT" > /dev/null
grep -q '"schema":"fidr.spans.v1"' "$SPANS_OUT"
grep -q '"traceEvents":\[' "$SPANS_OUT"
grep -q '"name":"write"' "$SPANS_OUT"
echo "    $SPANS_OUT: $(grep -c '"ph":"X"' "$SPANS_OUT") span events"

# Parallel-pipeline determinism gate: the same seeded workload must export
# byte-identical fidr.metrics.v1 snapshots (a) across repeat runs with
# --workers 4 and (b) between --workers 1 and --workers 4. The ordered
# batch merge makes every export independent of worker count; a diff here
# means a charge, counter or span escaped the batch-order replay.
echo "==> worker determinism (repeat run + workers 1 vs 4)"
DET_DIR="${DET_DIR:-target/ci-determinism}"
mkdir -p "$DET_DIR"
for run in a b; do
  cargo run --release -q --bin fidr -- run \
    --workload write-h --variant full --ops 2000 --workers 4 --cache-shards 4 \
    --metrics-out "$DET_DIR/w4-$run.json" > /dev/null
done
diff "$DET_DIR/w4-a.json" "$DET_DIR/w4-b.json"
cargo run --release -q --bin fidr -- run \
  --workload write-h --variant full --ops 2000 --workers 1 --cache-shards 4 \
  --metrics-out "$DET_DIR/w1.json" > /dev/null
diff "$DET_DIR/w1.json" "$DET_DIR/w4-a.json"
echo "    exports byte-identical"

# The same contract for the baseline engine, whose batched-write path
# precomputes hashes and compression on the pool: metrics AND spans must
# not depend on the worker count. (Both engines sit on one ChunkStore;
# this is the gate for the engine that had none.)
echo "==> baseline determinism (workers 1 vs 4, metrics + spans)"
for w in 1 4; do
  cargo run --release -q --bin fidr -- run \
    --workload write-h --variant baseline --ops 2000 --workers "$w" --cache-shards 4 \
    --metrics-out "$DET_DIR/base-m$w.json" \
    --spans-out "$DET_DIR/base-s$w.json" > /dev/null
done
diff "$DET_DIR/base-m1.json" "$DET_DIR/base-m4.json"
diff "$DET_DIR/base-s1.json" "$DET_DIR/base-s4.json"
echo "    baseline exports byte-identical"

# Tiered-scrubber determinism gate: with --tiered the cold-stream writes
# defer dedup to the background scrubber, whose table-SSD charges are
# replayed in group order. Metrics AND spans must still export
# byte-identical across worker counts (1/4/8). Write-L at 4000 ops is
# past the classifier's warm-up, so the deferred path genuinely runs
# (the dedup.deferred.count grep guards against this gate silently
# degenerating into the flat path).
echo "==> tiered-scrubber determinism (workers 1 vs 4 vs 8)"
for w in 1 4 8; do
  cargo run --release -q --bin fidr -- run \
    --workload write-l --variant full --ops 4000 --tiered \
    --workers "$w" --cache-shards 4 \
    --metrics-out "$DET_DIR/tiered-m$w.json" \
    --spans-out "$DET_DIR/tiered-s$w.json" > /dev/null
done
diff "$DET_DIR/tiered-m1.json" "$DET_DIR/tiered-m4.json"
diff "$DET_DIR/tiered-m1.json" "$DET_DIR/tiered-m8.json"
diff "$DET_DIR/tiered-s1.json" "$DET_DIR/tiered-s4.json"
diff "$DET_DIR/tiered-s1.json" "$DET_DIR/tiered-s8.json"
grep -q '"dedup.deferred.count"' "$DET_DIR/tiered-m1.json"
echo "    tiered exports byte-identical, scrubber exercised"

# Flat-vs-tiered ablation gate: at equal DRAM capacity the tiered
# admission policy must not lose modelled throughput on the
# mixed-locality workload (the acceptance snapshot shows ~1.09x), and
# deferred dedup must converge to the same reduction as inline dedup
# (dedup ratios within 0.01).
echo "==> tiered-cache ablation (tiered >= flat, dedup ratio converges)"
TIERED_OUT="${TIERED_OUT:-target/ci-tiered-cache.txt}"
FIDR_BENCH_OPS="${TIERED_GATE_OPS:-15000}" cargo bench -q -p fidr-bench \
  --bench ablation_tiered_cache > "$TIERED_OUT"
TIERED_SPEEDUP="$(sed -n 's/^tiered-cache: speedup=\([0-9.]*\).*/\1/p' "$TIERED_OUT")"
FLAT_DEDUP="$(sed -n 's/^tiered-cache: mode=flat .*dedup_ratio=\([0-9.]*\).*/\1/p' "$TIERED_OUT")"
TIERED_DEDUP="$(sed -n 's/^tiered-cache: mode=tiered .*dedup_ratio=\([0-9.]*\).*/\1/p' "$TIERED_OUT")"
if [ -z "$TIERED_SPEEDUP" ] || [ -z "$FLAT_DEDUP" ] || [ -z "$TIERED_DEDUP" ]; then
  echo "ablation_tiered_cache printed no machine-readable lines" >&2
  exit 1
fi
if ! awk -v s="$TIERED_SPEEDUP" 'BEGIN { exit !(s >= 1.0) }'; then
  echo "tiered-cache speedup=$TIERED_SPEEDUP < 1.0: tiered admission lost throughput" >&2
  exit 1
fi
if ! awk -v a="$FLAT_DEDUP" -v b="$TIERED_DEDUP" \
    'BEGIN { d = a - b; if (d < 0) d = -d; exit !(d <= 0.01) }'; then
  echo "dedup ratio diverged: flat=$FLAT_DEDUP tiered=$TIERED_DEDUP" >&2
  exit 1
fi
echo "    speedup=${TIERED_SPEEDUP}x, dedup flat=$FLAT_DEDUP tiered=$TIERED_DEDUP"

# Loopback serving smoke test: stand the TCP front end up on an
# ephemeral port, drive it with 4 concurrent client connections of
# verified write/read traffic, wait for the auto-drain, and hold the
# final metrics export to zero rejected frames.
echo "==> loopback serve/client smoke"
SERVE_DIR="${SERVE_DIR:-target/ci-serve}"
mkdir -p "$SERVE_DIR"
rm -f "$SERVE_DIR/port" "$SERVE_DIR/metrics.json"
cargo run --release -q --bin fidr -- serve \
  --port 0 --port-file "$SERVE_DIR/port" --conns-limit 4 \
  --metrics-out "$SERVE_DIR/metrics.json" \
  > "$SERVE_DIR/serve.log" 2> "$SERVE_DIR/serve.err" &
SERVE_PID=$!
tries=0
while [ ! -s "$SERVE_DIR/port" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "server never wrote its port file" >&2
    kill "$SERVE_PID" 2> /dev/null || true
    exit 1
  fi
  sleep 0.1
done
# The port file holds a full HOST:PORT address (published atomically).
cargo run --release -q --bin fidr -- client \
  --addr "$(cat "$SERVE_DIR/port")" --conns 4 --ops 200
wait "$SERVE_PID"
grep -q '"server.frames.rejected.count": { "type": "counter", "value": 0 }' \
  "$SERVE_DIR/metrics.json"
grep -q '"server.connections.accepted.count": { "type": "counter", "value": 4 }' \
  "$SERVE_DIR/metrics.json"
echo "    $(grep -o '"server.frames.decoded.count": { "type": "counter", "value": [0-9]*' \
  "$SERVE_DIR/metrics.json" | grep -o '[0-9]*$') frames served, 0 rejected"

# Hash-kernel gate: the server names the two SHA-256 kernels it
# dispatched to on stderr, one for single messages and one for batches.
# Each must be the fastest this CPU advertises for its role, so a silent
# fall-back to the 6x slower scalar core fails here instead of showing
# up as an unexplained throughput regression. (Hosts without
# /proc/cpuinfo only check that kernels were named.)
echo "==> hash kernels match the CPU"
cpu_has() { grep -qw "$1" /proc/cpuinfo 2> /dev/null; }
if [ -r /proc/cpuinfo ]; then
  if cpu_has sha_ni; then
    WANT_KERNEL="sha-ni"
  else
    WANT_KERNEL="scalar"
  fi
  if cpu_has avx512f && cpu_has avx512bw; then
    WANT_BATCH="avx512x16"
  elif cpu_has sha_ni; then
    WANT_BATCH="sha-ni"
  elif cpu_has avx2; then
    WANT_BATCH="avx2x8"
  else
    WANT_BATCH="scalar"
  fi
else
  WANT_KERNEL="[a-z0-9-]*"
  WANT_BATCH="[a-z0-9-]*"
fi
WANT_LINE="hash_kernel=$WANT_KERNEL batch_kernel=$WANT_BATCH"
if ! grep -qx "$WANT_LINE" "$SERVE_DIR/serve.err"; then
  echo "expected $WANT_LINE, server said: $(cat "$SERVE_DIR/serve.err")" >&2
  exit 1
fi
echo "    $(cat "$SERVE_DIR/serve.err")"

# Churn-then-GC lifecycle smoke: seeded write/overwrite/delete churn,
# a full garbage-collection pass, then every surviving block re-read
# byte-exact. The subcommand itself exits non-zero on any survivor
# mismatch or when GC frees no space; the greps hold the exported
# metrics to the same claims (real deletes acked, real bytes
# reclaimed). CI uploads the metrics file as an inspectable artifact.
echo "==> churn-then-gc lifecycle smoke"
GC_DIR="${GC_DIR:-target/ci-gc}"
mkdir -p "$GC_DIR"
rm -f "$GC_DIR/metrics.json"
cargo run --release -q --bin fidr -- gc \
  --tenants 4 --blocks 64 --rounds 3 --delete-pct 40 \
  --metrics-out "$GC_DIR/metrics.json"
grep -q '"schema": "fidr.metrics.v1"' "$GC_DIR/metrics.json"
counter_of() {
  grep -o "\"$1\": { \"type\": \"counter\", \"value\": [0-9]*" \
    "$GC_DIR/metrics.json" | grep -o '[0-9]*$'
}
GC_DELETES="$(counter_of 'delete.acked.count')"
GC_FREED="$(counter_of 'gc.reclaimed_bytes')"
if [ -z "$GC_DELETES" ] || [ "$GC_DELETES" -eq 0 ]; then
  echo "churn acked no deletes (delete.acked.count=${GC_DELETES:-missing})" >&2
  exit 1
fi
if [ -z "$GC_FREED" ] || [ "$GC_FREED" -eq 0 ]; then
  echo "gc freed no space (gc.reclaimed_bytes=${GC_FREED:-missing})" >&2
  exit 1
fi
echo "    $GC_DELETES deletes acked, $GC_FREED bytes reclaimed, survivors verified"
# Delete, GC and compaction are seeded and modelled like everything
# else: a repeat run must export the same bytes.
cargo run --release -q --bin fidr -- gc \
  --tenants 4 --blocks 64 --rounds 3 --delete-pct 40 \
  --metrics-out "$GC_DIR/metrics-repeat.json" > /dev/null
diff "$GC_DIR/metrics.json" "$GC_DIR/metrics-repeat.json"
echo "    repeat run byte-identical"

# Live-telemetry smoke test: serve with a fast sampler, drive verified
# traffic, then scrape the still-running server in-band — JSON,
# Prometheus text and one `fidr top` frame — and shape-check all three.
# conns-limit counts the 4 traffic connections plus the 3 scrape
# connections, so the server auto-drains only after the last scrape.
# CI uploads the scrape files as inspectable artifacts.
echo "==> live telemetry scrape smoke"
TELEM_DIR="${TELEM_DIR:-target/ci-telemetry}"
mkdir -p "$TELEM_DIR"
rm -f "$TELEM_DIR/port" "$TELEM_DIR/scrape.json" "$TELEM_DIR/scrape.prom"
cargo run --release -q --bin fidr -- serve \
  --port 0 --port-file "$TELEM_DIR/port" --conns-limit 7 --sample-ms 50 \
  --metrics-out "$TELEM_DIR/metrics.json" > "$TELEM_DIR/serve.log" &
TELEM_PID=$!
tries=0
while [ ! -s "$TELEM_DIR/port" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "telemetry server never wrote its port file" >&2
    kill "$TELEM_PID" 2> /dev/null || true
    exit 1
  fi
  sleep 0.1
done
TELEM_ADDR="$(cat "$TELEM_DIR/port")"
cargo run --release -q --bin fidr -- client --addr "$TELEM_ADDR" --conns 4 --ops 200
# Let a sampler tick land after the traffic so the ring is non-empty.
sleep 0.2
cargo run --release -q --bin fidr -- scrape --addr "$TELEM_ADDR" \
  --out "$TELEM_DIR/scrape.json"
cargo run --release -q --bin fidr -- scrape --addr "$TELEM_ADDR" --prom \
  --out "$TELEM_DIR/scrape.prom"
cargo run --release -q --bin fidr -- top --addr "$TELEM_ADDR" --iters 1 \
  > "$TELEM_DIR/top.txt"
wait "$TELEM_PID"
grep -q '"schema": "fidr.timeseries.v1"' "$TELEM_DIR/scrape.json"
grep -q '"seq": ' "$TELEM_DIR/scrape.json"
grep -q '"streams": \[' "$TELEM_DIR/scrape.json"
grep -q '# TYPE fidr_server_ops_write_count counter' "$TELEM_DIR/scrape.prom"
grep -q '^fidr_server_window_ops_rate ' "$TELEM_DIR/scrape.prom"
grep -q '^fidr top' "$TELEM_DIR/top.txt"
echo "    $(grep -c '"seq": ' "$TELEM_DIR/scrape.json") timeseries samples scraped in-band"

# 2-node cluster loopback smoke: stand two serving nodes up, install
# the consistent-hash bootstrap map, age the fleet with churn (writes,
# overwrites, deletes) through a self-draining `fidr route` front tier
# and verify the survivors through it, drive multi-tenant open-loop
# traffic through the fan-out client (inline read verification), drain
# node 2 — its blocks rehome to the survivor and the process exits on
# its own — then prove zero acked-write loss by re-reading every block
# the schedule wrote through the survivor. CI uploads both nodes'
# drain-time metrics as inspectable artifacts.
echo "==> 2-node cluster loopback smoke"
CLUSTER_DIR="${CLUSTER_DIR:-target/ci-cluster}"
mkdir -p "$CLUSTER_DIR"
rm -f "$CLUSTER_DIR/port1" "$CLUSTER_DIR/port2" "$CLUSTER_DIR/front-port" \
  "$CLUSTER_DIR/node1-metrics.json" "$CLUSTER_DIR/node2-metrics.json"
# Node 1 accepts exactly 13 connections across the scripted sequence:
# bootstrap reshard (map fetch + install = 2), front tier (its map
# fetch + one backend connection for each of the 2 clients it fronts —
# every fronted connection opens one backend connection per node = 3),
# open-loop client (map fetch + 2 fan-out workers = 3), drain reshard
# (map fetch + node 2's rehome push + survivor install = 3), verify
# client (map fetch + 1 device = 2) — then auto-drains and writes its
# metrics. Node 2 exits via the drain handoff, so it needs no
# connection budget.
cargo run --release -q --bin fidr -- serve \
  --port 0 --node-id 1 --port-file "$CLUSTER_DIR/port1" --conns-limit 13 \
  --metrics-out "$CLUSTER_DIR/node1-metrics.json" > "$CLUSTER_DIR/node1.log" &
NODE1_PID=$!
cargo run --release -q --bin fidr -- serve \
  --port 0 --node-id 2 --port-file "$CLUSTER_DIR/port2" \
  --metrics-out "$CLUSTER_DIR/node2-metrics.json" > "$CLUSTER_DIR/node2.log" &
NODE2_PID=$!
for f in port1 port2; do
  tries=0
  while [ ! -s "$CLUSTER_DIR/$f" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
      echo "cluster node never wrote $f" >&2
      kill "$NODE1_PID" "$NODE2_PID" 2> /dev/null || true
      exit 1
    fi
    sleep 0.1
  done
done
NODE1_ADDR="$(cat "$CLUSTER_DIR/port1")"
NODE2_ADDR="$(cat "$CLUSTER_DIR/port2")"
cargo run --release -q --bin fidr -- reshard --nodes "$NODE1_ADDR,$NODE2_ADDR"
# Front-tier hop: a plain single-node client churns through `fidr
# route`, so deletes are routed by the shard map like writes, and the
# front tier drains itself once its 2 connections have closed. It runs
# before the open-loop traffic because both lay tenants out from LBA 0:
# the later writes simply overwrite what churn left behind.
cargo run --release -q --bin fidr -- route --nodes "$NODE1_ADDR,$NODE2_ADDR" \
  --port 0 --port-file "$CLUSTER_DIR/front-port" --conns-limit 2 \
  > "$CLUSTER_DIR/front.log" &
FRONT_PID=$!
tries=0
while [ ! -s "$CLUSTER_DIR/front-port" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "front tier never wrote its port file" >&2
    kill "$NODE1_PID" "$NODE2_PID" "$FRONT_PID" 2> /dev/null || true
    exit 1
  fi
  sleep 0.1
done
FRONT_ADDR="$(cat "$CLUSTER_DIR/front-port")"
cargo run --release -q --bin fidr -- client --addr "$FRONT_ADDR" --mode churn
cargo run --release -q --bin fidr -- client --addr "$FRONT_ADDR" --mode churn-verify
wait "$FRONT_PID"
grep -q ' 0 connection errors' "$CLUSTER_DIR/front.log"
if grep -q '/ 0 deletes routed' "$CLUSTER_DIR/front.log"; then
  echo "front tier routed no deletes: $(cat "$CLUSTER_DIR/front.log")" >&2
  exit 1
fi
cargo run --release -q --bin fidr -- client --nodes "$NODE1_ADDR,$NODE2_ADDR" \
  --mode open --conns 2 --ops 300 --tenants 8
cargo run --release -q --bin fidr -- reshard --nodes "$NODE1_ADDR,$NODE2_ADDR" \
  --drain 2
wait "$NODE2_PID"
# Same spec as the traffic run: the verify pass re-derives every
# written block from it and must find all of them on the survivor.
cargo run --release -q --bin fidr -- client --nodes "$NODE1_ADDR" \
  --mode verify --ops 300 --tenants 8
wait "$NODE1_PID"
for m in node1-metrics.json node2-metrics.json; do
  grep -q '"schema": "fidr.metrics.v1"' "$CLUSTER_DIR/$m"
  grep -q '"server.frames.rejected.count": { "type": "counter", "value": 0 }' \
    "$CLUSTER_DIR/$m"
done
writes_on() {
  grep -o '"server.ops.write.count": { "type": "counter", "value": [0-9]*' \
    "$CLUSTER_DIR/$1" | grep -o '[0-9]*$'
}
W1="$(writes_on node1-metrics.json)"
W2="$(writes_on node2-metrics.json)"
if [ "$W1" -eq 0 ] || [ "$W2" -eq 0 ]; then
  echo "consistent-hash routing did not spread writes: node1=$W1 node2=$W2" >&2
  exit 1
fi
echo "    writes spread node1=$W1 node2=$W2, drain handed off, survivor verified"
echo "    $(grep 'front tier drained' "$CLUSTER_DIR/front.log")"

# Wall-speedup regression gate: the persistent worker pool must keep
# real wall-clock batch throughput scaling with --workers. Every worker
# count now hashes with the same kernel, so wall_speedup_4x measures
# threading alone. The 1.2x threshold was calibrated when the 1-worker
# arm still hashed on the scalar core and the 4-worker arm on the lane
# kernel (>= 1.5x in BENCH_pr6.json, 0.94x pre-pool in BENCH_pr4.json),
# i.e. it included a ~4x hashing advantage that is gone: it is pending
# re-measurement on a >= 4-CPU host (none was available when the
# kernels were unified; a 2-CPU host shows 0.87x with hash_kernel=sha-ni)
# and may need lowering. The gate auto-skips when the host exposes fewer
# than 4 CPUs (thread-level wall timing is meaningless there);
# FIDR_SKIP_WALL_GATE=1 forces a skip on any host. The determinism gates
# above always run.
HOST_CPUS="$(nproc 2> /dev/null || getconf _NPROCESSORS_ONLN 2> /dev/null || echo 1)"
if [ "${FIDR_SKIP_WALL_GATE:-0}" = "1" ]; then
  echo "==> wall-speedup gate (skipped: FIDR_SKIP_WALL_GATE=1)"
elif [ "$HOST_CPUS" -lt 4 ]; then
  echo "==> wall-speedup gate (skipped: host_cpus=$HOST_CPUS < 4)"
else
  echo "==> wall-speedup gate (4-worker wall speedup >= 1.2x)"
  WALL_OUT="${WALL_OUT:-target/ci-worker-scaling.txt}"
  FIDR_BENCH_OPS="${WALL_GATE_OPS:-4000}" cargo bench -q -p fidr-bench \
    --bench ablation_worker_scaling > "$WALL_OUT"
  SPEEDUP="$(sed -n 's/^worker-scaling: wall_speedup_4x=\([0-9.]*\).*/\1/p' "$WALL_OUT")"
  if [ -z "$SPEEDUP" ]; then
    echo "ablation_worker_scaling printed no wall_speedup_4x line" >&2
    exit 1
  fi
  if ! awk -v s="$SPEEDUP" 'BEGIN { exit !(s >= 1.2) }'; then
    echo "wall_speedup_4x=$SPEEDUP < 1.2: worker-pool wall scaling regressed" >&2
    echo "(FIDR_SKIP_WALL_GATE=1 bypasses this gate on unsuitable hosts)" >&2
    exit 1
  fi
  echo "    wall_speedup_4x=$SPEEDUP ($(grep -o 'hash_kernel=.*' "$WALL_OUT"))"
fi

echo "All checks passed."
