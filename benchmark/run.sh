#!/usr/bin/env bash
# Builds the fidr server and the benchmark harness from the checked-out
# sources (release, offline), then runs the harness with the given flags:
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#
# Run from anywhere; it works from the repo root. Both builds share one
# target directory: $CARGO_TARGET_DIR if set, else target/ at the root.
# Build time is not part of any metric: nothing is timed before the
# harness starts.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f Cargo.toml ] || [ ! -d src ]; then
    echo "error: no fidr sources next to benchmark/: the benchmark builds the server it measures" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Always --release: a debug server or harness is an error, not a warning
# (the harness refuses to run as one).
cargo build --release --offline --quiet --bin fidr >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/fidr-benchmark" \
    --server-bin "$CARGO_TARGET_DIR/release/fidr" "$@"
