#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload tables --seed 2015 --seconds 10 --trace 0
# Run from the root of a checkout. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own messages go to standard error.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ring-perfbench" "$@"
