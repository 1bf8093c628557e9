#!/usr/bin/env bash
# Build the repository's binaries and the benchmark from source, then run
# one workload:
#
#   bash pbench/run.sh --workload msg_shm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Binaries go to $CARGO_TARGET_DIR (default
# target, the repository's own); pmrun, pmserve, patternlets and pbench
# must share it, because pbench starts the other three from its own
# directory.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p patternlets -p patternlets-serve --bins
cargo build --release --offline --quiet --manifest-path pbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/pbench" run "$@"
