#!/usr/bin/env bash
# Build the release ndg-serve binary and the perfbench binary, then run
# perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold_mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); run records go to its perfbench-runs/ directory.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p ndg-serve --bin ndg-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --server "$target/release/ndg-serve" \
    --out "$target/perfbench-runs" "$@"
