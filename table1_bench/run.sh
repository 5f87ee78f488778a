#!/usr/bin/env bash
# Builds the Table 1 benchmark and the shard_router binary it drives (both
# in release mode, into $CARGO_TARGET_DIR or table1_bench/target), then
# runs the benchmark with the given arguments. Run from the repository
# root:
#
#   bash table1_bench/run.sh --workload serve_warm --seed 7 --seconds 10 --trace 0
#   bash table1_bench/run.sh steady --workload serve_cold --runs 10 --seed 101
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --quiet --manifest-path "$manifest" --bin table1_bench >&2
cargo build --release --quiet --manifest-path "$manifest" -p restore-serve --bin shard_router >&2
exec "$target/release/table1_bench" "$@"
