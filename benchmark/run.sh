#!/bin/bash
# Builds the benchmark (and, through its path dependencies, the program
# under test) from source, then runs it with the arguments given:
#
#   bash benchmark/run.sh --workload vcl_fault_sweep --seed 7 --seconds 10 --trace 0
#
# Run from the root of the repository; results go to target/benchmark/.
set -eu
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark-build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/failmpi-benchmark" "$@"
