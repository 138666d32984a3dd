#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Arguments go to the binary:
#   benchmark/run.sh --workload scan-agg --seed 1 --seconds 20 --trace 0
#   benchmark/run.sh all | check | trace <workload> | repeat K [--vary-seed]
# The build shares nothing with the root target/ unless CARGO_TARGET_DIR says so.
# No --locked and no committed Cargo.lock: every dependency is a path inside
# this repository, so a lock file pins nothing, and --locked would refuse to
# build as soon as a later change adds or drops a dependency between those crates.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
exec cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- "$@"
