#!/usr/bin/env bash
# The repo benchmark in one command: build the harness, then hand it the
# arguments.
#
#   benchmark/run.sh [--seed S] [--seconds T] [--quick]     every workload, both passes
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#   benchmark/run.sh --compare A.json B.json
#
# Builds offline from ../crates; exits non-zero if the build or any output
# check fails. See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# cargo's progress goes to stderr; stdout stays the benchmark's own
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
exec "$target/release/g500-benchmark" --out "$here/out" "$@"
