#!/usr/bin/env bash
# Smoke gate for the wall-clock benchmark. Builds offline, runs the
# benchmark crate's tests, then runs every workload for two ops, untraced
# and traced (`wallbench --smoke`). Fails unless every metric named in
# BENCHMARK.json is printed with its unit and is finite, every per-layer
# metric belongs to exactly one workload's layers, no op fails, and the
# exact figures (simulated time, silent errors) agree between the
# untraced and the traced pass.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo build --offline --locked --release --manifest-path "$manifest"
cargo test --offline --locked --release -q --manifest-path "$manifest"
cargo run --offline --locked --release -q --manifest-path "$manifest" -- \
  --smoke --out benchmark/out/smoke
