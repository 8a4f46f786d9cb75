#!/usr/bin/env bash
# Tier-1 gate: build, full test suite, lints. Run from the repo root.
set -euo pipefail

cargo fmt --check
cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings
# Static verification: all passes, with the JSON report kept as a CI
# artifact. The committed RULES.md must match the in-code catalogue, the
# DFLOW mutation fixtures must fire, and the large static-vs-dynamic
# provenance sweep (2^5..2^7 leaves) runs release-only here.
mkdir -p target/report
cargo run --release -p orthotrees-verify --bin netlint -- --all --json > target/report/netlint.json
cargo run --release -p orthotrees-verify --bin rulegen | diff -u RULES.md - \
  || { echo "RULES.md is stale; regenerate with: cargo run -p orthotrees-verify --bin rulegen > RULES.md"; exit 1; }
cargo test --release -q -p orthotrees-bench --test dflow_suite
cargo test --release -q -p orthotrees-bench --test dflow_suite -- --ignored repertoire_agreement_holds_at_large_sizes
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
cargo run --release -p orthotrees-bench --bin benchdiff -- --baseline BENCH_2.json --json target/report/benchdiff.json
# Profiler smoke: regenerate the quick matrix in-process with the
# baseline's preset and seed, validate the document, and diff against the
# committed baseline (exit 1 on any completion/event/peak regression or
# hot-spot shift). The profile rule table's speedup floor gates the
# event-core microbench: the ladder calendar must stay at least 1.2×
# faster than the heap oracle in ns/event (measured ≈1.9× in release on
# the reference machine, so 1.2 absorbs CI noise).
cargo run --release -p orthotrees-bench --bin benchdiff -- --baseline PROF_7.json --json target/report/profdiff.json
# Wall-clock benchmark smoke (its own cargo workspace under benchmark/):
# every metric named in BENCHMARK.json printed and finite, no failed op,
# and the exact figures equal between the untraced and traced passes.
benchmark/check.sh
# Calendar identity gate: every engine-level probe must be bit-identical
# on the heap oracle and the ladder queue, snapshots must restore across
# calendars, and the committed /v1 fixture must match fresh bytes. The
# ignored sweep widens the grid to n = 128; see tests/calendar_suite.rs.
cargo test --release -q -p orthotrees-bench --test calendar_suite
cargo test --release -q -p orthotrees-bench --test calendar_suite -- --ignored full_probe_sweep_across_calendars
# Probe independence gate: every engine instrument must give the same
# result attached alone or with all five, and attaching them must leave
# the run bit-identical, clean and under link faults or node outages. The
# ignored sweep widens the grid to n = 128; see tests/probe_suite.rs.
cargo test --release -q -p orthotrees-bench --test probe_suite -- --ignored full_probe_sweep_of_instrument_independence
# Streaming-cost identity gates for the engine instruments: the batched
# quantile sketch must equal the one-at-a-time oracle tuple for tuple on
# streams long enough to cross compress points at ε = 0.0001, and the
# engine's O(1) busy-link count must equal the O(links) scan at every
# delivery up to n = 128, across restores; see crates/obs/src/telemetry.rs
# and tests/profile_suite.rs.
cargo test --release -q -p orthotrees-obs --lib -- --ignored batched_sketch_matches_the_oracle_on_long_streams
cargo test --release -q -p orthotrees-bench --test profile_suite -- --ignored footprint_identity_sweep
# Selector identity gate: every built-in Sel shape must be bit-, clock-,
# stat-, fault- and reach-identical to the closure it stands for, on every
# word-level executor of both networks. The ignored sweep widens the nets
# to n = 256 under dense fault plans with dark leaves; see
# crates/core/src/select.rs. The allocation pin holds both sorts at
# n = 256 to the recorded allocation counts; see tests/alloc_suite.rs.
cargo test --release -q -p orthotrees --lib -- --ignored shape_identity_sweep_under_dense_faults
cargo test --release -q -p orthotrees-bench --test alloc_suite
# Bounded recovery soak (fixed seed, outage-dense plan, n = 128): must
# recover within the pinned attempt budget; see tests/recovery_suite.rs.
cargo test --release -q -p orthotrees-bench --test recovery_suite -- --ignored ci_bounded_soak
# Snapshot determinism gate: the checkpoint_recovery example drives
# word-level snapshots, restore and supervised recovery end to end; two
# runs must print byte-identical output.
mkdir -p target/report
cargo run --release -q -p orthotrees-bench --example checkpoint_recovery > target/report/checkpoint_recovery.1.txt
cargo run --release -q -p orthotrees-bench --example checkpoint_recovery > target/report/checkpoint_recovery.2.txt
cmp target/report/checkpoint_recovery.1.txt target/report/checkpoint_recovery.2.txt
# Example smoke: every example under examples/ runs once in release, so
# their run-time call sites are exercised, not only compiled. They write
# only under target/.
for ex in examples/*.rs; do
  cargo run --release -q -p orthotrees-bench --example "$(basename "$ex" .rs)" > /dev/null
done
# Telemetry gate: regenerate the OpenMetrics + orthotrees-telemetry/v1
# exports (schema-checked in-process before writing) into target/report/,
# then run the identity/ε-band suite and its release-only ≥1000-problem
# pipeline sweep; see tests/telemetry_suite.rs.
cargo run --release -p orthotrees-bench --bin telemetry
test -s target/report/telemetry.json && test -s target/report/telemetry.om
cargo test --release -q -p orthotrees-bench --test telemetry_suite
cargo test --release -q -p orthotrees-bench --test telemetry_suite -- --ignored pipeline_slo_sustains_a_thousand_problems
