#!/usr/bin/env sh
# Capture the `cargo bench` results into a numbered baseline file.
#
#   scripts/capture_bench.sh BENCH_1.json
#   scripts/capture_bench.sh BENCH_1.json --compare BENCH_0.json
#
# Runs the bench suite, then collates target/criterion into the named
# BENCH_<n>.json via `sioscope baseline`. One `--bench hotpath`
# run produces all three baseline groups — `hotpath` (simulator),
# `analysis` (trace analytics engine), and `sched` (partition
# allocator churn plus the multi-job contention schedule); the
# collated document uses the multi-group sioscope-bench-baseline/2
# schema. Extra arguments are
# passed through (e.g. --compare OLD --bench full_registry_cold
# --min-speedup 1.5 to enforce the perf bar); the baseline is written
# either way.
set -eu

out="${1:?usage: scripts/capture_bench.sh BENCH_<n>.json [sioscope baseline args...]}"
shift

cargo bench -p sioscope-bench --bench hotpath
cargo run -p sioscope-bench --bin sioscope -- baseline --out "$out" "$@"
