#!/usr/bin/env bash
# The one command of the repository's benchmark: builds it, runs it,
# checks the outputs, prints every metric by name and unit.
#
#   benchmark/run.sh [--reps N] [--seed S] [--seconds T] [--trace] [--only W]
#       every workload, N times (default 1, seed 1, 10 s measured each);
#       prints `workload metric value unit` lines and host facts, writes
#       benchmark/out/results.json. --trace adds one traced run per
#       workload: the per-layer metrics, benchmark/out/<workload>.trace.json
#       and trace_overhead_pct.
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#       one run; the last line of output is its result as one JSON object
#       (end-to-end metrics untraced, per-layer metrics traced).
#   benchmark/run.sh --compare FIRST.json SECOND.json
#       applies every end-to-end metric's bound to two result sets and
#       reports each workload row as worse / same / unresolved.
#   benchmark/run.sh --table RESULTS.json
#       the README's trajectory table for a result set.
#   benchmark/run.sh --manifest
#       BENCHMARK.json, from the tables the program prints from.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$(nproc)" -lt 2 ]; then
    echo "benchmark/run.sh: $(nproc) core available, 2 needed: with the load generator" \
        "and the servers on one core the numbers would measure the scheduler" >&2
    exit 1
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/msp-benchmark"

case "${1:-}" in
--compare) exec "$bin" compare "${@:2}" ;;
--table) exec "$bin" table "${@:2}" ;;
--manifest) exec "$bin" manifest ;;
esac
for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bin" "$@"
    fi
done
exec "$bin" all "$@"
