#!/usr/bin/env bash
# Runs the four workloads round-robin N times (A B C D, A B C D, ...), so
# that a slow minute on the host lands on one repeat of every workload and
# not on every repeat of one, then prints the median and quartiles of every
# workload x metric.
#
#   benchmark/run.sh [--repeat N] [--seed BASE] [--set NAME]
#
# Results go to benchmark/out/sets/NAME/<workload>.<repeat>.json (one driver
# line each). Repeat i of every workload runs with seed BASE + i, so two
# sets with the same BASE use the same inputs:
#
#   benchmark/run.sh --repeat 3 --set a
#   benchmark/run.sh --repeat 3 --set b
#   cargo run --release --manifest-path benchmark/Cargo.toml -- \
#       --agree benchmark/out/sets/a benchmark/out/sets/b
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repeat=3
seed=1
set_name="default"
while [ $# -gt 0 ]; do
    case "$1" in
        --repeat) repeat="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --set) set_name="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --release --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/sss-benchmark"
out="$here/out/sets/$set_name"
rm -rf "$out"
mkdir -p "$out"

for i in $(seq 1 "$repeat"); do
    for workload in commit_path long_reads hot_keys net_delay; do
        echo "== repeat $i/$repeat: $workload (seed $((seed + i)))" >&2
        "$bin" --workload "$workload" --seed "$((seed + i))" --trace 0 \
            | tail -n 1 > "$out/$workload.$i.json"
    done
done

"$bin" --summary "$out"
