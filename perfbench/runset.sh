#!/usr/bin/env bash
# Runs one set of benchmark runs into a directory, for compare mode:
# each workload once per seed, untraced, one file per run named
# <workload>.<seed>.txt. Run from the checkout's root:
#
#   bash perfbench/runset.sh DIR [SECONDS [SEEDS...]]
#   bash perfbench/run.sh compare DIR_A DIR_B
#
# WORKLOADS (space-separated) restricts the workloads; the default is
# every workload in BENCHMARK.json's order.
set -euo pipefail

dir=${1:?usage: runset.sh DIR [SECONDS [SEEDS...]]}
seconds=${2:-20}
shift $(( $# < 2 ? $# : 2 ))
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
	seeds=(1 2 3 4 5 6 7 8 9 10)
fi
workloads=${WORKLOADS:-schedule-repeat execute-unique paper-eval}

mkdir -p "$dir"
for seed in "${seeds[@]}"; do
	for w in $workloads; do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$dir/$w.$seed.txt"
		echo "$w seed $seed: $(tail -n 1 "$dir/$w.$seed.txt" | cut -c1-60)..." >&2
	done
done
