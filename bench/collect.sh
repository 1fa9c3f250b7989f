#!/usr/bin/env bash
# Runs every named workload (or those given) once per seed, for <count>
# seeds from <first-seed> on, and saves each run's stdout as
# <dir>/<workload>.trace<T>.seed<NNN>.out, the input of
# "bash bench/run.sh compare". Run it from the repository root:
#
#   bash bench/collect.sh <dir> <first-seed> <count> <trace 0|1> [workload ...]
#
# e.g. bash bench/collect.sh .bench_build/results/parent 1 10 0
set -euo pipefail

dir=$1 first=$2 count=$3 trace=$4
shift 4
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(compile-cold paper-sweep serve-repeat serve-unique)
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p "$dir"
for w in "${workloads[@]}"; do
	for seed in $(seq "$first" $((first + count - 1))); do
		name=$(printf '%s/%s.trace%s.seed%03d.out' "$dir" "$w" "$trace" "$seed")
		bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" >"$name"
		tail -n 1 "$name" | cut -c 1-160
	done
done
