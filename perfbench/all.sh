#!/bin/sh
# Runs every workload for one seed, untraced and then traced, from the
# repository root, for 20 s each (BENCHMARK.json's `run_seconds`). Prints one
# line per run: workload, trace flag, result.
#
#   sh perfbench/all.sh <seed>
set -eu
seed=${1:?usage: sh perfbench/all.sh <seed>}
for trace in 0 1; do
    for workload in census-stream census-paper chart-analyze audit-churn; do
        result=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds 20 --trace "$trace" | tail -n 1)
        echo "$workload trace=$trace $result"
    done
done
