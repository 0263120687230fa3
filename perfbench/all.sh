#!/usr/bin/env bash
# Run every workload, untraced and then traced, from the repository root.
# usage: bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed=${1:-0}
seconds=${2:-30}
for workload in points-pipeline glyphs-train glyphs-erase-eval; do
    for trace in 0 1; do
        python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
