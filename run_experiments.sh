#!/bin/bash
# Regenerate every paper artifact under results/.
#
# Table III needs no simulation: `idasim list` prints it. Every other
# figure and table is a built-in `idasim sweep` grid: parallel across
# IDA_JOBS workers, journaled to results/<grid>.journal.jsonl so a killed
# run resumes where it left off, aggregate JSON in results/<grid>.json
# plus the rendered table in results/<grid>.txt. Knobs:
# IDA_SCALE=smoke|full, IDA_REQUESTS=N, IDA_JOBS=N.
set -euo pipefail
cd "$(dirname "$0")"

jobs="${IDA_JOBS:-$(nproc)}"
mkdir -p results

echo "=== build ==="
cargo build --release -p ida-cli

target/release/idasim list > results/table3.txt

for grid in fig4 table4 table5 fig6 fig8 fig9 fig10 fig11 blocks ablation; do
  echo "=== sweep $grid (jobs=$jobs) ==="
  target/release/idasim sweep "$grid" \
    --jobs "$jobs" \
    --journal "results/$grid.journal.jsonl" \
    --out "results/$grid.json" \
    --progress \
    > "results/$grid.txt" 2> "results/$grid.log"
  echo "done $grid"
done

echo "all experiments complete; outputs in results/"
