#!/usr/bin/env bash
# Smoke check for CI or a reviewer: run the quick benchmark twice on one
# seed and compare the two result files. Two runs of one commit must agree
# within the benchmark's own bounds (counts exactly), so any `worse` row —
# or any failed correctness check — fails the script.
#
#   bash benchmark/check.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-42}"
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
"${run[@]}" --quick --seed "$seed" --out benchmark/out/check-a.json
"${run[@]}" --quick --seed "$seed" --out benchmark/out/check-b.json
"${run[@]}" --compare benchmark/out/check-a.json benchmark/out/check-b.json
