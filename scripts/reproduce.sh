#!/usr/bin/env bash
# Reproduce the full evaluation: build, test, run every table/figure bench.
# Speed figures come from the layered benchmark instead:
#   python3 perfbench/run.py --workload all
#
# Usage:
#   scripts/reproduce.sh [results-dir] [extra bench flags...]
# Example (paper-scale streams, CSV export):
#   scripts/reproduce.sh results --patterns 5000
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
results_dir=${1:-"$repo_root/results"}
shift || true
bench_flags=("$@")

cd "$repo_root"
cmake -B build -G Ninja
cmake --build build

echo "== tests ==" | tee "$results_dir.test.log" >/dev/null 2>&1 || true
mkdir -p "$results_dir"
ctest --test-dir build --output-on-failure 2>&1 | tee "$results_dir/tests.log"

for bench in build/bench/bench_*; do
  [ -x "$bench" ] || continue
  name=$(basename "$bench")
  echo "== $name =="
  "$bench" --csv "$results_dir/csv" "${bench_flags[@]}" 2>&1 |
    tee "$results_dir/$name.log"
done

echo
echo "results written to $results_dir/"
