#!/usr/bin/env bash
# Build the benchmark from the checkout this script lives in and run it.
# Arguments go to run.exe:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
# The dune cache stays off: a run reads and writes only inside the checkout.
exec dune exec --root . --cache=disabled --no-print-directory --display quiet -- ./perfbench/run.exe "$@"
