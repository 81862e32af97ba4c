#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash msbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
# Run from anywhere; it works in the checkout that holds this script.
# The dune cache is disabled so the build writes only under _build/.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./msbench/msbench.exe >&2
exec ./_build/default/msbench/msbench.exe "$@"
