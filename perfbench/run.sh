#!/usr/bin/env bash
# Build the benchmark program from source, then run it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload tune-hill --seed 1 --seconds 30 --trace 0
#
# The build goes to _build/ inside the checkout and skips dune's shared
# cache, so nothing is written outside the checkout.  Build output goes to
# stderr; the last line the benchmark prints to stdout is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
