#!/usr/bin/env bash
# Build the benchmark from source and run it.
#
#   bash bench/perf/run.sh --workload kv-open --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result. Exits non-zero
# without a result when the tree it needs is missing or does not build.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f bench/perf/dune ]]; then
  echo "bench/perf/run.sh: run from the repository root (dune-project, lib/ and bench/perf/ needed)" >&2
  exit 2
fi

# The shared dune cache lives outside the tree; keep every build artifact
# in _build/.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/bftbench.exe 1>&2
exec ./_build/default/bench/perf/bftbench.exe "$@"
