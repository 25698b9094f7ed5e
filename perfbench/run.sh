#!/usr/bin/env bash
# Builds the mcml binary and the workload runner from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Build output goes to stderr; the
# runner's last stdout line is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an mcml checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true

# The dune cache lives outside the checkout; build without it.
dune build --root . --cache=disabled bin/main.exe perfbench/runner.exe 1>&2

# Not exec: the runner's getrusage(RUSAGE_CHILDREN) must not inherit
# this shell's reaped children (the build above).
./_build/default/perfbench/runner.exe "$@"
