#!/usr/bin/env bash
# Build provbench with the daemon and CLI it drives, then run it, e.g.
#
#   bash bench/e2e/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# from the root of a checkout.  Build output goes to stderr, so the last
# line of stdout stays the run's JSON result.  The dune cache is off so
# that the build reads and writes this checkout only.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . bench/e2e/provbench.exe bin/provdb.exe bin/provdbd.exe 1>&2
exec ./_build/default/bench/e2e/provbench.exe run "$@"
