#!/usr/bin/env bash
# Build the harness and the snlb CLI from source, then run the
# benchmark; all arguments go to perfbench/main.exe (see main.ml).
# Run from the root of a source checkout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/main.exe bin/snlb_cli.exe 1>&2
exec _build/default/perfbench/main.exe --snlb _build/default/bin/snlb_cli.exe "$@"
