#!/usr/bin/env bash
# Builds the end-to-end benchmark from source, then runs it with the
# given arguments.  Run from the root of a checkout, e.g.
#
#   bash bench/e2e/run.sh --workload serve --seed 7 --seconds 10 --trace 0
#
# Everything it writes stays in the checkout's _build/ (the shared dune
# cache is switched off).  Outside a full checkout it exits 2.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/e2e/run.sh: not a full checkout (no dune-project or lib/)" >&2
  exit 2
fi
dune build --root . --cache=disabled --display=quiet ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe "$@"
