#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload probe|scan|ingest_wire --seed N \
#        --seconds S --trace 0|1
# Run from the root of the repository. The last line of standard output
# is the result as JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
# the dune cache lives outside the checkout; keep every build in it
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
# One core of work: the client and the in-process server hand each
# request to each other, and a hand-off across vCPUs waits on the
# hypervisor. Pinning keeps the measurement on the program.
pin=()
if command -v taskset >/dev/null; then
  pin=(taskset -c "$(($(nproc) - 1))")
fi
exec "${pin[@]}" ./_build/default/perfbench/main.exe "$@"
