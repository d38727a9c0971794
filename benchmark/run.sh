#!/usr/bin/env bash
# The end-to-end benchmark's one command. Builds seedb_server and the
# benchmark binaries into build-bench/ (configured once, then incremental),
# then runs harness.py, which prints the metrics and a final JSON line.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--smoke]
#
# Without --workload all four workloads run. Build output goes to stderr so
# stdout carries only results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target seedb_server loadgen layers -j "$(nproc)" >&2

exec python3 "$here/harness.py" --build-dir "$build" "$@"
