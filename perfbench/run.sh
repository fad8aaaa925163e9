#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, from the root of that tree:
#
#   bash perfbench/run.sh --workload recsys --seed 1 --seconds 36 --trace 0
#   bash perfbench/run.sh compare <result-dir-A> <result-dir-B>
#
# Everything the build and the runs write stays under .bench_build/ at
# the root: the Go build cache, the binary and the result files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
  echo "run.sh: run me from the root of the source tree" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"  # go env file and telemetry counters
export GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if [[ -z "${PERFBENCH_COMMIT:-}" ]]; then
  PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
  export PERFBENCH_COMMIT
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
