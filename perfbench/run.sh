#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# checkout root; arguments pass through to the program:
#
#   bash perfbench/run.sh --workload prove-hot --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, per-run data directories and trace
# spans all stay under .bench_build in the checkout. The build log goes to
# standard error, so the result object stays the last line of standard output.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOENV=off \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .) >&2
commit=unknown
if [ -d "$root/.git" ]; then
  commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/perfbench" --root "$root" --commit "$commit" "$@"
