#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash osirisbench/run.sh --workload paper_testbed --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (the Go build cache, the binary, trace files) goes under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/osirisbench" && go build -o "$out/osirisbench" .)
exec "$out/osirisbench" -out "$out" "$@"
