#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; the arguments go to the benchmark, e.g.
#
#   bash benchmark/run.sh --workload match-small --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository: the binary, the Go build cache and the temporary registry
# directories. No module is downloaded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C benchmark build -o "$out/qmatch-bench" .
exec "$out/qmatch-bench" "$@"
