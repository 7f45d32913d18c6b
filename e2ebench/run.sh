#!/usr/bin/env bash
# Builds the benchmark and the program it measures from this checkout, then
# runs one workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload sweep-cycle --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries, daemon stores and
# span files. Build output goes to stderr; stdout carries only the
# benchmark's own lines, the last of which is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The program first: without a repository around it the build fails here,
# before anything is measured or printed.
go build -o "$out/bin/" ./cmd/intervalsimd ./cmd/sweep >&2
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2

exec "$out/bin/e2ebench" --root "$root" --bin "$out/bin" "$@"
