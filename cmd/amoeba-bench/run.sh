#!/usr/bin/env bash
# Builds amoeba-bench from source and runs it with the given arguments:
#
#   bash cmd/amoeba-bench/run.sh --workload amoeba-day --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product (binary, Go build
# cache, temporary files) stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -C cmd/amoeba-bench -o "$build/amoeba-bench" .
exec "$build/amoeba-bench" "$@"
