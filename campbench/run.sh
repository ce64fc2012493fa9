#!/usr/bin/env bash
# Builds the campbench benchmark from this checkout and runs it:
#   bash campbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build product, the Go build cache
# included, stays under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$out/campbench" .)
exec "$out/campbench" "$@"
