#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload figures-quick --seed 7 --seconds 20 --trace 0
#
# The build cache, the binary and the Go tool's own state stay under
# .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
