#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it from
# the repository root. Build outputs, including the Go build cache, stay
# under .bench_build/ in the checkout. Arguments pass through, e.g.:
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --root "$root" "$@"
