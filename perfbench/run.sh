#!/usr/bin/env bash
# Builds the repository benchmark from the source tree it is run in, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-jbb --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build cache
# and the Go tool's own state stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
