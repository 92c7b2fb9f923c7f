#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash perfbench/run.sh --workload city --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, module cache, temporary files, the binary, traced-run output)
# stays under .bench_build in the current directory, and nothing is
# downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
bin="$out/perfbench"
(cd "$root/perfbench" && go build -o "$bin.tmp.$$" .)
mv -f "$bin.tmp.$$" "$bin"
exec "$bin" "$@"
