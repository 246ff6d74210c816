#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see main.go). Run from the repository root:
#
#	bash perfbench/run.sh --workload lamb-1f1b --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, the ring's Unix
# sockets and the CPU profile of a traced run.
set -euo pipefail

root=$(pwd)
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/perfbench" && TMPDIR=$build/tmp go build -o "$build/perfbench" .)

# A relative TMPDIR keeps the ring's socket paths short whatever the
# checkout's path length (Unix socket paths are limited to ~100 bytes).
TMPDIR=.bench_build/tmp exec "$build/perfbench" "$@"
