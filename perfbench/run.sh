#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it. Run it
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload fd-merge-mem --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selftest
#
# The build and the run write only under .bench_build/ in the checkout: the
# Go build cache and temporary files, the binary, and the traced runs' span
# files.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
