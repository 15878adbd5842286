#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout, then runs it with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload lan-hub --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, binary, temporary files)
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
go -C "$here" build -o "$out/perfbench" . >&2
cd "$root"
exec "$out/perfbench" "$@"
