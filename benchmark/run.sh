#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload collect --seed 1 --seconds 15 --trace 0
#
# Build cache, temporary files, journals and trace output all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
# Keep the toolchain's caches and config (telemetry included) in $out.
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off
(cd "$root/benchmark" && go build -o "$out/whereru-benchmark" .)
exec "$out/whereru-benchmark" --out "$out" "$@"
