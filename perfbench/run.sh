#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through, e.g.
#
#   bash perfbench/run.sh --workload scan-page --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# databases a run creates all live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# The build needs nothing beyond the standard library and this checkout:
# no proxy, no checksum database, no toolchain download. The go command's
# own files (caches, telemetry counters) go under .bench_build too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	GOFLAGS= GOENV=off GOWORK=off GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
