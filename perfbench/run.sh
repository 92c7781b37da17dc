#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload tpch22|serve|heal --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, the binary, the
# CPU profile and the span trace all stay under .bench_build/; nothing
# is fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
