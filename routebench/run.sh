#!/usr/bin/env bash
# Builds the router benchmark from source and runs it; see README.md.
#
#   bash routebench/run.sh --workload route-cold --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay in .bench_build/ at the
# root of the checkout, and module lookups never leave it.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/go"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/path" \
	XDG_CONFIG_HOME="$build/config" GOWORK=off GOFLAGS= GOPROXY=off \
	GOTOOLCHAIN=local GOTELEMETRY=off
export ROUTEBENCH_COMMAND="bash routebench/run.sh $*"
# The ceiling keeps git from searching above the checkout.
ROUTEBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
export ROUTEBENCH_COMMIT
cd "$here"
exec go run . "$@"
