#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it. Run it from the repository root; every argument is passed on:
#
#   bash e2ebench/run.sh --workload cli-tune --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay under
# .bench_build in the checkout. Without the repository around this
# directory the build fails and the script exits non-zero.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
