#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload hot-read --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, temp files, point files, WAL
# directories, trace dumps) stays under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$(pwd)/$build" ;; esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
