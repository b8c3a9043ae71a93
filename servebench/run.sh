#!/usr/bin/env bash
# Builds and runs the serving benchmark. Run it from the repository root:
#
#   bash servebench/run.sh --workload hot --seed 1 --seconds 8 --trace 0
#
# Every build product, cache and trace stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build at the repository root).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C servebench build -buildvcs=false -o "$build/servebench" .
exec "$build/servebench" -root "$root" -build "$build" "$@"
