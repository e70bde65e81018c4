#!/usr/bin/env bash
# Builds the server and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload read_hot --seed 1 --seconds 24 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root of
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
# The program is built from this checkout; without it there is nothing to
# measure, so stop before running any tool.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/imprecise" ]]; then
	echo "perfbench: no program to build in $root (want go.mod and cmd/imprecise)" >&2
	exit 1
fi
mkdir -p "$out/config/go/telemetry"
# Keep the toolchain's caches and settings inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod
# With telemetry on, the go command starts a detached child process that
# can outlive this script; turn it off for the toolchain run from here.
echo off >"$out/config/go/telemetry/mode"
(cd "$root" && go build -o "$out/imprecise" ./cmd/imprecise) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -bin "$out/imprecise" "$@"
