#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The Go build cache, the build's temporary
# files, the go command's own state (GOPATH, telemetry counters under
# XDG_CONFIG_HOME) and the binary live in .bench_build/ under that root, so
# nothing is written outside it.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
unset GOFLAGS GOMODCACHE GOENV
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --root "$root" "$@"
