#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload frac-line --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh --workload all --seed 1 >> runs.jsonl
#   bash bench/run.sh -compare parent.jsonl change.jsonl
#
# The binary, the Go build cache and the toolchain's own state go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; nothing is
# downloaded.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$out/opmbench" .
exec "$out/opmbench" "$@"
