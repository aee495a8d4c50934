#!/usr/bin/env bash
# Builds the benchmark and dashd from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload churn-seq --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh compare -base A.jsonl -new B.jsonl
#
# Everything it writes (Go build cache, the go tool's config, binaries,
# snapshots, span files) goes under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

t0=$(date +%s.%N)
(cd bench && go build -o "$out/bench" .)
go build -o "$out/dashd" ./cmd/dashd
t1=$(date +%s.%N)

if [ "${1:-}" = compare ]; then
	exec "$out/bench" "$@"
fi
exec "$out/bench" --dashd "$out/dashd" --workdir "$out" \
	--build-s "$(awk -v a="$t0" -v b="$t1" 'BEGIN { print b - a }')" "$@"
