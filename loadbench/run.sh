#!/usr/bin/env bash
# Builds cpserve and the loadbench load generator from this checkout, then runs one
# benchmark workload against the freshly built cpserve. Run it from the
# repository root, for example:
#
#   bash loadbench/run.sh --workload batch-cold --seed 1 --seconds 24 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, cpserve data
# directories, trace files) lands under .bench_build/loadbench in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build/loadbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOFLAGS=-buildvcs=false
# With telemetry on, the first go command under a fresh config dir starts a
# detached upload process that outlives this script; `go telemetry off`
# itself starts none.
go telemetry off

go build -o "$out/cpserve" ./cmd/cpserve
(cd loadbench && go build -o "$out/loadbench" .)
exec "$out/loadbench" -cpserve "$out/cpserve" -work "$out" "$@"
