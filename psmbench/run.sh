#!/usr/bin/env bash
# Builds psmbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash psmbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build artifact and cache stays under .bench_build in the current
# directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/psmbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOTELEMETRY=off
go -C "$root/psmbench" build -o "$out/psmbench" . >&2
exec "$out/psmbench" "$@"
