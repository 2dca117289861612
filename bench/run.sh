#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags, from the
# repository root:  bash bench/run.sh [-seed 7]
# It is `go run ./bench` with the Go build cache, the build's scratch
# directory and the binary kept in bench/out/, so a checkout is all the
# build writes to.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p bench/out/tmp
export GOCACHE="$PWD/bench/out/gocache" GOTMPDIR="$PWD/bench/out/tmp"
go build -o bench/out/bench ./bench
exec bench/out/bench "$@"
