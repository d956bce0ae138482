#!/usr/bin/env bash
# BENCHMARK.json's command: build pimbench from source into .bench_build/
# (the Go build cache, temp files and spill directories stay there too, so a
# run reads and writes only inside its checkout), then run it with the
# driver's arguments. The build is a cached no-op after the first run.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The benchmark process keeps its freed heap pages (MADV_FREE) instead of
# handing them back between operations: how many the runtime had returned by
# the time an operation started decided 4 000 to 60 000 minor faults and 10 to
# 190 ms of system time per sw_100k operation, run-to-run noise and not the
# program's.
export GODEBUG=madvdontneed=0
(cd "$root/bench" && go build -o "$build/pimbench" ./cmd/pimbench)
cd "$root"
exec "$build/pimbench" "$@"
