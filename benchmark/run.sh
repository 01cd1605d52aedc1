#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# (or `repeat ...` / `compare A.json B.json`, see benchmark/README.md).
# Everything the build leaves behind -- build cache, module cache, temp
# files, go's own config and the binary -- goes under .bench_build/ in the
# checkout, and no process outlives the script: the binary replaces it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/config/go/telemetry" "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"

# Before the first go command: with telemetry in its default mode the go
# command starts a sidecar process that outlives the script, even when the
# build fails (this is what PR 11's benchmark was first refused for). The
# mode is read from go's config directory, which XDG_CONFIG_HOME moves here.
echo off > "$build/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"

# The benchmark is a module of its own that builds against the checkout's
# sources (replace dirigent => ../); in a directory without them this
# fails, the script exits non-zero, and nothing is printed on stdout.
(cd benchmark && go build -buildvcs=false -o "$build/bin/benchmark" .) 1>&2

exec "$build/bin/benchmark" "$@"
