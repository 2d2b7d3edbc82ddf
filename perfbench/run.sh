#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Every build output (binary, Go
# build cache and temporary files, Go configuration) stays under
# .bench_build/ in the current directory; build messages go to standard
# error, so the last line of standard output is the benchmark's result.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$bench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
