#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload table2|synthetic|serve --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, spill files, ledgers) stays under
# .bench_build/ in the checkout. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/config" "$out/gocache" "$out/tmp"

# The go command keeps its configuration and telemetry under
# XDG_CONFIG_HOME; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
