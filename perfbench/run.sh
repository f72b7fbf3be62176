#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on, for example:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temporary files and the go
# command's own configuration and telemetry files stay under
# .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOFLAGS= \
  XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
