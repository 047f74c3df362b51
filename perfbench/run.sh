#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload wire-bulk --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and the benchmark's work files stay
# under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
