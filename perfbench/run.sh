#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload serve-warm --seed 3 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own config and
# telemetry files stay in .bench_build (or $CARGO_TARGET_DIR when set)
# inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" \
  GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
