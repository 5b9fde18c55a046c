#!/usr/bin/env bash
# Builds the benchmark and mobiquery-serve from source, then runs one
# benchmark invocation from the root of a checkout:
#
#   bash perfbench/run.sh --workload dense-ondemand --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the span logs of traced runs go to
# $CARGO_TARGET_DIR when it is set, else .bench_build, so nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/perfbench" .)
(cd "$here/.." && go build -o "$out/mobiquery-serve" ./cmd/mobiquery-serve)
exec "$out/perfbench" -serve "$out/mobiquery-serve" -out "$out" "$@"
