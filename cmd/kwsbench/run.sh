#!/usr/bin/env bash
# Builds kwsbench from the sources of the checkout it is run from, then runs
# it with the given flags. Run it from the checkout's root:
#
#   bash cmd/kwsbench/run.sh --workload debug-warm --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache, temporary and config file go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/cmd/kwsbench" && go build -o "$out/kwsbench" .)
exec "$out/kwsbench" "$@"
