#!/bin/sh
# Builds the benchmark from source and runs it; every argument is passed
# through (see bench/README.md). Run it from the repository root:
#
#   bash bench/run.sh --workload table3 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the repository root, so a run writes nothing outside it.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOPATH="$out/home/go"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/selcache-bench" .)
exec "$out/selcache-bench" "$@"
