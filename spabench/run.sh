#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs it
# with the given arguments (see README.md). Run from the repository root:
#
#   bash spabench/run.sh --workload suite-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/spabench" && go build -o "$out/spabench" .)
exec "$out/spabench" "$@"
