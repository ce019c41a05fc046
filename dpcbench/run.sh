#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash dpcbench/run.sh --workload chain-steady --seed 7 --seconds 12 --trace 0
#
# Everything the build writes (binary, Go build cache) goes to .bench_build
# at the root of the checkout. The benchmark is a module of its own that
# reaches the system's packages through a replace of the module one
# directory up, so outside a full checkout the build fails and nothing runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/dpcbench" .) >&2
cd "$root"
exec "$out/dpcbench" "$@"
