#!/usr/bin/env bash
# Builds the servers under test and the benchmark into .bench_build/ at the
# repository root, then runs the benchmark with the given arguments. All
# build state (cache, temporaries, binaries) stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/bin/" ./cmd/korserve ./cmd/korrouter >&2
(cd bench && go build -o "$build/bin/bench" .) >&2
exec "$build/bin/bench" "$@"
