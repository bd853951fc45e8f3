#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it; arguments go to
# pumi-pipeline (see README.md). Everything it writes stays inside the
# checkout: the binary and Go's build cache under .bench_build/, results
# under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/pumi-pipeline" ./cmd/pumi-pipeline)
exec "$build/pumi-pipeline" -out "$here/out" "$@"
