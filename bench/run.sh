#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build and the run write stays under
# .bench_build/ there: the Go build cache, temporary files, the binary, WAL
# directories and span files. Nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
# The go command keeps its settings and counters under the user's
# configuration directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/globaldb-bench" .)
cd "$root"
exec "$build/globaldb-bench" "$@"
