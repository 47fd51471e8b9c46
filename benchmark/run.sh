#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it. Everything the build writes (object cache, temporary files,
# the binary) goes under .bench_build/ of that checkout; results go to
# benchmark/out/. Arguments are passed on: see README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config" # go's telemetry counters live under the user config dir

(cd "$here" && go build -o "$build/admwirebench" .)

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$build/admwirebench" -out "$here/out" -commit "$commit" "$@"
