#!/usr/bin/env bash
# Builds skyperf from source into the checkout's .bench_build directory and
# runs it with the given arguments.  Everything the build and the run write
# (Go's build cache and temporary files, generated inputs, WAL directories,
# results) stays under .bench_build, inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

# HOME too: the go command keeps its own counters under the user's
# configuration directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

# The benchmark is its own module; it reaches the engine through the replace
# directive in go.mod, so a directory without the repository cannot build.
(cd "$here" && go build -o "$out/skyperf" ./skyperf)

cd "$root"
exec "$out/skyperf" "$@"
