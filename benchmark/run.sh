#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the checkout root, then runs it from the root with the
# arguments it was given. Every file the Go toolchain writes (build cache,
# temporary files) is kept under .bench_build/ too, so nothing outside the
# checkout is touched. In a directory without the repository's own packages
# the build fails and the script exits non-zero before printing anything.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
sha="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$here" && go build -buildvcs=false -ldflags "-X main.gitSHA=$sha" -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
