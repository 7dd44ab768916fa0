#!/usr/bin/env bash
# Builds the system under test and the harness from source, then runs
# the harness. Everything the build and the run write (Go build cache,
# binaries, temp dirs, WAL directories) stays under .bench_build/ in
# the checkout; nothing is compiled inside a timed section.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root" && go build -o "$build/bin/" ./cmd/ehnad ./cmd/ehnad-mkstore) >&2
(cd "$root/bench" && go build -o "$build/bin/ehna-bench" .) >&2

exec "$build/bin/ehna-bench" -root "$root" -bin "$build/bin" "$@"
