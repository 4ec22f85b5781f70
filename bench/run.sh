#!/usr/bin/env bash
# Builds ncload and the two servers from this checkout, then runs
# ncload with the given arguments. Everything the build and the run
# write stays inside the checkout: binaries, the Go build cache and its
# scratch space under .bench_build/, run artefacts under bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="${GOCACHE:-$build/gocache}" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/bin/" ./cmd/ncserver ./cmd/ncrouter)
(cd "$root/bench" && go build -o "$build/bin/ncload" ./ncload)
cd "$root"
if [ "${1:-}" = compare ]; then
	exec "$build/bin/ncload" "$@"
fi
exec "$build/bin/ncload" -bin "$build/bin" -outdir "$root/bench/out" "$@"
