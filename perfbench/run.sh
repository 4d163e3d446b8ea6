#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Build cache, temporary files and the binary stay in
# .bench_build under the directory it is started from (the checkout
# root), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
