#!/usr/bin/env bash
# Builds the benchmark driver from source inside the checkout and runs it
# with the given flags. The build cache and the binary live under
# bench/out, so nothing is read or written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p bench/out
export GOCACHE="$root/bench/out/gocache" GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o out/bench .
exec bench/out/bench "$@"
