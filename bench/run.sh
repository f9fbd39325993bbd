#!/usr/bin/env bash
# Builds opbench from source and runs it with the arguments given. The
# Go build cache and every binary live under .bench_build/ in the
# checkout, so nothing outside the checkout is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build/bin"
(cd "$root/bench" && go build -o "$root/.bench_build/bin/opbench" ./cmd/opbench)
cd "$root"
exec "$root/.bench_build/bin/opbench" "$@"
