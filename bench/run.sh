#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through. Build outputs (the Go build cache, the
# binary, trace files) stay inside the checkout, in $CARGO_TARGET_DIR when
# set and .bench_build otherwise.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# Keep the toolchain local and every cache it writes inside the checkout.
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config

(cd "$root/bench" && go build -o "$out/hypertap-bench" .)
cd "$root"
exec "$out/hypertap-bench" "$@"
