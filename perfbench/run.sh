#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the arguments given. Run from the repository root:
#
#   bash perfbench/run.sh --workload runahead-mem --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -trimpath -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$here" -root "$root" "$@"
