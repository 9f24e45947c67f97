#!/bin/sh
# Builds the benchmark and runs it with the given arguments, e.g.
#
#   sh bench/run.sh --workload s3-attack --seed 1 --seconds 26 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the binary, the Go build cache, temporary files and the
# Go tool's telemetry. The build is offline: no module proxy, no toolchain
# download.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/twicebench" .)
exec "$out/twicebench" "$@"
