#!/usr/bin/env bash
# Builds the simbench command from this checkout's sources and runs it with
# the given arguments from the checkout root, e.g.
#
#   bash simbench/run.sh --workload oneshot-8tu --seed 1 --seconds 30 --trace 0
#
# The build cache, the Go command's own config and telemetry files, the
# binary and the benchmark's scratch files all stay inside the checkout,
# under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$root/simbench" -o "$out/simbench-bin" .
cd "$root"
exec "$out/simbench-bin" "$@"
