#!/usr/bin/env bash
# Builds cnrbench from source into .bench_build/ and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload full_fp32 --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh compare a.jsonl b.jsonl
#
# Everything the build writes stays inside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "run.sh: run from the root of a checkout (benchmark/ and the repro module side by side)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/cnrbench" .
exec "$build/cnrbench" "$@"
