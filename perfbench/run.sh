#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#   bash perfbench/run.sh --workload orient-cold --seed 1 --seconds 25 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# run's scratch files stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/run"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -workdir "$out/run" -commit "$commit" "$@"
