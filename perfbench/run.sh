#!/usr/bin/env bash
# Builds the perfbench benchmark and the hybridschedd daemon from this
# checkout's sources, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload serve_ingest --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes lives
# under .bench_build/ (the Go build cache too), so a run touches nothing
# outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/" . hybridsched/cmd/hybridschedd) >&2
exec "$out/bin/perfbench" --daemon "$out/bin/hybridschedd" --out "$out" "$@"
