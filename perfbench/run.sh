#!/usr/bin/env bash
# Builds sharond and the benchmark from the tree this script sits in,
# then runs one benchmark invocation with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload traffic-shared --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the tree.
# With two or more CPUs and taskset available, the generator runs on
# the last CPU and the servers on the others.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$out/sharond" ./cmd/sharond >&2
(cd perfbench && go build -o "$out/perfbench-bin" .) >&2
args=(-sharond "$out/sharond" -rates perfbench/rates.json -work "$out/perfbench")
n="$(nproc)"
if [ "$n" -ge 2 ] && command -v taskset >/dev/null; then
  exec taskset -c "$((n - 1))" "$out/perfbench-bin" "${args[@]}" -server-cpus "0-$((n - 2))" "$@"
fi
exec "$out/perfbench-bin" "${args[@]}" "$@"
