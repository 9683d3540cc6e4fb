#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments, e.g.
#
#   bash benchmark/run.sh --workload tasks --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files, the
# binary, run records and span files all go under .bench_build/.
set -euo pipefail
# /usr/local/go is where the official Go distribution installs.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/raybenchmark" .)
exec "$out/raybenchmark" "$@"
