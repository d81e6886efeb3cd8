#!/usr/bin/env bash
# Builds obsbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash obsbench/run.sh --workload daily-watch --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, traces) stays in
# .bench_build/ under the root.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/obsbench/go.mod" ]; then
	echo "run.sh: run from the repository root (go.mod and obsbench/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/obsbench" && go build -o "$build/obsbench" .)
cd "$root"
exec "$build/obsbench" "$@"
