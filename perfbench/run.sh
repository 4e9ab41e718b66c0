#!/usr/bin/env bash
# Builds khist-server and the perfbench binary from the checkout's
# sources, then runs perfbench with this script's arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload learn_cold --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, binaries, span dumps)
# stays under .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/khist-server ] || [ ! -d internal/serve ]; then
	echo "perfbench: run from the khist repository root (go.mod, cmd/khist-server and internal/serve are missing here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off

go build -o "$out/khist-server" ./cmd/khist-server
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server-bin "$out/khist-server" "$@"
