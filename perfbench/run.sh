#!/usr/bin/env bash
# Builds the fleet binaries (cmd/serve, cmd/route) and the benchmark from
# the tree this script sits in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload query-warm --seed 1 --seconds 30 --trace 0
#
# It always measures the tree it sits in, from whatever directory it is
# started. Every build output, the Go build cache and the fleet logs stay
# under .bench_build/ in that tree's root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# With telemetry on (the default "local" mode), a go command daemonizes a
# sidecar process that outlives it. "go telemetry off" starts none itself
# and records the mode under XDG_CONFIG_HOME, so no later go command here
# starts one either.
go telemetry off >&2

# Build output goes to stderr: the last line of stdout is the result.
go build -o "$out/bin/" ./cmd/serve ./cmd/route >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
# Flush the build's writes first, so their writeback does not land inside
# the measured window (the first run after a cold build read a p99 ten
# times that of the runs after it).
sync
exec "$out/bin/perfbench" -bin "$out/bin" -logs "$out/logs" "$@"
