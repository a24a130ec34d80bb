#!/usr/bin/env bash
# Builds the dex end-to-end benchmark from the source tree it sits in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload explore-exact --seed 1 --seconds 10 --trace 0
#   bash e2ebench/run.sh --steady 10 --seconds 10
#
# The binary, the Go build cache, the go command's own config and
# telemetry files (XDG_CONFIG_HOME) and the span files go to
# .e2ebench-build/ under the current directory, so a run writes nothing
# outside it.
set -euo pipefail
out="$PWD/.e2ebench-build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
