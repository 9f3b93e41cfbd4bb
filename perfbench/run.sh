#!/usr/bin/env bash
# Builds cdwd, etlvirtd and perfbench from the source tree this
# script sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload load_export --seed 1 --seconds 45 --trace 0
#   bash perfbench/run.sh compare old.txt new.txt
#
# Everything it writes stays under .bench_build/ at the repository root
# (binaries, the Go build cache, store directories and span files). Run it
# from the repository root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/work"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" # go telemetry lives there

(cd "$root" && go build -o "$build/bin/" ./cmd/cdwd ./cmd/etlvirtd)
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

if [ "${1:-}" = compare ]; then
	shift
	exec "$build/bin/perfbench" compare "$@"
fi
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
