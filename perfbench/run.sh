#!/usr/bin/env bash
# Builds and runs the fftd benchmark. Run it from anywhere inside a
# checkout of the repository:
#
#   bash perfbench/run.sh --workload fft1d --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binaries, daemon logs and span files all land
# in .perfbench-build/ at the repository root; nothing is written
# elsewhere. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.perfbench-build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters and env file,
# and GOTMPDIR/TMPDIR its work directories, inside the build directory too.
# GOPROXY=off: everything builds from the checkout and nothing is fetched.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -out "$out" "$@"
