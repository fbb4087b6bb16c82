#!/usr/bin/env bash
# Builds the RELIEF benchmark driver from the checkout's sources and runs it
# with the given arguments (see perfbench/README.md). Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload grid-paper --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, Go's own state
# directories) goes under CARGO_TARGET_DIR, default .bench_build, inside the
# checkout. The build step's output goes to stderr so that the last line of
# stdout stays the driver's JSON result.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home"

(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
		GOFLAGS=-mod=mod GOWORK=off \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" -out "$out" "$@"
