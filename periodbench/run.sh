#!/usr/bin/env bash
# Builds periodbench from the sources of the checkout it is run in, then runs
# it. Run it from the repository root:
#
#   bash periodbench/run.sh --workload coupled --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, checkpoints and traces go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/core" || ! -f "$root/configs/coupled.json" ]]; then
	echo "periodbench: not at the root of a nektarg checkout (go.mod, internal/core or configs/coupled.json missing)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/periodbench"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$root/periodbench" && go build -o "$out/periodbench/periodbench" .)
exec "$out/periodbench/periodbench" -root "$root" -workdir "$out/periodbench" "$@"
