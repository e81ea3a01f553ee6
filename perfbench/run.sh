#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# loopsched checkout:
#
#   bash perfbench/run.sh --workload mandel-hetero --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout: the Go build cache, temporary
# files, the binary, and the per-run records and span files in results/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config" "$out/results"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$out/perfbench" --out "$out/results" --commit "$commit" "$@"
