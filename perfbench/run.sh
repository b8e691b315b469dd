#!/usr/bin/env bash
# Builds the merlind daemon and the benchmark from source, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload allpairs-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --summarize      # median/quartile table of the ledger
#
# Every build product, the Go build cache, merlind data dirs, traces and the
# run ledger live under $CARGO_TARGET_DIR (default .bench_build), inside the
# checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/merlind" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/merlind, perfbench/)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/home"

# Keep the toolchain's caches and config inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off CGO_ENABLED=0

go build -o "$out/bin/merlind" ./cmd/merlind >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -merlind "$out/bin/merlind" -state "$out/perfbench" "$@"
