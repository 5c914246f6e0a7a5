#!/usr/bin/env bash
# Builds the benchmark and the vsdserve daemon from the checkout in the
# current directory, then runs one measurement. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload certify-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache included). Build output goes to stderr;
# the last line of stdout is the result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/vsdserve" ] || [ ! -d "$root/examples/corpus" ]; then
	echo "perfbench: run from the repository root (no vsd sources in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off

go build -o "$out/bin/vsdserve" ./cmd/vsdserve >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -serve "$out/bin/vsdserve" -work "$out" "$@"
