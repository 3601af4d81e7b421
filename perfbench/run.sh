#!/usr/bin/env bash
# Builds the benchmark driver from the source tree and runs it. Run from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload medium-kmp --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and temporary files, and the traced runs'
# span files all live under .bench_build/perfbench in the current directory;
# nothing is fetched.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
