#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build in the
# current directory (the Go build cache included). The build needs the
# repository's own module one directory up, so outside a checkout it fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The Go tools keep their build cache, module cache and telemetry counters
# under the home directory unless told otherwise.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# Not exec: a process keeps its reaped children's peak RSS across exec, so
# the build's would show up in the benchmark's max_rss_mb.
"$out/perfbench" -dir "$out" "$@"
