#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache and the binary live
# in .bench_build/ so that nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files inside
# the checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
(cd "$root/perfbench" && XDG_CONFIG_HOME="$build/config" go build -buildvcs=false -o "$build/perfbench" .)
# The commit is recorded with every result; a checkout without .git
# reports "unknown".
commit=unknown
if [ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
		commit="$commit+dirty"
	fi
else
	commit=unknown
fi
PERFBENCH_COMMIT=$commit exec "$build/perfbench" "$@"
