#!/usr/bin/env bash
# Builds PPD's end-to-end benchmark from the sources in the current
# directory (the repository root) and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload triage --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
if commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export PERFBENCH_COMMIT="$commit"
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
