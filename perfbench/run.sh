#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload fig3-campaign --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write stays inside the checkout: the Go build and module caches, the go
# command's scratch space and config dir and the binary go to
# .bench_build/, spans and profiles to .bench_out/.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
mkdir -p "${GOTMPDIR}"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOFLAGS=

# The benchmark imports the repository's packages, so it only builds in a
# full checkout; anywhere else the build fails and so does this script.
go -C "${root}/perfbench" build -o "${build}/perfbench" .
exec "${build}/perfbench" "$@"
