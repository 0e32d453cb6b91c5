#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload sim-paper --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build product, cache and trace file
# stays under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gopath" "${build}/home" "${build}/tmp"
export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export GOPATH="${build}/gopath"
export GOMODCACHE="${build}/gopath/pkg/mod"
export HOME="${build}/home"
export XDG_CONFIG_HOME="${build}/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

go -C "${root}/perfbench" build -o "${build}/perfbench" .
exec "${build}/perfbench" "$@"
