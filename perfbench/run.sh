#!/usr/bin/env bash
# Builds the mapping benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload search-heavy --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (compiler cache, binary, span files) stays
# under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"

export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOTMPDIR="${out}/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
mkdir -p "${GOTMPDIR}"

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
cd "${root}"
exec "${out}/perfbench" "$@"
