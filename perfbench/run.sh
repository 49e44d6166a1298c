#!/usr/bin/env bash
# End-to-end benchmark launcher. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --selftest
#
# It builds the harness (this directory, a module of its own) and the
# paschedd daemon from the sources in the current directory, keeping every
# build artefact under .bench_build/, then runs the harness with the given
# arguments. A failed build exits non-zero before anything is measured.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"

# Everything the toolchain writes (build cache, module cache, telemetry
# counters under the user config directory) stays inside the checkout.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
# GOMAXPROCS is pinned so runs on machines of different shapes stay
# comparable; the harness reports the value with every result.
export GOMAXPROCS=2

mkdir -p "$out/bin"
(cd "$here" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/paschedd" ./cmd/paschedd

exec "$out/bin/perfbench" --root "$root" --daemon "$out/bin/paschedd" "$@"
