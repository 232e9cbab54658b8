#!/usr/bin/env bash
# Builds the benchmark (a module of its own, see go.mod) into .bench_build/
# at the root of the checkout and runs it from there, passing every
# argument through. Everything the Go toolchain writes — build cache,
# GOPATH, telemetry — is redirected under .bench_build/ so a run reads and
# writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home"
export KGLIDS_BENCH_GIT_SHA="${KGLIDS_BENCH_GIT_SHA:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
(
	cd bench
	env -u XDG_CACHE_HOME -u XDG_CONFIG_HOME HOME="$build/home" GOCACHE="$build/gocache" \
		GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
		go build -o "$build/kglids-perfbench" .
)
exec "$build/kglids-perfbench" "$@"
