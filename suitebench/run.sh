#!/usr/bin/env bash
# Builds the suite benchmark from this checkout's sources and runs it,
# passing every argument through (see suitebench/README.md). Run it from
# the repository root. The binary, Go's build and module caches and the
# benchmark's temporary result-cache directories all stay under
# .bench_build, so nothing outside the checkout is written.
set -euo pipefail

if [[ ! -f go.mod ]]; then
	echo "suitebench: no go.mod here; run from the repository root" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# With telemetry on (the default is local mode), the go command starts a
# detached sidecar process that can outlive this script. Turn it off.
printf 'off\n' >"$build/config/go/telemetry/mode"

go build -o "$build/suitebench" ./suitebench
exec "$build/suitebench" "$@"
