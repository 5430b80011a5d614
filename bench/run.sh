#!/bin/sh
# Builds the benchmark and the footsteps binary from source into
# .bench_build/ and runs one benchmark invocation with the given
# arguments. Run it from the repository root:
#
#   sh bench/run.sh --workload business30 --seed 1 --seconds 25 --trace 0
#
# Every file the Go toolchain and the benchmark write lands under
# .bench_build/ in the current directory: the build cache, the
# toolchain's temporary files and config, and the run's scratch space.
# The toolchain never touches the network: a missing module is a build
# error, not a download.
set -eu

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
    GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

cd "$root/bench"
go build -o "$out/bin/bench" .
go build -o "$out/bin/footsteps" footsteps/cmd/footsteps
cd "$root"
exec "$out/bin/bench" -footsteps "$out/bin/footsteps" "$@"
