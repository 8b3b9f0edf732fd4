#!/bin/sh
# Entry point named by BENCHMARK.json. Builds the benchmark (its own module,
# importing the repo through a replace directive), then runs it; the benchmark
# builds cmd/xseqd itself. Everything the Go toolchain writes (build cache,
# temp files, module cache, its own telemetry counters) goes under
# .bench_build in the checkout. Run from the repo root:
#
#	sh benchmark/run.sh --workload mono_twig --seed 42 --seconds 20 --trace 0
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-modcacherw
go build -C "$root/benchmark" -o "$build/xseq-benchmark" .
exec "$build/xseq-benchmark" "$@"
