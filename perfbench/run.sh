#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything it builds or writes (the Go
# build cache, the binary, a traced run's spans) goes under
# $CARGO_TARGET_DIR, by default .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory as well.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans-dir "$build/spans" "$@"
