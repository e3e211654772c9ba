#!/usr/bin/env bash
# Builds the benchmark from the source checkout it is run in, then runs
# it with the given arguments. Run from the checkout's root:
#
#   bash perfbench/run.sh --workload schedule-repeat --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare DIR_A DIR_B
#
# Build products, the Go build cache and the traced run's spans go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp"
# Keep everything the go command writes (cache, temporary files, its
# configuration and telemetry) inside the checkout.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off

# The benchmark module resolves the repository's own module from the
# parent directory; outside a checkout this build fails and the script
# exits non-zero without printing a result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" --out "$out" "$@"
