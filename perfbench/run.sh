#!/usr/bin/env bash
# Builds the benchmark and the tpserverd under test from the checkout it is
# started in, then runs one benchmark run. Start it from the repository root:
#
#   bash perfbench/run.sh --workload meteo-report --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build outputs, the Go build cache, generated data and server logs all stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tpserverd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/tpserverd and perfbench/)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/" . tpjoin/cmd/tpserverd)
exec "$out/bin/perfbench" -server "$out/bin/tpserverd" -workdir "$out/run" "$@"
