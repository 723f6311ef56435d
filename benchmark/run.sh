#!/usr/bin/env bash
# The one command of the benchmark: builds the crate, then
#
#   run.sh                       every workload untraced, then traced; checks
#                                outputs; writes out/results.json and traces
#   run.sh --smoke               the same at tick counts / 50
#   run.sh --out DIR ...         write there instead of benchmark/out
#   run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#                                one run; the last line of standard output is
#                                the result object of BENCHMARK.json's contract
#   run.sh compare <a.json> <b.json> [--exact-sim]
#                                two results.json files against the bounds
#
# Exits non-zero when the build fails or an output check does not hold.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Build into the repository's target directory unless told otherwise. A
# relative CARGO_TARGET_DIR means relative to where the command was started.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to standard error; standard output stays the
# benchmark's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/servo-benchmark"

if [ "${1:-}" = "compare" ]; then
    shift
    exec "$bin" compare --benchmark-json "$root/BENCHMARK.json" "$@"
fi
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run --out "$here/out" "$@"
    fi
done
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$bin" suite --out "$here/out" --rustc "$(rustc -V)" --commit "$commit" "$@"
