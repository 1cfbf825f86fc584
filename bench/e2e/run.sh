#!/usr/bin/env bash
# The end-to-end benchmark's one command (see README.md).
#
#   bench/e2e/run.sh                       one set: every workload, untraced
#                                          and traced, then the summary
#   bench/e2e/run.sh set [--runs N] [--results DIR]
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#   bench/e2e/run.sh report DIR
#   bench/e2e/run.sh compare BASE_DIR NEW_DIR
#
# Every form first builds Release into build-e2e/ at the repository root:
# a few minutes the first time, a no-op check after that.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no dbre source tree at $root to build and measure" >&2
  exit 2
fi

mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  if ! cmake -S "$here" -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >"$build/configure.log" 2>&1; then
    tail -n 40 "$build/configure.log" >&2
    rm -f "$build/CMakeCache.txt"
    exit 1
  fi
fi
if ! cmake --build "$build" --target dbre_bench -j "$(nproc)" \
    >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  exit 1
fi

if [[ $# -eq 0 ]]; then set -- set; fi
if [[ "$1" == --* ]]; then set -- run "$@"; fi
exec "$build/dbre_bench" "$@"
