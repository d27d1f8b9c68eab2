#!/usr/bin/env bash
# Compares the figure and extension outputs of two bbsched builds byte for
# byte: a change meant to be bit-identical (a perf change, a refactor) must
# leave every one of them unchanged.
#
# Usage: tools/compare_outputs.sh <build-a> <build-b>
#
# Each argument is a CMake build tree (the directory holding bench/ and
# tools/). Runs fig1a, fig1b, fig2a/b/c, fig2_sweep, ext_smt, ext_faults and
# ext_qos with --csv, plus opt_solve --self-check, in both builds, and cmps
# each pair of stdout captures. Prints one line per output and exits 0 only
# if every run succeeded and every pair is identical. Takes about 15 s per
# build on a 4-thread machine.
set -u

if [ $# -ne 2 ] || [ ! -d "$1" ] || [ ! -d "$2" ]; then
  echo "usage: $0 <build-a> <build-b>" >&2
  exit 2
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0

# compare NAME BINARY ARGS...: BINARY is relative to each build tree.
compare() {
  local name=$1 binary=$2
  shift 2
  local side dir failed=0
  for side in a b; do
    if [ "$side" = a ]; then dir=$A; else dir=$B; fi
    if ! "$dir/$binary" "$@" >"$out/$name.$side" 2>"$out/$name.$side.err"; then
      echo "FAIL  $name ($dir/$binary exited non-zero)"
      failed=1
    fi
  done
  if [ $failed -ne 0 ]; then
    status=1
  elif cmp -s "$out/$name.a" "$out/$name.b"; then
    echo "same  $name"
  else
    echo "DIFF  $name"
    diff "$out/$name.a" "$out/$name.b" | head -n 10
    status=1
  fi
}

A=$1
B=$2
for bench in fig1a_bus_transactions fig1b_slowdown fig2a_saturated \
             fig2b_idle_bus fig2c_mixed fig2_sweep ext_smt ext_faults ext_qos; do
  compare "$bench" "bench/$bench" --csv
done
compare opt_solve tools/opt_solve --self-check

exit $status
