#!/bin/sh
# Argument contract of perf_smoke (see the header of examples/perf_smoke.cpp):
# a min_ratio or mot_cap that is not wholly a valid number is a setup error,
# exit 2, reported before the slice runs. A typo must never run the CI gate
# with its floor silently at 0 or its candidate cap wrapped around.
# Driven as a tier-1 ctest: $1 is the perf_smoke binary.
set -u

BIN="${1:?usage: perf_smoke_args_test.sh <perf_smoke binary>}"
fail=0

expect_setup_error() {
  desc="$1"; shift
  out=$("$BIN" "$@" 2>&1)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: $desc: expected exit 2, got $rc" >&2
    fail=1
  elif printf '%s\n' "$out" | grep -q "perf smoke:"; then
    echo "FAIL: $desc: the slice started despite the bad argument" >&2
    fail=1
  else
    echo "ok: $desc (exit $rc)"
  fi
}

expect_setup_error "non-numeric floor" abc
expect_setup_error "negative candidate cap" 1.3 -1
expect_setup_error "trailing characters on the floor" 2x
expect_setup_error "trailing characters on the cap" 1.3 25x
expect_setup_error "zero floor" 0
expect_setup_error "negative floor" -1.3
expect_setup_error "empty floor" ""
expect_setup_error "extra argument" 1.3 25 7

exit "$fail"
