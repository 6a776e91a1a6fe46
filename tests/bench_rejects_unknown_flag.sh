#!/usr/bin/env bash
# A bench given an argument it does not know must print a usage line and
# exit 2 without running, so it writes no BENCH_*.json. The binary runs in
# an empty temporary directory that is checked afterwards.
#
# Usage: bench_rejects_unknown_flag.sh /path/to/bench_binary [ARGS...]
# ARGS default to `--bogus`.
set -u

BENCH="${1:?usage: bench_rejects_unknown_flag.sh BENCH [ARGS...]}"
shift
[ $# -gt 0 ] || set -- --bogus

DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
cd "$DIR" || exit 1

"$BENCH" "$@" > out.txt 2>&1
status=$?
if [ "$status" -ne 2 ]; then
  echo "FAIL: expected exit 2, got $status"
  cat out.txt
  exit 1
fi
if ! grep -q '^usage:' out.txt; then
  echo "FAIL: no usage line"
  cat out.txt
  exit 1
fi
written=$(find . -name 'BENCH_*.json' | head -1)
if [ -n "$written" ]; then
  echo "FAIL: wrote $written"
  exit 1
fi
echo "PASS: $(basename "$BENCH") $* -> exit 2, usage printed, nothing written"
