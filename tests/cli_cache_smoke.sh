#!/usr/bin/env bash
# One mrpf_synth run against a persistent solve-cache store: the run must
# exit 0 and print the expected `cache: H hits, M misses` line. The counts
# cover every solve of the run, so a bank solved twice in one run shows up
# as an extra hit. MRPF_CACHE is unset so an operator override cannot
# change the counts.
#
# Usage: cli_cache_smoke.sh /path/to/mrpf_synth STORE "EXPECTED LINE" [--fresh]
# --fresh deletes STORE first.
set -u

SYNTH="${1:?usage: cli_cache_smoke.sh mrpf_synth STORE EXPECTED [--fresh]}"
STORE="${2:?missing store path}"
EXPECTED="${3:?missing expected cache line}"
[ "${4:-}" = "--fresh" ] && rm -f "$STORE"
unset MRPF_CACHE

out="$("$SYNTH" --coeffs 7,66,17,9,27,41,57,11 --scheme cse --cache "$STORE" 2>&1)"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || { echo "mrpf_synth exit status $status, expected 0"; exit 1; }
printf '%s\n' "$out" | grep -qxF "$EXPECTED" || { echo "missing line: $EXPECTED"; exit 1; }
