#!/usr/bin/env bash
# Replay smoke of mrpf_fuzz: run the --ci gate, take the replay command it
# prints for the shrunk injected fault, run that command with the same
# binary and require it to reproduce the failure: exit 1 with
# "FAIL [cost oracle]". This proves the printed flags parse back to the
# case that failed, not just that the case fails in-process.
#
# Usage: fuzz_replay_smoke.sh /path/to/mrpf_fuzz
set -u

FUZZ="${1:?usage: fuzz_replay_smoke.sh /path/to/mrpf_fuzz}"

ci="$("$FUZZ" --ci)" || { printf '%s\n' "$ci"; echo "mrpf_fuzz --ci failed"; exit 1; }
line="$(printf '%s\n' "$ci" | grep -m1 'replay: mrpf_fuzz ')"
[ -n "$line" ] || { printf '%s\n' "$ci"; echo "no replay line printed"; exit 1; }
cmd="${line#*replay: mrpf_fuzz }"
read -r -a args <<< "$cmd"

out="$("$FUZZ" "${args[@]}" 2>&1)"
status=$?
echo "replay: mrpf_fuzz $cmd"
printf '%s\n' "$out"
[ "$status" -eq 1 ] || { echo "replay exit status $status, expected 1"; exit 1; }
case "$out" in
  "FAIL [cost oracle]"*) ;;
  *) echo "replay did not fail the cost oracle"; exit 1 ;;
esac
