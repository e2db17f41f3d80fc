#!/usr/bin/env bash
# Replay smoke: fuzz one seed under --expect-no-view-change (a planted
# failure), run the "replay:" line it prints, and require the replay to
# report the same "FAILED oracles" block and print the same replay line.
# A flag that replay lines name but bftctl no longer parses, or parses
# into a different setting, fails the check.
#
# Usage: replay_check.sh BFTCTL FUZZ-ARGS...
set -u
case $1 in
  */*) bftctl=$1 ;;
  *) bftctl=./$1 ;;
esac
shift

# runs "$@" and requires exit status 1 (a failing seed)
failing() {
  local out
  out=$("$@")
  local status=$?
  if [ "$status" -ne 1 ]; then
    echo "replay_check: expected exit 1 from: $*" >&2
    echo "replay_check: got $status" >&2
    exit 1
  fi
  printf '%s\n' "$out"
}

block() { sed -n '/^FAILED oracles:/,/^minimal schedule/p' | sed '$d'; }
replay() { sed -n 's/^replay: bftctl //p'; }

first=$(failing "$bftctl" fuzz --seeds 1 --expect-no-view-change "$@") || exit 1
line=$(printf '%s\n' "$first" | replay)
if [ -z "$line" ]; then
  echo "replay_check: no replay line for: $*" >&2
  exit 1
fi
second=$(eval "failing \"\$bftctl\" $line") || exit 1

want=$(printf '%s\n' "$first" | block)
got=$(printf '%s\n' "$second" | block)
if [ -z "$want" ] || [ "$want" != "$got" ]; then
  echo "replay_check: FAILED oracles block differs for: bftctl $line" >&2
  diff <(printf '%s\n' "$want") <(printf '%s\n' "$got") >&2
  exit 1
fi
if [ "$(printf '%s\n' "$second" | replay)" != "$line" ]; then
  echo "replay_check: replay line does not reproduce itself: bftctl $line" >&2
  exit 1
fi
echo "replay reproduces: bftctl $line"
