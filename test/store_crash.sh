#!/usr/bin/env bash
# Crash-prefix check for wqi_batch --store, run by `dune build
# @store-repro` (and dune runtest): a --jobs 2 run is SIGKILLed after a
# range of delays.  Wherever the kill lands (before the first commit,
# mid-run, mid-manifest-line, or after completion), the store it leaves
#
#   - holds, in its complete manifest lines, exactly the keys of a
#     prefix of the sorted input (a closed store's manifest is
#     compacted into storage order, so keys are compared as sets);
#   - replays on reopen: a resumed run counts that prefix as hits and
#     the rest as new;
#   - resumes to stdout byte-identical to an uninterrupted run's.
set -euo pipefail

corpus_gen=$1
batch=$2

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$corpus_gen" --gen 400 --dup-prob 0 --seed 3 --out-dir "$work/docs" \
  >/dev/null
total=400

# "source key" per manifest line, in source (= input) order.
src_keys() {
  sed -n 's/.*"k":"\([0-9a-f]*\)".*"src":"\([^"]*\)".*/\2 \1/p' "$1" |
    LC_ALL=C sort
}

"$batch" "$work/docs" --jobs 2 --store "$work/full" >"$work/full.jsonl" \
  2>/dev/null
src_keys "$work/full/manifest.jsonl" >"$work/full.keys"
[ "$(wc -l <"$work/full.keys")" -eq "$total" ]

mid=0
for delay in 0 0.01 0.02 0.03 0.04 0.05 0.07 0.1 0.5; do
  store="$work/killed-$delay"
  "$batch" "$work/docs" --jobs 2 --store "$store" >/dev/null 2>&1 &
  pid=$!
  sleep "$delay"
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
  # Complete manifest lines only: a line torn by the kill has no
  # newline yet and is dropped at replay.
  n=0
  if [ -f "$store/manifest.jsonl" ]; then
    n=$(wc -l <"$store/manifest.jsonl")
    head -n "$n" "$store/manifest.jsonl" >"$work/complete.jsonl"
    src_keys "$work/complete.jsonl" >"$work/killed.keys"
    if ! head -n "$n" "$work/full.keys" | cmp -s - "$work/killed.keys"; then
      echo "store-crash: delay $delay: $n manifest keys are not a prefix" \
        "of the sorted input" >&2
      exit 1
    fi
  fi
  if [ "$n" -gt 0 ] && [ "$n" -lt "$total" ]; then mid=$((mid + 1)); fi
  "$batch" "$work/docs" --jobs 2 --store "$store" >"$work/resumed.jsonl" \
    2>"$work/resumed.err"
  if ! grep -q "store: $n hits, $((total - n)) new, 0 re-extracted" \
    "$work/resumed.err"; then
    echo "store-crash: delay $delay: reopened store did not replay its" \
      "$n-entry prefix:" >&2
    cat "$work/resumed.err" >&2
    exit 1
  fi
  cmp "$work/full.jsonl" "$work/resumed.jsonl"
done
echo "store-crash ok: 9 kills ($mid mid-run) left replayable input prefixes"
