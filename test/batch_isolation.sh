#!/usr/bin/env bash
# Per-document failure isolation for wqi_batch: poisoning a batch
# directory with an unreadable "document" (a directory named *.html)
# must leave stdout byte-for-byte identical — the failure is reported
# on stderr and counted in the summary, and every healthy document's
# JSONL line is unchanged.  Also: SIGPIPE hygiene of both producers,
# and wqi_extract given a directory as its FILE exits 2.
set -euo pipefail

batch=$1
fixtures=$2
extract=$3

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/docs"
cp "$fixtures"/*.html "$work/docs/"

# The instance cap degrades wide_form.html (its 400-row table builds
# 3205 instances), so the batch carries a degraded document next to the
# complete ones; a cap trips at the same instance on every run (unlike
# a wall-clock deadline), so stdout is reproducible across the two
# invocations.
run() { "$batch" --jobs 4 --max-instances 2000 "$work/docs"; }

run >"$work/clean.jsonl" 2>"$work/clean.err"

# The poison sorts last so healthy documents keep their gather indices,
# but isolation must hold regardless of position: also poison the front.
mkdir "$work/docs/aaa_poison.html" "$work/docs/zzz_poison.html"

run >"$work/poisoned.jsonl" 2>"$work/poisoned.err"

cmp "$work/clean.jsonl" "$work/poisoned.jsonl"
grep -q '"status": "failed"' "$work/poisoned.err"
grep -q '2 failed' "$work/poisoned.err"

echo "batch isolation ok: stdout identical with poisoned documents"

# SIGPIPE hygiene: a downstream reader that exits early (| head) must
# not kill the producer — the CLI ignores SIGPIPE, treats the broken
# pipe as end-of-output, and exits 0 rather than dying with signal 13
# (exit 141).  Both producers below emit more than the 64 KiB Linux
# pipe buffer, so they are guaranteed to write into the closed pipe.

# wqi_extract: the wide-form token/tree dump is ~85 KiB.
set +e
"$extract" --max-instances 2000 --tokens --trees \
  "$work/docs/wide_form.html" 2>/dev/null | head -n 5 >/dev/null
estat=${PIPESTATUS[0]}
set -e
if [ "$estat" -ne 0 ]; then
  echo "wqi_extract | head: producer exited $estat (want 0)" >&2
  exit 1
fi

# wqi_batch: 80 copies of a small interface make ~80 KiB of JSONL.
mkdir "$work/many"
for i in $(seq -w 1 80); do
  cp "$fixtures/books.html" "$work/many/books_$i.html"
done
set +e
"$batch" --jobs 4 --max-instances 2000 "$work/many" 2>/dev/null \
  | head -n 1 >/dev/null
bstat=${PIPESTATUS[0]}
set -e
if [ "$bstat" -ne 0 ]; then
  echo "wqi_batch | head: producer exited $bstat (want 0)" >&2
  exit 1
fi

echo "sigpipe hygiene ok: producers exit 0 into an early-closing reader"

# A directory named as wqi_extract's FILE is a bad argument like any
# other: exit 2 with a one-line message, not an uncaught exception.
set +e
"$extract" "$work/docs" >/dev/null 2>"$work/dir.err"
dstat=$?
set -e
if [ "$dstat" -ne 2 ] || [ "$(wc -l <"$work/dir.err")" -ne 1 ]; then
  echo "wqi_extract DIR: exited $dstat (want 2) with:" >&2
  cat "$work/dir.err" >&2
  exit 1
fi
grep -q 'is a directory' "$work/dir.err"

echo "bad FILE ok: a directory exits 2 with one line"
