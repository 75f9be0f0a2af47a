#!/usr/bin/env bash
# Reproducible parallel ingestion, run by `dune build @store-repro`
# (and dune runtest): over the generated Basic dataset, stores built by
# wqi_batch --store and wqi_crawl --store at --jobs 1, 2 and 4 must be
# byte-identical (diff -r), plain and under a parser instance cap.  The
# cap is an instance count, not a deadline, so every outcome (degraded
# ones included) is independent of timing.  Batch stdout and both
# CLIs' --quality-jsonl must match across --jobs as well.
set -euo pipefail

corpus_gen=$1
batch=$2
crawl=$3

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$corpus_gen" basic -o "$work/corpus" >/dev/null
docs="$work/corpus/Basic"

for cap in none 60; do
  cap_args=()
  [ "$cap" = none ] || cap_args=(--max-instances "$cap")
  for jobs in 1 2 4; do
    run="$work/cap-$cap/jobs-$jobs"
    mkdir -p "$run"
    "$batch" "$docs" --jobs "$jobs" "${cap_args[@]}" --store "$run/bstore" \
      --quality-jsonl "$run/batch.quality.jsonl" \
      >"$run/batch.jsonl" 2>/dev/null
    "$crawl" "$docs" --jobs "$jobs" "${cap_args[@]}" --store "$run/cstore" \
      --quality-jsonl "$run/crawl.quality.jsonl" 2>/dev/null
  done
  base="$work/cap-$cap/jobs-1"
  for jobs in 2 4; do
    if ! diff -r "$base" "$work/cap-$cap/jobs-$jobs" >"$work/diff.txt"; then
      echo "store-repro: --jobs $jobs differs from --jobs 1 (cap $cap):" >&2
      head -20 "$work/diff.txt" >&2
      exit 1
    fi
  done
  entries=$(wc -l <"$base/bstore/manifest.jsonl")
  echo "store-repro ok: cap $cap, $entries entries, jobs 1/2/4 identical"
done
