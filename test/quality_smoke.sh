#!/usr/bin/env bash
# End-to-end smoke of the extraction-quality observability layer, run
# by `dune build @quality-smoke` (and dune runtest):
#
#   - wqi_corpus_gen writes a small deterministic corpus;
#   - wqi_crawl ingests it emitting quality.jsonl, and the summary
#     carries the rolled-up mean score and the store's orphaned bytes;
#   - wqi_report renders the threshold curves from the records alone,
#     and from the store directory without re-extraction, and a manifest
#     line whose score overflows to infinity is dropped, not rolled up;
#   - a second, identical crawl (all store hits) drifts against the
#     first with zero regressions — exit 0;
#   - a budget-starved crawl (--max-instances 40) degrades every
#     document, and drift flags it with a non-zero exit.
set -euo pipefail

corpus_gen=$1
crawl=$2
report=$3

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$corpus_gen" --gen 12 --out-dir "$work/docs" --seed 7 >/dev/null

# --- cold crawl: records + summary rollup --------------------------

"$crawl" "$work/docs" --store "$work/store" --jobs 2 \
  --quality-jsonl "$work/q1.jsonl" --summary-json "$work/crawl1.json" \
  2>/dev/null
# One record per unique document: aliases are answered by the dedup
# pre-pass and never reach extraction.
uniq=$(grep -o '"unique":[0-9]*' "$work/crawl1.json" | cut -d: -f2)
[ "$(wc -l <"$work/q1.jsonl")" -eq "$uniq" ]
grep -q '"wqi_quality_version":1,' "$work/q1.jsonl"
grep -q '"store_orphaned_bytes":0,' "$work/crawl1.json"
grep -q '"mean_score":' "$work/crawl1.json"

# --- report: from the records, and from the store alone ------------

"$report" "$work/q1.jsonl" >"$work/report1.txt"
grep -q 'score>=0.5' "$work/report1.txt"
grep -q 'mean score' "$work/report1.txt"

# The persisted headline fields must reproduce the rollup without the
# jsonl: mean scores from both sources agree.
"$report" "$work/store" --json "$work/rs.json" >/dev/null
"$report" "$work/q1.jsonl" --json "$work/rq.json" >/dev/null
mean_store=$(grep -o '"mean_score":[0-9.e-]*' "$work/rs.json" | head -1)
mean_jsonl=$(grep -o '"mean_score":[0-9.e-]*' "$work/rq.json" | head -1)
[ -n "$mean_store" ] && [ "$mean_store" = "$mean_jsonl" ]
echo "report ok: store rollup matches quality.jsonl"

# A copy of a manifest line whose score overflows to infinity is
# malformed: replay drops it, the entry it copies stands, and the
# summary neither moves nor holds a bare inf or nan (not JSON).
head -n 1 "$work/store/manifest.jsonl" \
  | sed -E 's/"score":[^,}]*/"score":1e999/' >>"$work/store/manifest.jsonl"
grep -q '"score":1e999' "$work/store/manifest.jsonl"
"$report" "$work/store" --json "$work/rs_inf.json" >/dev/null
mean_inf=$(grep -o '"mean_score":[^,}]*' "$work/rs_inf.json" | head -1)
[ "$mean_inf" = "$mean_store" ]
if grep -Eq '(^|[^A-Za-z_"])-?(inf|nan)([^A-Za-z_"]|$)' "$work/rs_inf.json"; then
  echo "bare inf or nan in the summary" >&2
  exit 1
fi
echo "report ok: a non-finite manifest line is dropped"

# --- drift: identical warm crawl = zero regressions ----------------

"$crawl" "$work/docs" --store "$work/store" --jobs 2 \
  --quality-jsonl "$work/q2.jsonl" --summary-json "$work/crawl2.json" \
  2>/dev/null
grep -q '"extracted":0,' "$work/crawl2.json"
"$report" "$work/q2.jsonl" "$work/q1.jsonl" >"$work/drift_same.txt"
grep -q '^0 regressions' "$work/drift_same.txt"
echo "drift ok: warm re-crawl identical, exit 0"

# --- drift: budget-starved crawl must trip the gate ----------------

"$crawl" "$work/docs" --store "$work/store2" --jobs 2 --max-instances 40 \
  --quality-jsonl "$work/q3.jsonl" 2>/dev/null
rc=0
"$report" "$work/q3.jsonl" "$work/q1.jsonl" >"$work/drift_bad.txt" || rc=$?
[ "$rc" -eq 3 ]
grep -q 'REGRESSION' "$work/drift_bad.txt"
echo "drift ok: degraded run flagged, exit $rc"
