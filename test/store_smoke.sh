#!/usr/bin/env bash
# End-to-end smoke of the persistent store across its three CLI fronts,
# run by `dune build @store-smoke` (and dune runtest):
#
#   - wqi_corpus_gen --gen writes a corpus with a ground-truth
#     ALIASES.json duplicate manifest;
#   - wqi_crawl ingests it twice: the first pass extracts exactly the
#     unique documents (signature dedup verified against the manifest),
#     the second answers every document from the store;
#   - a value byte flipped on disk fails its CRC on the next crawl,
#     which re-extracts exactly that document, and the crawl after it
#     is fully warm again;
#   - wqi_batch --store runs twice over the same directory with
#     byte-identical stdout, the second run all store hits; a segment
#     cut mid-value re-extracts exactly the entries past the cut, with
#     stdout still byte-identical; and it re-extracts exactly the one
#     document we then touch;
#   - a torn manifest tail (a crashed writer's final line) is dropped
#     on reopen and the store stays fully usable;
#   - a poisoned document fails in isolation and lands in --errors-json.
set -euo pipefail

corpus_gen=$1
crawl=$2
batch=$3

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# --- corpus with known duplicates ---------------------------------

"$corpus_gen" --gen 40 --out-dir "$work/docs" --seed 11 --dup-prob 0.3 \
  >/dev/null
dup_count=$(grep -c '"file":' "$work/docs/ALIASES.json" || true)
total=40
uniq=$((total - dup_count))

# --- crawl: dedup + resume ----------------------------------------

"$crawl" "$work/docs" --store "$work/store" --jobs 2 \
  --summary-json "$work/crawl1.json" 2>/dev/null
grep -q "\"discovered\":$total," "$work/crawl1.json"
grep -q "\"unique\":$uniq," "$work/crawl1.json"
grep -q "\"aliases\":$dup_count," "$work/crawl1.json"
grep -q "\"store_hits\":0," "$work/crawl1.json"
grep -q "\"extracted\":$uniq," "$work/crawl1.json"
grep -q '"failed":0,' "$work/crawl1.json"

"$crawl" "$work/docs" --store "$work/store" --jobs 2 \
  --summary-json "$work/crawl2.json" 2>/dev/null
grep -q "\"store_hits\":$uniq," "$work/crawl2.json"
grep -q '"extracted":0,' "$work/crawl2.json"
echo "crawl ok: $dup_count/$total deduped, resume all hits"

# --- crawl: a corrupt value is a re-extraction, never a hit --------

# Flip one byte inside the value of the first manifest entry.
first=$(head -n 1 "$work/store/manifest.jsonl")
seg=$(printf '%s' "$first" | sed -n 's/.*"seg":\([0-9]*\).*/\1/p')
off=$(printf '%s' "$first" | sed -n 's/.*"off":\([0-9]*\).*/\1/p')
segfile=$(printf '%s/store/segments/seg-%03d.dat' "$work" "$seg")
byte=$(dd if="$segfile" bs=1 skip="$off" count=1 2>/dev/null)
if [ "$byte" = X ]; then flip=Y; else flip=X; fi
printf '%s' "$flip" |
  dd of="$segfile" bs=1 seek="$off" count=1 conv=notrunc 2>/dev/null

"$crawl" "$work/docs" --store "$work/store" --jobs 2 \
  --summary-json "$work/crawl3.json" 2>/dev/null
grep -q "\"store_hits\":$((uniq - 1))," "$work/crawl3.json"
grep -q '"extracted":1,' "$work/crawl3.json"

"$crawl" "$work/docs" --store "$work/store" --jobs 2 \
  --summary-json "$work/crawl4.json" 2>/dev/null
grep -q "\"store_hits\":$uniq," "$work/crawl4.json"
grep -q '"extracted":0,' "$work/crawl4.json"
echo "crawl ok: corrupt value re-extracted once, then warm"

# --- batch --store: resumable, byte-identical ---------------------

"$batch" --jobs 2 --store "$work/bstore" "$work/docs" \
  >"$work/cold.jsonl" 2>"$work/cold.err"
grep -q "store: 0 hits, $total new, 0 re-extracted" "$work/cold.err"

"$batch" --jobs 2 --store "$work/bstore" "$work/docs" \
  >"$work/resumed.jsonl" 2>"$work/resumed.err"
grep -q "store: $total hits, 0 new, 0 re-extracted" "$work/resumed.err"
cmp "$work/cold.jsonl" "$work/resumed.jsonl"

# A segment cut mid-value between runs: the entries whose bytes lie
# past the cut read as misses and are extracted again, the rest are
# hits, and stdout is still byte-identical to the cold run.  Cut the
# lowest-numbered segment's middle entry (the manifest is compacted
# into segment/offset order) halfway through its value.
seg=$(head -n 1 "$work/bstore/manifest.jsonl" | sed -n 's/.*"seg":\([0-9]*\).*/\1/p')
grep "\"seg\":$seg," "$work/bstore/manifest.jsonl" >"$work/seg.jsonl"
mid=$(( ($(wc -l <"$work/seg.jsonl") + 1) / 2 ))
line=$(sed -n "${mid}p" "$work/seg.jsonl")
off=$(printf '%s' "$line" | sed -n 's/.*"off":\([0-9]*\).*/\1/p')
len=$(printf '%s' "$line" | sed -n 's/.*"bytes":\([0-9]*\).*/\1/p')
cut=$((off + len / 2))
past=0
while read -r l; do
  o=$(printf '%s' "$l" | sed -n 's/.*"off":\([0-9]*\).*/\1/p')
  b=$(printf '%s' "$l" | sed -n 's/.*"bytes":\([0-9]*\).*/\1/p')
  if [ $((o + b)) -gt "$cut" ]; then past=$((past + 1)); fi
done <"$work/seg.jsonl"
truncate -s "$cut" "$(printf '%s/bstore/segments/seg-%03d.dat' "$work" "$seg")"
"$batch" --jobs 2 --store "$work/bstore" "$work/docs" \
  >"$work/cut.jsonl" 2>"$work/cut.err"
grep -q "store: $((total - past)) hits, $past new, 0 re-extracted" \
  "$work/cut.err"
cmp "$work/cold.jsonl" "$work/cut.jsonl"
echo "batch ok: segment cut mid-value, $past entries past it re-extracted"

# Touching one document's bytes re-extracts that document only.
printf '\n<!-- revised -->\n' >>"$work/docs/doc-00000.html"
"$batch" --jobs 2 --store "$work/bstore" "$work/docs" \
  >/dev/null 2>"$work/touched.err"
grep -q "store: $((total - 1)) hits, 0 new, 1 re-extracted" "$work/touched.err"
echo "batch ok: resumed byte-identical, 1 re-extract after touch"

# --- torn manifest tail -------------------------------------------

printf '{"k":"00dead' >>"$work/bstore/manifest.jsonl"
"$batch" --jobs 2 --store "$work/bstore" "$work/docs" \
  >"$work/torn.jsonl" 2>"$work/torn.err"
grep -q "store: $total hits, 0 new, 0 re-extracted" "$work/torn.err"
echo "torn tail ok: dropped on reopen, store usable"

# --- per-document failure isolation + --errors-json ---------------

mkdir "$work/docs/zzz_poison.html"
"$batch" --jobs 2 --store "$work/bstore" --errors-json "$work/errors.json" \
  "$work/docs" >"$work/poisoned.jsonl" 2>/dev/null
cmp "$work/torn.jsonl" "$work/poisoned.jsonl"
grep -q 'zzz_poison' "$work/errors.json"
grep -q '"outcome":"read-error"' "$work/errors.json"

rmdir "$work/docs/zzz_poison.html"
"$crawl" "$work/docs" --store "$work/store" --jobs 2 \
  --errors-json "$work/crawl_errors.json" 2>/dev/null
grep -q '^\[\]' "$work/crawl_errors.json"
echo "errors-json ok: poison isolated and reported"

echo "store smoke ok"
