#!/usr/bin/env bash
# Check that this tree writes the same reports as another commit.
#
#   tools/same_reports.sh BASE_REF [CONFIG...]
#
# Run it from a checkout in which perfbench/run.py has written its configs
# and their inputs under .perfbench_work/. BASE_REF's src/ is unpacked with
# `git archive` into a temporary directory, so nothing is written under
# .git. For every CONFIG named, or with none for every config
# .perfbench_work/config/*.json, it runs `popbias evaluate` from BASE_REF's
# src/ and from this tree's, both from the root of this checkout, and
# compares report.csv, report.md and manifest.json byte for byte. A config's
# data paths are read from the root of the checkout, as perfbench/run.py
# writes them. Then each side runs `popbias correlate --out` over all of its
# report.csv files, in config order, and the two correlations.csv files are
# compared the same way. Last, for every corpus the configs name, each side
# runs `popbias ingest --out .` and `popbias fit --ratings` from its own
# output directory, and their popularity.csv, ingest_summary.json, stdouts
# and stderrs are compared. Every corpus perfbench writes is read by the
# ratings fast path, so the same is done once more for a copy of the first
# corpus whose ratings.dat ends in an out-of-range line (1::2::9::100),
# which only the line parser reads; its stderr holds the note on that line.
# For each file that differs it prints one line, for
# report.csv a second one naming the rows that differ (`rows: random`), then
# the first 40 lines of `diff -u` of the two copies, and it exits 1 if any
# file differs.
set -euo pipefail

base=${1:?usage: tools/same_reports.sh BASE_REF [CONFIG...]}
shift
configs=()
for cfg in "$@"; do
  configs+=("$(realpath -e "$cfg")")  # before the cd below
done
root=$(git rev-parse --show-toplevel)
cd "$root"
shopt -s nullglob
(( ${#configs[@]} )) || configs=(.perfbench_work/config/*.json)
if (( ${#configs[@]} == 0 )); then
  echo "no configs under .perfbench_work/config/: run perfbench/run.py first" >&2
  exit 2
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base" src | tar -x -C "$work/base"

src_of() { if [[ $1 == base ]]; then echo "$work/base/src"; else echo "$root/src"; fi; }

# Report that the two sides' copies of $2, a path under $work/out/<side>/,
# differ (labelled $1), and mark the run failed.
differs() {
  local old=$work/out/base/$2 new=$work/out/head/$2
  echo "$1 differs from $base" >&2
  if [[ $2 == */report.csv ]]; then
    # The recommender names of the changed rows, each once, in order.
    { diff "$old" "$new" || true; } \
      | awk -F, '/^[<>] / && !seen[substr($1, 3)]++ { names = names " " substr($1, 3) }
                 END { print "rows:" names }' >&2
  fi
  { diff -u "$old" "$new" || true; } | head -n 40 >&2
  status=1
}

# Compare each named file of the two sides' directory $2 (labelled $1).
compare() {
  local label=$1 dir=$2 file
  shift 2
  for file in "$@"; do
    if ! cmp -s "$work/out/base/$dir/$file" "$work/out/head/$dir/$file"; then
      differs "$label: $file" "$dir/$file"
    fi
  done
}

status=0
reports=()
corpora=()  # each "movies<TAB>ratings" pair the configs name, once
declare -A named=()
for cfg in "${configs[@]}"; do
  name=$(basename "$cfg" .json)
  reports+=("$name/report.csv")
  for side in base head; do
    PYTHONPATH=$(src_of "$side") python3 -m popbias.cli evaluate --config "$cfg" \
      --out "$work/out/$side/$name" >/dev/null
  done
  compare "$name" "$name" report.csv report.md manifest.json
  corpus=$(python3 -c 'import json, sys; d = json.load(open(sys.argv[1]))["data"]
print(d["movies"] + "\t" + d["ratings"])' "$cfg")
  if [[ -z ${named[$corpus]-} ]]; then
    named[$corpus]=1
    corpora+=("$corpus")
  fi
done
# Run from each side's output directory, so that an error names the same
# relative paths on both sides; a side that fails compares by its message.
for side in base head; do
  ( cd "$work/out/$side" \
    && PYTHONPATH=$(src_of "$side") python3 -m popbias.cli correlate "${reports[@]}" \
         --out correlations.csv >/dev/null 2>correlate.err ) \
    || mv "$work/out/$side/correlate.err" "$work/out/$side/correlations.csv"
done
if ! cmp -s "$work/out/base/correlations.csv" "$work/out/head/correlations.csv"; then
  differs correlations.csv correlations.csv
fi
if (( ${#corpora[@]} )); then
  ratings=${corpora[0]#*$'\t'}
  [[ $ratings == /* ]] || ratings=$root/$ratings
  mkdir "$work/malformed"
  cp "$ratings" "$work/malformed/ratings.dat"
  [[ -z $(tail -c 1 "$ratings") ]] || echo >>"$work/malformed/ratings.dat"
  echo "1::2::9::100" >>"$work/malformed/ratings.dat"
  corpora+=("${corpora[0]%%$'\t'*}"$'\t'"$work/malformed/ratings.dat")
fi
n=0
for corpus in "${corpora[@]}"; do
  movies=${corpus%%$'\t'*} ratings=${corpus#*$'\t'}
  [[ $movies == /* ]] || movies=$root/$movies
  [[ $ratings == /* ]] || ratings=$root/$ratings
  dir=corpus-$((n += 1))
  for side in base head; do
    mkdir -p "$work/out/$side/$dir"
    ( cd "$work/out/$side/$dir" \
      && export PYTHONPATH=$(src_of "$side") \
      && python3 -m popbias.cli ingest --movies "$movies" --ratings "$ratings" --out . \
           >ingest.txt 2>ingest.err \
      && python3 -m popbias.cli fit --ratings "$ratings" >fit.txt 2>fit.err )
  done
  compare "${corpus#*$'\t'}" "$dir" popularity.csv ingest_summary.json ingest.txt ingest.err \
    fit.txt fit.err
done
if (( status == 0 )); then
  echo "${#configs[@]} configs: report.csv, report.md, manifest.json and" \
    "correlations.csv match $base; ${#corpora[@]} corpora, the malformed copy included:" \
    "ingest and fit outputs match"
fi
exit "$status"
