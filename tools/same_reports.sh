#!/usr/bin/env bash
# Check that this tree writes the same reports as another commit.
#
#   tools/same_reports.sh BASE_REF
#
# Run it from a checkout in which perfbench/run.py has written its configs
# and their inputs under .perfbench_work/. For every config
# .perfbench_work/config/*.json it runs `popbias evaluate` from a temporary
# git worktree of BASE_REF and from this tree, both from the root of this
# checkout, and compares report.csv, report.md and manifest.json byte for
# byte. Then each side runs `popbias correlate --out` over all of its
# report.csv files, in config order, and the two correlations.csv files are
# compared the same way. For each file that differs it prints one line, for
# report.csv a second one naming the rows that differ (`rows: random`), then
# the first 40 lines of `diff -u` of the two copies, and it exits 1 if any
# file differs.
set -euo pipefail

base=${1:?usage: tools/same_reports.sh BASE_REF}
root=$(git rev-parse --show-toplevel)
cd "$root"
shopt -s nullglob
configs=(.perfbench_work/config/*.json)
if (( ${#configs[@]} == 0 )); then
  echo "no configs under .perfbench_work/config/: run perfbench/run.py first" >&2
  exit 2
fi

work=$(mktemp -d)
cleanup() {
  git worktree remove --force "$work/tree" >/dev/null 2>&1 || true
  rm -rf "$work"
}
trap cleanup EXIT
git worktree add --detach --quiet "$work/tree" "$base"

src_of() { if [[ $1 == base ]]; then echo "$work/tree/src"; else echo "$root/src"; fi; }

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

status=0
reports=()
for cfg in "${configs[@]}"; do
  name=$(basename "$cfg" .json)
  reports+=("$name/report.csv")
  for side in base head; do
    PYTHONPATH=$(src_of "$side") python3 -m popbias.cli evaluate --config "$cfg" \
      --out "$work/out/$side/$name" >/dev/null
  done
  for file in report.csv report.md manifest.json; do
    if ! cmp -s "$work/out/base/$name/$file" "$work/out/head/$name/$file"; then
      differs "$name: $file" "$name/$file"
    fi
  done
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
if (( status == 0 )); then
  echo "${#configs[@]} configs: report.csv, report.md, manifest.json and correlations.csv match $base"
fi
exit "$status"
