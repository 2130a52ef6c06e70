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
# byte. For each file that differs it prints one line, for report.csv a
# second one naming the rows that differ (`rows: random`), then the first 40
# lines of `diff -u` of the two copies, and it exits 1 if any file differs.
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

status=0
for cfg in "${configs[@]}"; do
  name=$(basename "$cfg" .json)
  for side in base head; do
    if [[ $side == base ]]; then src=$work/tree/src; else src=$root/src; fi
    PYTHONPATH=$src python3 -m popbias.cli evaluate --config "$cfg" \
      --out "$work/out/$side/$name" >/dev/null
  done
  for file in report.csv report.md manifest.json; do
    if ! cmp -s "$work/out/base/$name/$file" "$work/out/head/$name/$file"; then
      echo "$name: $file differs from $base" >&2
      if [[ $file == report.csv ]]; then
        # The recommender names of the changed rows, each once, in order.
        { diff "$work/out/base/$name/$file" "$work/out/head/$name/$file" || true; } \
          | awk -F, '/^[<>] / && !seen[substr($1, 3)]++ { names = names " " substr($1, 3) }
                     END { print "rows:" names }' >&2
      fi
      { diff -u "$work/out/base/$name/$file" "$work/out/head/$name/$file" || true; } \
        | head -n 40 >&2
      status=1
    fi
  done
done
if (( status == 0 )); then
  echo "${#configs[@]} configs: report.csv, report.md and manifest.json match $base"
fi
exit "$status"
