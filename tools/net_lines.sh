#!/bin/sh
# Net non-comment, non-blank OCaml lines changed since a base commit.
#
# Extracts BASE's lib, bin, bench and test with `git archive`, blanks
# comments and strings in both that copy and the working tree with
# tools/blank_sources.sh, drops the lines left empty, and prints the
# lines added, removed and net per top-level directory, then in total.
# Only .ml and .mli files count.
#
# Usage: tools/net_lines.sh BASE     (any commit-ish, e.g. HEAD~3)

set -eu
[ $# -eq 1 ] || { echo "usage: $0 BASE" >&2; exit 2; }
base=$1
cd "$(dirname "$0")/.."
root=$(pwd)
dirs="lib bin bench test"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$base" $dirs | tar -x -C "$tmp/src"
(cd "$tmp/src" && "$root/tools/blank_sources.sh" "$tmp/old" $dirs)
"$root/tools/blank_sources.sh" "$tmp/new" $dirs
find "$tmp/old" "$tmp/new" -type f -exec sed -i '/^[[:space:]]*$/d' {} +

printf '%-8s %8s %8s %8s\n' dir added removed net
for d in $dirs; do
  mkdir -p "$tmp/old/$d" "$tmp/new/$d"
  diff -rN "$tmp/old/$d" "$tmp/new/$d" > "$tmp/diff" || true
  added=$(grep -c '^>' "$tmp/diff" || true)
  removed=$(grep -c '^<' "$tmp/diff" || true)
  printf '%-8s %8d %8d %+8d\n' "$d" "$added" "$removed" $((added - removed))
done | tee "$tmp/rows"
awk '{a += $2; r += $3} END {printf "%-8s %8d %8d %+8d\n", "total", a, r, a - r}' "$tmp/rows"
