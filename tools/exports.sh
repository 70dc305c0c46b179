#!/bin/sh
# List exported values that nothing outside their own module uses.
#
# For every `val NAME` in lib/*/*.mli, prints `Lib.Module.NAME` (or
# `Module.NAME` when the library and the module share a name) unless some
# .ml/.mli file under lib, bin, bench, perfbench or examples, other than
# the module's own .ml/.mli, either
#   - writes `Module.NAME` or `Module.Sub.NAME`, or
#   - opens, includes, locally opens (`Module.(`) or aliases
#     (`module X = ...Module...`) the module and mentions NAME as a word.
# test/ does not count as a caller: a value only tests use is listed too,
# and is either deleted or kept on tools/exports_allowlist.txt with a
# reason.
#
# Limits.  The check is a name-based grep, not a type-aware reference
# search:
#   - the scans read tools/blank_sources.sh copies, so a mention in a
#     comment or a "..." string literal is no use; a bare NAME in a file
#     that opens or aliases the module still counts as a use even when it
#     is a record field, a label or a local binding, so some dead values
#     are missed;
#   - `val`s inside `module type ... = sig` blocks are functor or
#     first-class-module requirements, not exports, and are skipped;
#     `val`s of nested modules are reported under the enclosing file's
#     module name;
#   - operators (`val ( let* )`) are skipped;
#   - a library whose modules are reached only through another module's
#     re-export (lib/search's `Search.Genetic`) counts its sibling files
#     as outside the module only when they name the re-exporting module.
#
# Usage: tools/exports.sh   (from anywhere; prints one finding per line,
# sorted, and always exits 0)

set -eu
cd "$(dirname "$0")/.."

dirs="lib bin bench perfbench examples"
id='[A-Z][A-Za-z0-9_]*'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

capitalize() {
  printf '%s' "$1" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }'
}

tools/blank_sources.sh "$tmp" $dirs

for mli in lib/*/*.mli; do
  dir=$(dirname "$mli")
  base=$(basename "$mli" .mli)
  lib=$(sed -n 's/^ *(name \([a-z_0-9]*\)).*/\1/p' "$dir/dune" | head -1)
  m=$(capitalize "$base")
  l=$(capitalize "$lib")
  if [ "$l" = "$m" ]; then qual=$m; else qual="$l.$m"; fi

  names=$(awk '
    /(^|[ \t])sig[ \t]*$/ { mt[++d] = ($0 ~ /module[ \t]+type/); next }
    /^[ \t]*end([ \t]|$)/ { if (d > 0) d--; next }
    /^[ \t]*val[ \t]/ {
      for (i = 1; i <= d; i++) if (mt[i]) next
      n = $2; sub(/:.*/, "", n)
      if (n ~ /^[a-z_][A-Za-z0-9_]*$/) print n
    }' "$tmp/$mli" | sort -u)
  [ -n "$names" ] || continue

  files=$(cd "$tmp" && grep -rlw --include='*.ml' --include='*.mli' -- "$m" $dirs \
            | grep -vx -e "$dir/$base.ml" -e "$dir/$base.mli" || true)
  openers=""
  if [ -n "$files" ]; then
    openers=$(cd "$tmp" && grep -lE \
      "(open|include)[ !]+($id\.)*$m\b|module +$id *= *($id\.)*$m\b|\b$m\.\(" \
      $files || true)
  fi

  for n in $names; do
    if [ -n "$files" ] \
       && (cd "$tmp" && grep -qE -- "\b$m\.($id\.)*$n\b" $files); then
      continue
    fi
    if [ -n "$openers" ] && (cd "$tmp" && grep -qw -- "$n" $openers); then
      continue
    fi
    echo "$qual.$n"
  done
done | sort
