#!/bin/sh
# List optional parameters of exported functions that no caller sets.
#
# For every optional label `?LABEL` in the signature of a `val NAME` in
# lib/*/*.mli, prints `Lib.Module.NAME ?LABEL` (or `Module.NAME ?LABEL`
# when the library and the module share a name) unless some .ml/.mli
# file under lib, bin, bench, perfbench or examples, other than the
# module's own .ml/.mli, writes `~LABEL` or `?LABEL` in an application
# of NAME, that is after
#   - `Module.NAME` or `Module.Sub.NAME`, or
#   - a bare NAME in a file that opens, includes, locally opens
#     (`Module.(`) or aliases (`module X = ...Module...`) the module.
# test/ does not count as a caller: a knob only tests set is either made
# a constant or kept on tools/knobs_allowlist.txt with a reason.
#
# Limits.  The check is a token scan, not a type-aware one:
#   - an application runs from NAME to the first bracket that closes
#     around it, or to the first `;`, `,`, `|` or keyword (`in`, `let`,
#     `then`, `else`, ...) outside brackets; a label written inside
#     brackets in that span belongs to another call and does not count;
#   - a bare NAME in a file that opens or aliases the module counts as an
#     application even when it names a local binding or another module's
#     function, so some unset knobs are missed;
#   - a wrapper that forwards the label (`let f ?x = M.g ?x`) sets it,
#     whether or not anything sets the wrapper's own `?x`;
#   - both scans read tools/blank_sources.sh copies: comments and "..."
#     string literals are blanked, quoted strings ({|...|}) are not;
#   - `val`s inside `module type ... = sig` blocks are functor or
#     first-class-module requirements, not exports, and are skipped;
#     `val`s of nested modules are reported under the enclosing file's
#     module name.
#
# Usage: tools/knobs.sh   (from anywhere; prints one finding per line,
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

  # `NAME LABEL` for each optional label of each exported val; a val's
  # signature runs until the next line that starts another item
  knobs=$(awk '
    function flush(   t) {
      t = text
      while (match(t, /\?[a-z_][A-Za-z0-9_'\'']*[ \t]*:/)) {
        lab = substr(t, RSTART + 1, RLENGTH - 2); sub(/[ \t]+$/, "", lab)
        print name, lab
        t = substr(t, RSTART + RLENGTH)
      }
      name = ""; text = ""
    }
    /^[ \t]*(val|type|exception|module|end|include|external|open|class)([ \t]|$)/ {
      if (name != "") flush()
    }
    /(^|[ \t])sig[ \t]*$/ { mt[++d] = ($0 ~ /module[ \t]+type/); next }
    /^[ \t]*end([ \t]|$)/ { if (d > 0) d--; next }
    /^[ \t]*val[ \t]/ {
      for (i = 1; i <= d; i++) if (mt[i]) next
      n = $2; sub(/:.*/, "", n)
      if (n ~ /^[a-z_][A-Za-z0-9_]*$/) { name = n; text = $0 }
      next
    }
    name != "" { text = text " " $0 }
    END { if (name != "") flush() }' "$tmp/$mli" | sort -u)
  [ -n "$knobs" ] || continue

  files=$(cd "$tmp" && grep -rlw --include='*.ml' --include='*.mli' -- "$m" $dirs \
            | grep -vx -e "$dir/$base.ml" -e "$dir/$base.mli" || true)
  openers=""
  if [ -n "$files" ]; then
    openers=$(cd "$tmp" && grep -lE \
      "(open|include)[ !]+($id\.)*$m\b|module +$id *= *($id\.)*$m\b|\b$m\.\(" \
      $files || true)
  fi

  echo "$knobs" | while read -r n lab; do
    cands=""
    if [ -n "$files" ]; then
      cands=$(cd "$tmp" && grep -lE -- "[~?]$lab\b" $files || true)
    fi
    if [ -n "$cands" ] && (cd "$tmp" && awk -v m="$m" -v n="$n" -v lab="$lab" \
        -v openers=" $(echo $openers) " '
      function word(c) { return c ~ /[A-Za-z0-9_'\'']/ }
      # does the application starting at [pos] write ~lab or ?lab at its
      # own bracket depth?
      function sets(s, pos,   depth, c, w, len) {
        depth = 0; len = length(s)
        while (pos <= len) {
          c = substr(s, pos, 1)
          if (c ~ /[([{]/) depth++
          else if (c ~ /[])}]/) { if (depth == 0) return 0; depth-- }
          else if (depth == 0 && c ~ /[;,|]/) return 0
          else if (c ~ /[a-z_~?]/ && !word(substr(s, pos - 1, 1))) {
            w = substr(s, pos, 80)
            match(w, /^[~?]?[A-Za-z0-9_'\'']+/)
            w = substr(w, 1, RLENGTH)
            if (depth == 0) {
              if (w == "~" lab || w == "?" lab) return 1
              if (w ~ /^(in|let|and|then|else|do|done|end|with|match|if|fun|function|begin|val|type|module)$/) return 0
            }
            pos += RLENGTH; continue
          }
          pos++
        }
        return 0
      }
      # the application text from column [c] of line [i] of file [f]
      function window(f, i, c,   w, k) {
        w = substr(L[f, i], c)
        for (k = i + 1; k <= i + 20 && k <= N[f]; k++) w = w " " L[f, k]
        return w
      }
      function scan(f, re,   i, rest, off) {
        for (i = 1; i <= N[f]; i++) {
          if (!index(L[f, i], n)) continue
          rest = L[f, i]; off = 0
          while (match(rest, re)) {
            off += RSTART + RLENGTH - 1
            if (sets(window(f, i, off), 1)) return 1
            rest = substr(L[f, i], off + 1)
          }
        }
        return 0
      }
      FNR == 1 { files[++nf] = FILENAME }
      { L[FILENAME, FNR] = $0; N[FILENAME] = FNR }
      END {
        qual = "(^|[^A-Za-z0-9_'\''])" m "\\.([A-Z][A-Za-z0-9_'\'']*\\.)*" n "([^A-Za-z0-9_'\'']|$)"
        bare = "(^|[^A-Za-z0-9_.'\''])" n "([^A-Za-z0-9_'\'']|$)"
        for (j = 1; j <= nf; j++) {
          f = files[j]
          if (scan(f, qual) || (index(openers, " " f " ") && scan(f, bare)))
            exit 0
        }
        exit 1
      }' $cands); then
      continue
    fi
    echo "$qual.$n ?$lab"
  done
done | sort
