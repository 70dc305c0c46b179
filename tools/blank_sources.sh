#!/bin/sh
# Copy OCaml sources with comments blanked and string literals emptied.
#
# Writes every .ml/.mli file under the given directories to the same
# relative path under OUTDIR, with each comment (nested ones included)
# replaced by spaces and each "..." string literal reduced to "".  Line
# structure is kept, so line numbers still match the originals.  Quoted
# strings ({|...|}) are not blanked.  The audits (tools/exports.sh,
# tools/knobs.sh) scan these copies, so a name that appears only in a
# comment or a string never counts as a use.
#
# Usage: tools/blank_sources.sh OUTDIR DIR...   (relative to the cwd)

set -eu
out=$1
shift

srcs=$(find "$@" -name '*.ml' -o -name '*.mli' | sort)
for f in $srcs; do mkdir -p "$out/$(dirname "$f")"; done
awk -v out="$out" '
  FNR == 1 { depth = 0; instr = 0 }
  {
    s = $0; n = length(s); o = ""
    for (i = 1; i <= n; i++) {
      c = substr(s, i, 1); c2 = substr(s, i, 2)
      if (instr) {
        if (c == "\\") i++
        else if (c == "\"") { instr = 0; if (depth == 0) o = o "\"" }
        continue
      }
      if (c2 == "(*") { depth++; i++; o = o "  "; continue }
      if (depth > 0 && c2 == "*)") { depth--; i++; o = o "  "; continue }
      if (c == "\"") { instr = 1; if (depth == 0) o = o "\""; continue }
      if (c == "'\''" && substr(s, i + 2, 1) == "'\''") {
        if (depth == 0) o = o "'\'' '\''"; i += 2; continue
      }
      if (c == "'\''" && substr(s, i + 1, 1) == "\\") {
        j = index(substr(s, i + 2), "'\''")
        if (j > 0) { if (depth == 0) o = o "'\'' '\''"; i += j + 1; continue }
      }
      o = o (depth > 0 ? " " : c)
    }
    print o > (out "/" FILENAME)
  }' $srcs
