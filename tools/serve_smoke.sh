#!/bin/sh
# Serve smoke gate: boot the tuning daemon in stdin mode against a
# scratch persistent store, pipe it two identical jobs plus a `status`
# request, and assert that
#
#   - both jobs succeed and agree bit-for-bit on best_vector / best_ncd
#     / iterations (the artifact store is lossless);
#   - job 1 compiled and filled the store (counters["memo.miss"] > 0,
#     counters["store.miss"] > 0), and job 2 is served from the
#     persistent store (counters["store.hit"] > 0).  The shared
#     in-memory memo is disabled for the gate (--memo-max-mb 0 clamps
#     it to one byte, which admits nothing) so a hit cannot hide in
#     memory — it must come off disk;
#   - job 2 re-checks nothing: every functional verdict and BinHunt
#     score comes from the session's final-selection cache
#     (counters["check.miss"] == 0, counters["check.hit"] > 0), a
#     count of work rather than a time;
#   - the status report is well-formed: two completed jobs and no
#     per-job history (no "jobs" key), session-wide store hits
#     (counters["store.hit"] > 0), zero quarantined store entries
#     (counters["store.quarantine"] == 0),
#     and exactly the requested worker domains alive — a pool of size N
#     runs N-1 spawned domains (the submitting domain participates), so
#     -j 2 must report live_domains 1: anything higher is a leak from a
#     previous job.  The post-close restoration check (domains torn
#     down with the daemon) lives in test/test_serve.ml, where the
#     observer outlives the server;
#   - the daemon answers `quit` and exits cleanly.
#
# Run directly or via `make serve-smoke`; tools/ci.sh calls it too.

set -eu
cd "$(dirname "$0")/.."

serve_dir=$(mktemp -d)
trap 'rm -rf "$serve_dir"' EXIT
serve_log="$serve_dir/serve.log"

job='tune bench=462.libquantum profile=gcc arch=x86-64 strategy=ga budget=40 seed=1'
printf '%s\n%s\nstatus\nquit\n' "$job" "$job" \
  | dune exec bin/bintuner_cli.exe -- serve \
      --store "$serve_dir/store" --memo-max-mb 0 -j 2 > "$serve_log"

[ "$(wc -l < "$serve_log")" -eq 4 ] || {
  echo "serve-smoke: FAIL — expected 4 response lines (job, job, status, quit)" >&2
  cat "$serve_log" >&2
  exit 1
}

hits=$(python3 -c '
import json, sys
rs = [json.loads(l) for l in open(sys.argv[1])]
assert len(rs) == 4
j1, j2, status, bye = rs
c1, c2, cs = j1["counters"], j2["counters"], status["counters"]
assert j1["ok"] and c1["memo.miss"] > 0 and c1["store.miss"] > 0, j1
assert j2["ok"] and c2["store.hit"] > 0, j2
assert c1["check.miss"] > 0, j1
assert c2["check.miss"] == 0 and c2["check.hit"] > 0, j2
assert j2["best_vector"] == j1["best_vector"], (j1, j2)
assert j2["best_ncd"] == j1["best_ncd"], (j1, j2)
assert j2["iterations"] == j1["iterations"], (j1, j2)
assert status["ok"] and status["completed"] == 2
assert "jobs" not in status, status
assert cs["store.hit"] > 0 and cs["store.quarantine"] == 0, status
assert status["live_domains"] == 1, status
assert bye["ok"]
print(c2["store.hit"])
' "$serve_log") || {
  echo "serve-smoke: FAIL — daemon responses failed validation" >&2
  cat "$serve_log" >&2
  exit 1
}

echo "serve-smoke: OK (job 2 served $hits binaries from the persistent store)"
