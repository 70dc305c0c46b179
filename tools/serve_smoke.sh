#!/bin/sh
# Serve smoke gate: boot the tuning daemon in stdin mode against a
# scratch persistent store with the default in-memory memo, then boot a
# second daemon over the same store, and assert that
#
#   - daemon A runs job, job, status: both jobs succeed and agree
#     bit-for-bit (every result field but the job id, wall time and
#     counters); job 1 compiled and filled the store
#     (counters["memo.miss"] > 0, counters["store.miss"] > 0); job 2 is
#     served from the session's memo (counters["memo.hit"] > 0) and
#     re-checks nothing: every functional verdict and BinHunt score
#     comes from the session's final-selection cache
#     (counters["check.miss"] == 0, counters["check.hit"] > 0), a count
#     of work rather than a time;
#   - A's status report is well-formed: two completed jobs and no
#     per-job history (no "jobs" key), zero quarantined store entries
#     (counters["store.quarantine"] == 0), and exactly the requested
#     worker domains alive — a pool of size N runs N-1 spawned domains
#     (the submitting domain participates), so -j 2 must report
#     live_domains 1: anything higher is a leak from a previous job.
#     The post-close restoration check (domains torn down with the
#     daemon) lives in test/test_serve.ml, where the observer outlives
#     the server;
#   - daemon B, fresh over A's store, runs the same job entirely off
#     disk (counters["store.hit"] > 0, counters["store.miss"] == 0) and
#     returns a result bit-identical to A's;
#   - both daemons answer `quit` and exit cleanly.
#
# Run directly or via `make serve-smoke`; tools/ci.sh calls it too.

set -eu
cd "$(dirname "$0")/.."

serve_dir=$(mktemp -d)
trap 'rm -rf "$serve_dir"' EXIT

job='tune bench=462.libquantum profile=gcc arch=x86-64 strategy=ga budget=40 seed=1'
serve() {
  dune exec bin/bintuner_cli.exe -- serve --store "$serve_dir/store" -j 2
}
printf '%s\n%s\nstatus\nquit\n' "$job" "$job" | serve > "$serve_dir/a.log"
printf '%s\nquit\n' "$job" | serve > "$serve_dir/b.log"

hits=$(python3 -c '
import json, sys
a = [json.loads(l) for l in open(sys.argv[1])]
b = [json.loads(l) for l in open(sys.argv[2])]
assert len(a) == 4, a
assert len(b) == 2, b
j1, j2, status, bye = a
jb, bye_b = b
c1, c2, cb, cs = j1["counters"], j2["counters"], jb["counters"], status["counters"]
def result(j):
    return {k: v for k, v in j.items() if k not in ("job", "wall_seconds", "counters")}
assert j1["ok"] and c1["memo.miss"] > 0 and c1["store.miss"] > 0, j1
assert c1["check.miss"] > 0, j1
assert j2["ok"] and c2["memo.hit"] > 0, j2
assert c2["check.miss"] == 0 and c2["check.hit"] > 0, j2
assert result(j2) == result(j1), (j1, j2)
assert status["ok"] and status["completed"] == 2
assert "jobs" not in status, status
assert cs["store.quarantine"] == 0, status
assert status["live_domains"] == 1, status
assert bye["ok"]
assert jb["ok"] and cb["store.hit"] > 0 and cb["store.miss"] == 0, jb
assert result(jb) == result(j1), (j1, jb)
assert bye_b["ok"]
print(cb["store.hit"])
' "$serve_dir/a.log" "$serve_dir/b.log") || {
  echo "serve-smoke: FAIL — daemon responses failed validation" >&2
  cat "$serve_dir/a.log" "$serve_dir/b.log" >&2
  exit 1
}

echo "serve-smoke: OK (a fresh daemon served $hits lookups from the persistent store)"
