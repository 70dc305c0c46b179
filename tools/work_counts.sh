#!/bin/sh
# Deterministic work counts of four one-shot CLI tunes.
#
# Runs `bintuner_cli tune` on 605.mcf_s and 473.astar with the gcc
# profile, once with `hill` and once with `ga`, each at -j 1, the
# default seed (1) and --max-iterations 44, with --trace, and keeps the
# final `count` line of each trace: the running total of every
# telemetry counter (compile memo and prefix-store traffic, liveness
# solves, worklist-engine visits, VM steps, decoded instructions, ...).
# At -j 1 these counts are a pure function of the code, unlike wall
# time, so a change that alters any of them changed the work the
# compiler, the search or the check does.
#
# Usage:
#   tools/work_counts.sh            print the counts as JSON on stdout
#   tools/work_counts.sh --check    exit non-zero, naming each count that
#                                   differs, unless the counts equal
#                                   BENCH_work.json exactly
#
# Regenerate the committed file with `tools/work_counts.sh > BENCH_work.json`
# only when a change means to alter the work, and say which counts moved.

set -eu
cd "$(dirname "$0")/.."

dune build bin/bintuner_cli.exe
cli=_build/default/bin/bintuner_cli.exe
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for bench in 605.mcf_s 473.astar; do
  for strategy in hill ga; do
    "$cli" tune --bench "$bench" --profile gcc --strategy "$strategy" \
      --max-iterations 44 -j 1 --trace "$tmp/$bench.$strategy.ndjson" \
      > /dev/null
  done
done

python3 - "$tmp" > "$tmp/work.json" <<'EOF'
import json, sys
runs = []
for bench in ["605.mcf_s", "473.astar"]:
    for strategy in ["hill", "ga"]:
        counts = {}
        for line in open(f"{sys.argv[1]}/{bench}.{strategy}.ndjson"):
            ev = json.loads(line)
            if ev["type"] == "count":
                counts[ev["name"]] = ev["value"]
        runs.append({"bench": bench, "profile": "gcc", "strategy": strategy,
                     "counts": dict(sorted(counts.items()))})
print(json.dumps({"max_iterations": 44, "jobs": 1, "seed": 1, "runs": runs},
                 indent=2))
EOF

if [ "${1:-}" = "--check" ]; then
  python3 - BENCH_work.json "$tmp/work.json" <<'EOF'
import json, sys
want = {(r["bench"], r["strategy"]): r["counts"]
        for r in json.load(open(sys.argv[1]))["runs"]}
got = {(r["bench"], r["strategy"]): r["counts"]
       for r in json.load(open(sys.argv[2]))["runs"]}
bad = 0
for key in sorted(set(want) | set(got)):
    w, g = want.get(key, {}), got.get(key, {})
    for name in sorted(set(w) | set(g)):
        if w.get(name) != g.get(name):
            print(f"  {key[0]} {key[1]} {name}: {w.get(name)} -> {g.get(name)}",
                  file=sys.stderr)
            bad = 1
sys.exit(bad)
EOF
else
  cat "$tmp/work.json"
fi
