#!/bin/sh
# The repository's CI entry point:
#
#   1. `make check`        — build + full test suite (includes the j-differential
#                            and cache-correctness layers);
#   2. `make bench-smoke`  — scaled-down Table 1 through the parallel engine;
#   3. determinism cross-check — the table1 sentinel (an MD5 over every run's
#      best vector, NCD, iteration count, memo counters and history) must be
#      byte-identical at -j 1 and -j 2, the memo must report cache hits, and
#      the pass-prefix snapshot store (incremental compilation, default on —
#      so every sentinel here is computed WITH it) must report hits;
#   4. frozen-oracle sentinel — the same table1 run at -lz-level greedy
#      (the pre-overhaul match finder, kept bit-for-bit stable) must
#      reproduce the sentinel recorded before the NCD kernel overhaul;
#   5. telemetry smoke — a one-benchmark fig5 run with -trace must emit
#      parseable ndjson covering the span vocabulary (compile, pass.*,
#      search.ga.generation, pool.chunk, tuner.binhunt, tuner.check) and
#      the deterministic work counters of the VM (vm.steps), of the
#      liveness kernel (dataflow.liveness.solves), of the linear sweep
#      that decodes code (isa.sweep.insns) and of the LZ coder's input
#      (lz.bytes_in), and a -profile
#      cost split, while the default (telemetry-off) path emits nothing
#      and reproduces the same sentinel; the fig5 NCD batch must report
#      size-cache hits;
#   6. ncd microbench smoke — the `ncd` experiment must emit a parseable
#      BENCH_ncd.json covering at least two match-finder levels, whose
#      size cache reports hits (its throughputs are recorded, not gated);
#   7. static-analysis gate — the IR verifier must accept every pass of a
#      corpus-wide compile sweep (presets × profiles × archs × random
#      valid flag vectors), the pedantic lint must report nothing beyond
#      tools/lint_allowlist.txt, tools/exports.sh must find no exported
#      value without an outside caller beyond tools/exports_allowlist.txt,
#      tools/knobs.sh no optional parameter that no caller sets beyond
#      tools/knobs_allowlist.txt (and every line of either allowlist must
#      still be a finding), and a
#      one-benchmark fig5 run with -verify (the between-pass verifier on
#      the bench hot path) must succeed;
#   8. binary insight gate — `inspect --all --arch all` re-disassembles
#      every corpus binary on every arch by recursive descent and the
#      result must agree exactly with the linear sweep and with the
#      compiler's exported ground-truth instruction boundaries (zero
#      mismatches), and the emitted JSON reports must satisfy the
#      report schema (counts coherent, 24-dim provenance vector,
#      per-function feature rows matching the function count);
#   9. strategy smoke gate — every registered search strategy (ga, hill,
#      anneal, random, ensemble) must complete a small CLI tune within
#      its evaluation budget, and the GA-through-the-framework table1 run
#      is already pinned to the frozen greedy sentinel by step 4; a tune
#      with a malformed --db database must fail before searching (non-zero
#      exit, stderr naming the file, no `tuned` line);
#  10. search microbench smoke — the `search` experiment runs every
#      strategy through `Tuner.tune`, functional check included, and must
#      emit a parseable BENCH_search.json covering all five strategies,
#      each within the declared budget and with a winner that passes the
#      functional check, and the hill incremental-compilation
#      differential must report outcomes identical with the prefix store
#      on and real snapshot hits.  It records no wall time; throughput is
#      perfbench's tune-hill workload (perfbench/README.md).
#  11. serve smoke gate — tools/serve_smoke.sh boots the `serve` daemon
#      in stdin mode, with its default memo, against a scratch
#      persistent store, submits two identical jobs plus a `status`
#      request, and asserts job 2 is served from the memo
#      (counters["memo.hit"] > 0) and re-checks nothing
#      (counters["check.miss"] == 0: its functional verdicts and BinHunt
#      scores come from the session's final-selection cache), both jobs
#      agree bit-for-bit, the status report is coherent, and no worker
#      domains leak.  A fresh daemon over the same store then runs the
#      job off disk alone (counters["store.hit"] > 0,
#      counters["store.miss"] == 0) with a result bit-identical to the
#      first daemon's.
#  12. multi-objective smoke gate — a CLI `tune --objective ncd,gadgets`
#      run must report a non-empty, mutually non-dominated Pareto front
#      that is byte-identical at -j 1 and -j 2, and the `pareto`
#      experiment must emit a parseable BENCH_pareto.json (non-dominated
#      fronts, per-axis memo traffic).
#  13. work-count gate — tools/work_counts.sh re-runs four one-shot CLI
#      tunes (605.mcf_s and 473.astar, gcc, hill and ga, budget 44, -j 1,
#      --trace) and every final telemetry count (memo and prefix-store
#      traffic, liveness solves, worklist-engine visits, VM steps,
#      decoded instructions, ...) must equal BENCH_work.json exactly.
#      At -j 1 the counts are deterministic work, unlike wall time.
#
# The bench driver reads no on-disk state, so step 4's greedy sentinel
# runs once: the daemon writes only to its scratch store and cannot
# perturb the one-shot path.  Every JSON check is a python3 script
# (perfbench/selftest.py needs python3 too).
#
# Exits non-zero on any failure.

set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

# table1 sentinel of the pre-overhaul NCD kernel at -quick -j 2.  The
# Greedy level freezes that kernel, so this value must never drift from
# compression-side changes (re-baselining for those is only legitimate
# together with the greedy golden digests in test/test_lz_properties.ml).
# It DOES move when the flag universe grows — the GA samples vectors over
# the whole universe — so re-baselines must cite the universe change and
# the table1 "flag universe" lines record the size each run searched.
# Last re-baseline: 44 -> 47 flags/profile (SCCP, GVN, dominator-LICM).
greedy_baseline=9d5c9283dcd3e56505ef6e2b9906a10b

echo "== ci: build + tests =="
make check

echo "== ci: bench smoke (table1, quick budget, -j 2) =="
smoke_log=$(mktemp)
trap 'rm -f "$smoke_log"' EXIT
dune exec bench/main.exe -- -quick -j 2 table1 | tee "$smoke_log"

sentinel_j2=$(grep 'table1 determinism sentinel:' "$smoke_log" | awk '{print $NF}')
[ -n "$sentinel_j2" ] || { echo "ci: FAIL — no determinism sentinel in table1 output" >&2; exit 1; }

memo_hits=$(grep '^compile memo:' "$smoke_log" | awk '{print $3}')
[ "${memo_hits:-0}" -ge 1 ] || { echo "ci: FAIL — compile memo reported no cache hits" >&2; exit 1; }

# the tuner's pass-prefix snapshot store defaults on, so the sentinel
# above (and the frozen greedy sentinel below) are computed WITH
# incremental compilation — any drift would mean the store is not
# lossless.  The store must also have seen real traffic.
incr_hits=$(grep '^prefix cache:' "$smoke_log" | awk '{print $3}')
[ "${incr_hits:-0}" -ge 1 ] || { echo "ci: FAIL — prefix snapshot store reported no hits" >&2; exit 1; }

echo "== ci: determinism sentinel cross-check (-j 1 vs -j 2) =="
sentinel_j1=$(dune exec bench/main.exe -- -quick -j 1 table1 \
  | grep 'table1 determinism sentinel:' | awk '{print $NF}')
if [ "$sentinel_j1" != "$sentinel_j2" ]; then
  echo "ci: FAIL — table1 results depend on -j ($sentinel_j1 vs $sentinel_j2)" >&2
  exit 1
fi

echo "== ci: frozen-oracle sentinel (-lz-level greedy vs pre-overhaul baseline) =="
sentinel_greedy=$(dune exec bench/main.exe -- -quick -j 2 -lz-level greedy table1 \
  | grep 'table1 determinism sentinel:' | awk '{print $NF}')
if [ "$sentinel_greedy" != "$greedy_baseline" ]; then
  echo "ci: FAIL — greedy sentinel drifted from the pre-overhaul baseline ($sentinel_greedy vs $greedy_baseline)" >&2
  exit 1
fi

echo "== ci: telemetry trace smoke (fig5, one benchmark) =="
trace_file=$(mktemp)
profile_log=$(mktemp)
trap 'rm -f "$smoke_log" "$trace_file" "$profile_log"' EXIT
dune exec bench/main.exe -- -quick -j 2 -only coreutils \
  -trace "$trace_file" -profile fig5 > "$profile_log"

[ -s "$trace_file" ] || { echo "ci: FAIL — -trace produced no events" >&2; exit 1; }

# every line must be a standalone JSON object with a type and a name
python3 -c '
import json, sys
for line in open(sys.argv[1]):
    ev = json.loads(line)
    assert "type" in ev and "name" in ev, ev
' "$trace_file" \
  || { echo "ci: FAIL — trace is not parseable ndjson with type/name" >&2; exit 1; }

for span in '"name":"compile"' '"name":"pass.' '"name":"search.ga.generation"' \
            '"name":"pool.chunk"' '"name":"tuner.ncd"' '"name":"tuner.binhunt"' \
            '"name":"tuner.check"' '"name":"vm.steps"' \
            '"name":"dataflow.liveness.solves"' '"name":"isa.sweep.insns"' \
            '"name":"lz.bytes_in"'; do
  grep -q "$span" "$trace_file" \
    || { echo "ci: FAIL — trace missing expected span $span" >&2; exit 1; }
done

grep -q 'cost split' "$profile_log" \
  || { echo "ci: FAIL — -profile printed no cost split" >&2; exit 1; }

# the fig5 NCD batch runs over a shared size cache; the repeated baseline
# terms must actually hit it
ncd_hits=$(grep 'ncd size cache:' "$profile_log" | awk '{print $4}' | sort -n | tail -1)
[ "${ncd_hits:-0}" -ge 1 ] \
  || { echo "ci: FAIL — fig5 ncd size cache reported no hits" >&2; exit 1; }

# the no-op path: without the flags the same run must print no telemetry
if dune exec bench/main.exe -- -quick -j 2 -only coreutils fig5 \
     | grep -Eq 'telemetry|"type":'; then
  echo "ci: FAIL — telemetry output leaked on the default (disabled) path" >&2
  exit 1
fi

echo "== ci: IR verifier + lint gate =="
dune exec bin/bintuner_cli.exe -- verify > /dev/null \
  || { echo "ci: FAIL — IR verification sweep found a broken pass" >&2; exit 1; }
dune exec bin/bintuner_cli.exe -- analyze --allowlist tools/lint_allowlist.txt > /dev/null \
  || { echo "ci: FAIL — lint reported findings beyond tools/lint_allowlist.txt" >&2; exit 1; }
# a grep audit whose findings must equal the non-comment lines of its
# allowlist exactly: a new finding fails, and so does a stale line
audit_gate() {  # audit script, allowlist, what a finding means
  audit_dir=$(mktemp -d)
  "$1" > "$audit_dir/found"
  grep -v '^#' "$2" | sed '/^[[:space:]]*$/d' | sort > "$audit_dir/allowed"
  if ! cmp -s "$audit_dir/found" "$audit_dir/allowed"; then
    comm -23 "$audit_dir/found" "$audit_dir/allowed" | sed "s/^/  $3: /" >&2
    comm -13 "$audit_dir/found" "$audit_dir/allowed" | sed 's/^/  stale allowlist line: /' >&2
    rm -rf "$audit_dir"
    echo "ci: FAIL — $1 findings differ from $2" >&2
    exit 1
  fi
  rm -rf "$audit_dir"
}
audit_gate tools/exports.sh tools/exports_allowlist.txt "no outside caller"
audit_gate tools/knobs.sh tools/knobs_allowlist.txt "no caller sets"
# the verifier on the bench hot path: must check every pass without
# changing any result
dune exec bench/main.exe -- -quick -j 2 -only coreutils -verify fig5 > /dev/null \
  || { echo "ci: FAIL — fig5 -verify failed" >&2; exit 1; }

echo "== ci: optimizer pass-fire smoke gate =="
# each flag-gated optimizer pass (SCCP, GVN, dominator LICM) must fire —
# telemetry counter >= 1 — somewhere on the corpus at its O2-plus-flag
# vector, for both profiles: a pass that never fires is a dead knob in
# the search universe
dune exec bin/bintuner_cli.exe -- passfire \
  || { echo "ci: FAIL — an optimizer pass never fired on the corpus" >&2; exit 1; }

echo "== ci: binary insight gate (verified disassembly over the corpus) =="
# every corpus program on all four arches: the recursive descent, the
# linear sweep and the compiler's ground-truth instruction boundaries
# must agree exactly (the inspect command exits non-zero on any
# mismatch), and the emitted JSON must satisfy the report schema
inspect_json="$root/_build/inspect_ci.json"
dune exec bin/bintuner_cli.exe -- inspect --all --arch all --preset O2 \
    --json "$inspect_json" > /dev/null \
  || { echo "ci: FAIL — inspect found disassembly mismatches" >&2; exit 1; }
python3 -c '
import json, sys
reports = json.load(open(sys.argv[1]))
assert len(reports) >= 1
for r in reports:
    assert r["disasm"]["mismatches"] == 0, r["bench"]
    assert r["disasm"]["insns"] > 0 and r["size"]["text"] > 0
    assert r["gadgets"]["k"] >= 1
    assert r["gadgets"]["unique"] >= r["gadgets"]["by_class"]["ret"]
    assert len(r["features"]["provenance"]) == 24
    assert len(r["features"]["functions"]) == r["disasm"]["functions"]
' "$inspect_json" \
  || { echo "ci: FAIL — inspect JSON failed schema validation" >&2; exit 1; }
rm -f "$inspect_json"

echo "== ci: ncd microbench smoke =="
ncd_dir=$(mktemp -d)
trap 'rm -f "$smoke_log" "$trace_file" "$profile_log"; rm -rf "$ncd_dir"' EXIT
# run from a scratch cwd so the smoke numbers never overwrite the
# committed full-run BENCH_ncd.json
(cd "$ncd_dir" && "$root/_build/default/bench/main.exe" -quick -j 2 -only coreutils ncd) \
  > "$ncd_dir/ncd.log"
[ -s "$ncd_dir/BENCH_ncd.json" ] \
  || { echo "ci: FAIL — ncd microbench wrote no BENCH_ncd.json" >&2; exit 1; }
python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert d["streams"] >= 1 and d["total_bytes"] > 0
assert len(d["levels"]) >= 2
assert d["size_cache"]["hits"] > 0, d
' "$ncd_dir/BENCH_ncd.json" \
  || { echo "ci: FAIL — BENCH_ncd.json failed validation" >&2; exit 1; }

echo "== ci: strategy smoke gate (CLI tune, all strategies) =="
# Every strategy must run end-to-end through the shared search engine and
# the batched Pool + size-cache fitness path, and must respect the
# evaluation budget handed to it.  (GA bit-identity with the pre-refactor
# engine is pinned separately: step 4's frozen greedy sentinel exercises
# the GA through the framework.)
strategy_budget=40
for s in ga hill anneal random ensemble; do
  tune_line=$(dune exec bin/bintuner_cli.exe -- tune --bench 462.libquantum \
      --profile llvm --strategy "$s" --max-iterations "$strategy_budget" \
    | grep '^tuned ')
  echo "$tune_line"
  case "$tune_line" in
    *"[$s]"*) ;;
    *) echo "ci: FAIL — tune output does not carry strategy tag [$s]" >&2; exit 1 ;;
  esac
  iters=$(echo "$tune_line" | awk '{print $6}')
  case "$iters" in
    ''|*[!0-9]*) echo "ci: FAIL — could not parse iteration count for $s" >&2; exit 1 ;;
  esac
  [ "$iters" -ge 1 ] && [ "$iters" -le "$strategy_budget" ] \
    || { echo "ci: FAIL — strategy $s ran $iters iterations against budget $strategy_budget" >&2; exit 1; }
done
db_dir=$(mktemp -d)
echo "garbage line" > "$db_dir/bad.db"
if dune exec bin/bintuner_cli.exe -- tune --bench 462.libquantum \
     --max-iterations 8 --db "$db_dir/bad.db" > "$db_dir/out" 2> "$db_dir/err"; then
  echo "ci: FAIL — tune accepted a malformed --db" >&2; exit 1
fi
grep -qF "$db_dir/bad.db" "$db_dir/err" \
  || { echo "ci: FAIL — malformed --db error does not name the file" >&2; exit 1; }
if grep -q '^tuned ' "$db_dir/out"; then
  echo "ci: FAIL — tune searched before rejecting a malformed --db" >&2; exit 1
fi
rm -rf "$db_dir"

echo "== ci: search microbench smoke =="
search_dir=$(mktemp -d)
trap 'rm -f "$smoke_log" "$trace_file" "$profile_log"; rm -rf "$ncd_dir" "$search_dir"' EXIT
# scratch cwd again, so the quick-budget numbers never overwrite a
# committed full-run BENCH_search.json
(cd "$search_dir" && "$root/_build/default/bench/main.exe" -quick -j 2 \
  -only 462.libquantum search) > "$search_dir/search.log"
[ -s "$search_dir/BENCH_search.json" ] \
  || { echo "ci: FAIL — search microbench wrote no BENCH_search.json" >&2; exit 1; }
python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert d["budget"] > 0
assert len(d["runs"]) >= 5
assert len({r["strategy"] for r in d["runs"]}) >= 5
for r in d["runs"]:
    assert 1 <= r["evaluations"] <= d["budget"], r
    assert r["functional_ok"] is True, r
assert len(d["incremental"]) >= 1
for c in d["incremental"]:
    assert c["identical_outcome"] is True, c
    assert c["on"]["incr_hits"] >= 1, c
' "$search_dir/BENCH_search.json" \
  || { echo "ci: FAIL — BENCH_search.json failed validation" >&2; exit 1; }

echo "== ci: serve smoke gate (daemon + persistent store) =="
tools/serve_smoke.sh

echo "== ci: multi-objective smoke gate (tune --objective ncd,gadgets) =="
mo_dir=$(mktemp -d)
trap 'rm -f "$smoke_log" "$trace_file" "$profile_log"; rm -rf "$ncd_dir" "$search_dir" "$mo_dir"' EXIT
for j in 1 2; do
  dune exec bin/bintuner_cli.exe -- tune --bench 429.mcf --profile llvm \
      --max-iterations 40 -j "$j" --objective ncd,gadgets \
    | grep -E '^(tuned|objectives:|pareto front:|  front )' > "$mo_dir/tune_j$j.txt"
done
cat "$mo_dir/tune_j2.txt"
cmp -s "$mo_dir/tune_j1.txt" "$mo_dir/tune_j2.txt" \
  || { echo "ci: FAIL — multi-objective tune differs between -j 1 and -j 2" >&2; exit 1; }
front_points=$(grep -c '^  front ' "$mo_dir/tune_j2.txt")
[ "$front_points" -ge 1 ] \
  || { echo "ci: FAIL — multi-objective tune reported an empty Pareto front" >&2; exit 1; }
# mutual non-domination of the 2-axis front: the CLI prints it sorted
# lexicographically descending, so each successive point must trade NCD
# (axis 1, non-increasing) for strictly more of axis 2
grep '^  front ' "$mo_dir/tune_j2.txt" \
  | awk '{gsub(/[][]/, ""); ncd=$3; g=$4
          if (NR > 1 && (ncd > pn + 1e-9 || g <= pg + 1e-9)) bad=1
          pn=ncd; pg=g}
         END {exit bad}' \
  || { echo "ci: FAIL — CLI Pareto front is not mutually non-dominated" >&2; exit 1; }

echo "== ci: pareto microbench smoke =="
# scratch cwd so the quick numbers never clobber the committed
# full-budget BENCH_pareto.json; the experiment itself exits non-zero
# if any front the archive returns is mutually dominated
(cd "$mo_dir" && "$root/_build/default/bench/main.exe" -quick -j 2 \
  -only 462.libquantum pareto) > "$mo_dir/pareto.log"
[ -s "$mo_dir/BENCH_pareto.json" ] \
  || { echo "ci: FAIL — pareto microbench wrote no BENCH_pareto.json" >&2; exit 1; }
python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert d["objectives"] == ["ncd", "gadgets"]
assert d["budget"] > 0 and len(d["runs"]) >= 2
assert d["all_fronts_non_dominated"] is True
for r in d["runs"]:
    assert r["front_size"] >= 1 and len(r["front"]) == r["front_size"], r
    assert r["objective_memo_misses"] >= 1, r
' "$mo_dir/BENCH_pareto.json" \
  || { echo "ci: FAIL — BENCH_pareto.json failed validation" >&2; exit 1; }

echo "== ci: work-count gate (BENCH_work.json) =="
tools/work_counts.sh --check \
  || { echo "ci: FAIL — work counts differ from BENCH_work.json" >&2; exit 1; }

echo "ci: OK (sentinel $sentinel_j1, greedy oracle stable, $memo_hits memo hits, ncd cache hits $ncd_hits, all strategies within budget, pareto front $front_points points, $(wc -l < "$trace_file") trace events)"
