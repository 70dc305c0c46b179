# Convenience entry points; everything below is plain dune.
#
#   make check        build everything and run the full test suite
#   make bench-smoke  scaled-down Table 1 on the parallel engine (-quick -j 2)
#   make verify-ir    IR-verified compile of the whole corpus (every preset,
#                     profile, arch and a few random valid flag vectors) plus
#                     the pedantic lint against the committed allowlist
#   make serve-smoke  boot the tuning daemon against a scratch persistent
#                     store, run two jobs + status over stdin, assert job 2
#                     is served from memory and no worker domains leak,
#                     then assert a fresh daemon serves the job off disk
#   make inspect      verified disassembly + gadget census + feature
#                     extraction over the whole corpus on all four arches
#                     (exits non-zero on any disassembly mismatch)
#   make ci           what tools/ci.sh runs: check + bench-smoke + the
#                     determinism-sentinel cross-check over -j values

.PHONY: check bench-smoke verify-ir serve-smoke inspect ci

check:
	dune build @all
	dune runtest

# A fast end-to-end exercise of the tuning engine: quick search budget,
# two worker domains, full Table 1 driver (pretune fan-out + compile memo
# + pass-prefix snapshot store + determinism sentinel all on the hot
# path), then the search-strategy microbench (all five strategies through
# the batched evaluation path, and the hill incremental-compilation
# off/on differential, emitting an outcome-only BENCH_search.json) from
# a scratch directory so the smoke numbers never clobber a committed
# full-run artifact, and finally a tiny `pareto` run (the vector-fitness
# engine end to end: ncd,gadgets tuning, Pareto fronts, BENCH_pareto.json
# — the experiment exits non-zero if any front is mutually dominated).
bench-smoke:
	dune exec bench/main.exe -- -quick -j 2 table1
	dune build bench/main.exe
	tmp=$$(mktemp -d) && (cd $$tmp && $(CURDIR)/_build/default/bench/main.exe \
	  -quick -j 2 -only 462.libquantum search) && rm -rf $$tmp
	tmp=$$(mktemp -d) && (cd $$tmp && $(CURDIR)/_build/default/bench/main.exe \
	  -quick -j 2 -only 462.libquantum pareto) && rm -rf $$tmp

# The static-analysis gate: every pass of every compile in the sweep runs
# under the IR verifier, then the MinC lint must report nothing beyond the
# reviewed findings in tools/lint_allowlist.txt.
verify-ir:
	dune exec bin/bintuner_cli.exe -- verify
	dune exec bin/bintuner_cli.exe -- analyze --allowlist tools/lint_allowlist.txt

# The serve daemon end-to-end: stdin transport, scratch artifact store,
# default memo.  One daemon runs two identical jobs (the second served
# from the session's memo and final-selection cache) and a status
# request; a fresh daemon over the same store then runs the job again
# entirely off disk, bit-identically.  Both quit cleanly.  tools/ci.sh
# runs the same script as its serve gate.
serve-smoke:
	tools/serve_smoke.sh

# Binary-level static analysis over every corpus program on every arch:
# recursive-descent disassembly cross-checked against the linear sweep
# and the compiler's true instruction boundaries, gadget census, dead
# code and stack bounds.  Any disassembly mismatch fails the target.
inspect:
	dune exec bin/bintuner_cli.exe -- inspect --all --arch all

ci:
	tools/ci.sh
