#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of the checkout:

    python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json in tiny mode, untraced and
   traced, and checks that the last stdout line is a result object that
   names every end-to-end (untraced) or per-layer (traced) metric of
   BENCHMARK.json with its unit, and reports no failure.
2. Runs one workload with deliberately broken results and checks that
   each is counted as a failed operation: a perturbed repeat outcome
   (untraced), a perturbed traced-composition outcome, and a traced run
   that leaves one layer (the VM check) untimed, so its time lands in
   the unattributed share and the reconciliation must fail.

Exits non-zero on the first violation.
"""

import json
import subprocess
import sys

COMMAND = ["bash", "perfbench/run.sh"]


def run(args):
    proc = subprocess.run(COMMAND + args, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {args} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, msg):
    if not cond:
        sys.exit("FAIL: " + msg)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", w["name"], "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--tiny"]
            r = run(args)
            expect(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                   f"{args}: result keys {sorted(r)}")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{args}: correct={r['correct']} failed={r['failed']}")
            for m in bench[key]:
                got = r["metrics"].get(m["name"])
                expect(got is not None, f"{args}: metric {m['name']} missing")
                expect(got["unit"] == m["unit"],
                       f"{args}: {m['name']} unit {got['unit']} != {m['unit']}")
                expect(isinstance(got["value"], (int, float)),
                       f"{args}: {m['name']} value {got['value']!r}")
            expect(len(r["metrics"]) == len(bench[key]),
                   f"{args}: {len(r['metrics'])} metrics, want {len(bench[key])}")
            print(f"ok  {w['name']} trace={trace}: {len(r['metrics'])} metrics, "
                  f"{r['attempted']} operations")
    w = bench["workloads"][0]["name"]
    for trace, extra in (("0", ["--perturb"]), ("1", ["--perturb"]),
                         ("1", ["--drop-frame", "vm"])):
        args = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", trace,
                "--tiny"] + extra
        r = run(args)
        expect(r["failed"] == 1 and not r["correct"],
               f"{args}: not counted once: failed={r['failed']} correct={r['correct']}")
        if trace == "0":
            expect(r["metrics"]["success_rate"]["value"] < 1.0,
                   f"{args}: success_rate left at 1")
        print(f"ok  {w} trace={trace} {' '.join(extra)}: "
              f"{r['failed']} of {r['attempted']} operations failed")


if __name__ == "__main__":
    main()
