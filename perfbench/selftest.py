#!/usr/bin/env python3
"""Self-test of the benchmark: outputs and exact counts only, no timing assertions.

    python3 perfbench/selftest.py

On a small seed it checks, for every workload, that traced and untraced
queries give identical verdicts, witnesses, certificate JSON, DFA JSON and
CLI output, and that the outputs pass the benchmark's own checks.  It then
runs run.py --trace 1 twice per workload and checks that every named layer is
present and that every per-layer count repeats exactly, including
interlace.avoider_automaton.calls = 4 per decide-nonregular query and
regularity.decide_regularity.calls = 6 per dfa-regular query.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import run
import tracer as tracing
import workloads

SEED = 7
SMALL = 4  # cheapest pool entries of the library workloads for the in-process comparison
EXACT = {
    ("decide-nonregular", "interlace.avoider_automaton.calls"): 4,
    ("dfa-regular", "regularity.decide_regularity.calls"): 6,
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def per_query_calls(spans) -> Counter:
    return Counter((s[tracing.QID], s[tracing.NAME]) for s in spans)


def outputs_agree(name: str) -> None:
    wl, pool = run.setup(name, SEED)
    # every CLI command, so both exit codes and all output kinds are compared
    small = pool if name == workloads.CliCold.name else sorted(pool, key=lambda q: q.size)[:SMALL]
    plain = [wl.run_inprocess(q) for q in small]
    problems = [p for q, out in zip(small, plain) for p in wl.check(q, out)]
    expect(not problems, f"{name}: outputs pass the benchmark's checks {problems or ''}")
    if name == workloads.CliCold.name:
        cold = [wl.run(q) for q in small]
        expect(cold == plain, f"{name}: fresh processes print what cli.main prints in-process")
    tracer = tracing.Tracer()
    counts = []
    for rep in range(2):
        with tracer:
            traced = []
            for k, q in enumerate(small):
                tracer.query_id = k
                traced.append(wl.run_inprocess(q))
        counts.append(per_query_calls(tracer.drain()))
        for (workload, metric), want in EXACT.items():
            if workload == name:
                layer = metric.rsplit(".", 1)[0]
                got = [counts[-1][(k, layer)] for k in range(len(small))]
                expect(all(c == want for c in got), f"{name}: {metric} per query is {got}")
        expect(
            [wl.canonical(o) for o in traced] == [wl.canonical(o) for o in plain],
            f"{name}: traced pass {rep} gives the untraced outputs",
        )
    expect(counts[0] == counts[1], f"{name}: per-query call counts repeat across traced passes")


def traced_runs_repeat(name: str) -> None:
    results = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve().parent / "run.py"), "--workload", name,
             "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, cwd=str(run.ROOT),
        )
        if proc.returncode != 0:
            expect(False, f"{name}: run.py --trace 1 exited {proc.returncode}: {proc.stderr}")
            return
        meta = json.loads(proc.stderr.splitlines()[0])
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(result["correct"], f"{name}: traced run is correct")
        expect(not meta["absent"], f"{name}: every named layer is present {meta['absent'] or ''}")
        results.append(result["metrics"])
    counts = [{k: v["value"] for k, v in r.items() if v["unit"] == "count"} for r in results]
    expect(counts[0] == counts[1], f"{name}: every per-layer count repeats exactly across runs")
    for (workload, metric), want in EXACT.items():
        if workload == name:
            got = counts[0][metric]
            expect(got == want, f"{name}: {metric} = {got}, expected {want} per query")


def main() -> int:
    for name in workloads.WORKLOADS:
        outputs_agree(name)
    for name in workloads.WORKLOADS:
        traced_runs_repeat(name)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
