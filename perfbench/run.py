#!/usr/bin/env python3
"""Run one occlang benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decide-nonregular --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` of that checkout, never from an installed copy.  One closed-loop
client drives the program: each query starts when the previous one has
returned, and each run covers whole passes over the workload's seeded input
pool (at least MIN_QUERIES queries, so the 90th percentile has ten samples
beyond it).

With ``--trace 0`` the end-to-end metrics named in BENCHMARK.json are
reported; with ``--trace 1`` the per-layer metrics, from spans recorded
around every public occlang function.  Outputs are checked after the timed
phase; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 9
MIN_QUERIES = 100
PROBE_IMPORT = (
    "import time; t = time.perf_counter(); import occlang.cli; "
    "print(time.perf_counter() - t)"
)


class SetupError(Exception):
    pass


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None


def fresh_import(with_cli: bool):
    """Import occlang from src/ of this checkout, discarding any earlier import."""
    if not (SRC / "occlang" / "__init__.py").is_file():
        raise SetupError(f"no occlang sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = False
    for name in [n for n in sys.modules if n == "occlang" or n.startswith("occlang.")]:
        del sys.modules[name]
    lib = importlib.import_module("occlang")
    if Path(lib.__file__).resolve().parent != (SRC / "occlang").resolve():
        raise SetupError(f"imported occlang from {lib.__file__}, not from {SRC}")
    if with_cli:
        importlib.import_module("occlang.cli")
    return lib


def child_env() -> dict:
    """Environment of CLI processes: this checkout's sources, bytecode cached as in an install."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def setup(name: str, seed: int):
    """Import, generate the inputs and warm up; return (workload, pool)."""
    lib = fresh_import(with_cli=name == workloads.CliCold.name)
    wl = workloads.make(name, lib, sys.executable, child_env(), str(ROOT))
    pool = wl.build(seed)
    wl.run(min(pool, key=lambda q: q.size))
    return wl, pool


class Outcomes:
    """Per pool entry: the first output, how often it ran, how often a rerun differed."""

    def __init__(self, size: int):
        self.first: list = [None] * size
        self.seen = [False] * size
        self.runs = [0] * size
        self.differed = [0] * size

    def record(self, k: int, out) -> None:
        self.runs[k] += 1
        if not self.seen[k]:
            self.seen[k] = True
            self.first[k] = out
        elif not _same(out, self.first[k]):
            self.differed[k] += 1

    def failures(self, wl, pool) -> tuple[int, list[str]]:
        """Failed queries: every run of an entry whose output fails its check, else reruns that differed."""
        failed, notes = 0, []
        for k, q in enumerate(pool):
            if not self.seen[k]:
                continue
            out = self.first[k]
            if isinstance(out, BaseException):
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                try:
                    problems = wl.check(q, out)
                except Exception as exc:  # a malformed output must count, not crash the run
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += self.runs[k]
                notes.append(f"{q.label}: {'; '.join(problems)}")
            elif self.differed[k]:
                failed += self.differed[k]
                notes.append(f"{q.label}: output changed between runs")
        return failed, notes


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def call(run, q):
    try:
        return run(q)
    except Exception as exc:  # counted as a failed query
        return exc


def closed_loop(wl, pool, seconds: float) -> tuple[list[int], float, Outcomes]:
    """Latencies (ns) of whole passes over pool, for at least `seconds`."""
    n = len(pool)
    outcomes = Outcomes(n)
    latencies: list[int] = []
    clock = time.perf_counter_ns
    cap_ns = int((2 * seconds + 10) * 1e9)
    start = clock()
    i = 0
    while True:
        q = pool[i % n]
        t0 = clock()
        out = call(wl.run, q)
        latencies.append(clock() - t0)
        outcomes.record(i % n, out)
        i += 1
        elapsed = clock() - start
        if elapsed >= cap_ns or (i % n == 0 and elapsed >= seconds * 1e9 and i >= MIN_QUERIES):
            break
    return latencies, (clock() - start) / 1e9, outcomes


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(spec, name, latencies, wall, setup_times) -> dict:
    values = {
        "query_p50_ms": statistics.median(latencies) / 1e6,
        "query_p90_ms": statistics.quantiles(latencies, n=10)[8] / 1e6,
        "queries_per_s": len(latencies) / wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(children=name == workloads.CliCold.name),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def probe_ms(argv: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, env=child_env(), cwd=str(ROOT), timeout=60)
    return (time.perf_counter() - t0) * 1e3


def probe_import_ms() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_IMPORT],
        check=True, capture_output=True, text=True, env=child_env(), cwd=str(ROOT), timeout=60,
    )
    return float(proc.stdout) * 1e3


def traced_run(wl, pool, seconds: float):
    """Alternate untraced and traced in-process passes over pool for `seconds`.

    Each traced pass is folded into per-layer totals and its spans dropped,
    so memory stays bounded; the spans of the first traced pass are kept for
    the spans file.  Returns the totals, those spans, the traced query count,
    the traced/untraced wall-time ratio, the outcomes and, for the CLI
    workload, the start-up probes.
    """
    n = len(pool)
    tracer = tracing.Tracer()
    stats: dict[str, tracing.LayerStats] = {}
    kept: list[tuple] = []
    outcomes = Outcomes(n)
    probes: dict[str, list[float]] = {"interpreter": [], "import": []}
    is_cli = wl.name == workloads.CliCold.name
    plain_ns = traced_ns = 0
    passes = 0
    clock = time.perf_counter_ns
    start = clock()
    while True:
        t0 = clock()
        for k, q in enumerate(pool):
            outcomes.record(k, call(wl.run_inprocess, q))
        t1 = clock()
        with tracer:
            for k, q in enumerate(pool):
                tracer.query_id = passes * n + k
                outcomes.record(k, call(wl.run_inprocess, q))
        t2 = clock()
        plain_ns += t1 - t0
        traced_ns += t2 - t1
        spans = tracer.drain()
        tracing.aggregate(spans, stats)
        if not passes:
            kept = spans
        passes += 1
        if is_cli:
            probes["interpreter"].append(probe_ms([sys.executable, "-c", "pass"]))
            probes["import"].append(probe_import_ms())
        if clock() - start >= seconds * 1e9:
            break
    return stats, kept, passes * n, traced_ns / plain_ns, outcomes, probes


def per_layer(spec, stats, queries, overhead, probes) -> tuple[dict, list[str]]:
    for mod in {m["name"].split(".", 1)[0] for m in spec["per_layer"]} - {"trace"}:
        try:
            importlib.import_module("occlang." + mod)
        except ImportError:
            pass
    bound = tracing.bound_layers()
    main = stats.get("cli.main")
    special = {
        "trace.overhead_ratio": overhead,
        "cli.interpreter_ms": statistics.median(probes["interpreter"]) if probes["interpreter"] else 0.0,
        "cli.import_ms": statistics.median(probes["import"]) if probes["import"] else 0.0,
        "cli.handler_ms": main.total_ns / main.calls / 1e6 if main else 0.0,
    }
    metrics, absent = {}, []
    for m in spec["per_layer"]:
        name = m["name"]
        if name in special:
            value = special[name]
            if name == "cli.handler_ms" and "cli.main" not in bound:
                absent.append(name)
        else:
            layer, stat = name.rsplit(".", 1)
            if layer in bound:
                value = tracing.layer_metric(stats, layer, stat, queries)
            else:
                # the contract needs a number; the layer is listed as absent instead
                value = 0
                absent.append(name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics, absent


def run_metadata(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl, pool = setup(args.workload, args.seed)
            setup_times.append(time.perf_counter() - t0)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: setup failed: {exc}", file=sys.stderr)
        return 2

    meta = run_metadata(args)
    meta["pool"] = [q.label for q in pool]
    absent: list[str] = []
    if args.trace:
        stats, spans, queries, overhead, outcomes, probes = traced_run(wl, pool, args.seconds)
        metrics, absent = per_layer(spec, stats, queries, overhead, probes)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracing.dump(trace_path, spans, dict(meta, absent=absent, metrics=metrics))
        meta["spans_file"] = str(trace_path.relative_to(ROOT))
    else:
        latencies, wall, outcomes = closed_loop(wl, pool, args.seconds)
        metrics = end_to_end(spec, args.workload, latencies, wall, setup_times)
        meta["samples"] = len(latencies)
        meta["beyond_p90"] = sum(1 for v in latencies if v / 1e6 > metrics["query_p90_ms"]["value"])
    attempted = sum(outcomes.runs)
    failed, notes = outcomes.failures(wl, pool)

    meta["failed_frac"] = failed / attempted
    meta["absent"] = absent
    print(json.dumps(meta), file=sys.stderr)
    for note in notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    for name in absent:
        print(f"perfbench: {name}: absent", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
