#!/usr/bin/env python3
"""Print every end-to-end metric, by name and unit, for each workload.

    python3 perfbench/report.py [--seed 1] [--seconds 30] [--trace]

Each workload runs in its own fresh process through run.py, one after the
other.  --trace prints the per-layer metrics of a traced run as well.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(ROOT),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stderr.splitlines()
    for line in lines[1:]:
        print(f"  {line}")
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(lines[0])


def show(name: str, result: dict, meta: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}: correct={result['correct']} attempted={attempted} failed={failed} "
          f"failed_frac={failed / attempted:.4f} samples={meta.get('samples', '-')} "
          f"beyond_p90={meta.get('beyond_p90', '-')}")
    for metric, entry in result["metrics"].items():
        label = "absent" if metric in meta.get("absent", ()) else f"{entry['value']:.4f}"
        print(f"  {metric:<50} {label:>12} {entry['unit']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also print the per-layer metrics")
    args = parser.parse_args()
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace in (0, 1) if args.trace else (0,):
            result, meta = run_workload(name, args.seed, args.seconds, trace)
            if trace == 0:
                print(json.dumps({k: meta[k] for k in ("python", "platform", "nproc", "commit")}))
            show(name + (" (traced)" if trace else ""), result, meta)
            ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
