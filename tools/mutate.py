#!/usr/bin/env python3
"""Mutation gate: each listed wrong variant of the code must fail a named tier-1 test.

    python3 tools/mutate.py

It mutates copies of the checkout it sits in.  For each entry it copies src/
and tests/ to a temporary directory, replaces the entry's old text, which must
occur exactly once in its file, by the new text, and runs
``pytest -q -x`` on the entry's tests there.  A mutant that makes them fail
is killed; one that passes them survived.  The unmutated copy runs every
listed test first, so a kill cannot come from a test that fails anyway.  An
entry proven equivalent (the same outputs on every input) is not run: it
stays listed with its proof, so that no one adds a test for it.  Exits 1 if a
non-equivalent mutant survives, or if an entry or the baseline is broken.
The tool imports only the standard library; the tests need what tier-1 needs.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # the proof, for an entry that cannot be killed


INTERLACE, AUTOMATA = "src/occlang/interlace.py", "src/occlang/automata.py"
REGULARITY, ORACLE = "src/occlang/regularity.py", "src/occlang/oracle.py"
WORDS = "src/occlang/words.py"
WALK = ("tests/test_interlace.py::test_bordered_walk_examples",
        "tests/test_interlace.py::test_bordered_walk_matches_the_automaton_on_periodic_pairs")
MINIMIZE = ("tests/test_automata.py::test_minimize_matches_a_naive_reference",)
TRACKER = ("tests/test_regularity.py::test_tracker_state_counts",
           "tests/test_regularity.py::test_folded_tracker_agrees_with_the_counts")
SCAN = ("tests/test_words.py::test_residue_counts_match_a_scan",)
CERTIFICATE = ("tests/test_regularity.py::test_certificate_self_check_rejects_mutations",
               "tests/test_regularity.py::test_certificate_self_check_decides_the_whole_claim")

MUTANTS = (
    Mutant("overlap jump one letter too far", INTERLACE,
           "p = max(p, n - p0 + 1)", "p = max(p, n - p0 + 2)", WALK),
    Mutant("multiples of p0 not skipped", INTERLACE,
           "if (not p0 or p % p0) and x.startswith(x[p:]):\n            yield x[:p] + x\n            if",
           "if x.startswith(x[p:]):\n            yield x[:p] + x\n            if",
           ("tests/test_interlace.py::test_overlaps_follow_the_border_chain",)),
    Mutant("last short period not tried", INTERLACE,
           "for p in range(max(n - 7, 1), n):", "for p in range(max(n - 7, 1), n - 1):", WALK),
    Mutant("paddings one letter short", INTERLACE,
           "pad, tag = 3, Method.LENGTH_THREE", "pad, tag = 2, Method.LENGTH_THREE", WALK),
    Mutant("factor test reversed", INTERLACE, "if y in x:", "if x in y:",
           ("tests/test_interlace.py::test_a_factor_of_x_holds_with_no_candidate",)),
    Mutant("minimize never queues the last symbol", AUTOMATA,
           "            for ps in preds:\n", "            for ps in preds[:-1]:\n", MINIMIZE),
    Mutant("minimize splits ties the other way", AUTOMATA,
           "if mc <= p - mid:", "if mc < p - mid:", MINIMIZE,
           equivalent="When both parts have mc = p - mid states, either is a smaller part: the "
                      "new block is queued and the other keeps the parent's pending splitters, so "
                      "refinement ends at the same coarsest stable partition, still in O(k·n log n)."),
    Mutant("tracker cap always 0", REGULARITY,
           "cap = 0 if y in x else 1", "cap = 0", TRACKER),
    Mutant("tracker cap always 1", REGULARITY,
           "cap = 0 if y in x else 1", "cap = 1", TRACKER),
    Mutant("x identity checked at one point", REGULARITY,
           "((e + 1, f + 1), (e + 1, f + 2))", "((e + 1, f + 1),)", CERTIFICATE),
    Mutant("y identity checked at one point", REGULARITY,
           "((e + 1, f + 1), (e + 2, f + 1))", "((e + 1, f + 1),)", CERTIFICATE),
    Mutant("residue window one letter short", WORDS,
           "n = len(block) - 1 + len(p)", "n = len(block) - 2 + len(p)", SCAN),
    Mutant("residue counted one time too few", WORDS,
           "// period + 1, 0)", "// period, 0)", SCAN),
    Mutant("certificate's d one more than its residues", REGULARITY,
           "d=len(y_in_uv),", "d=len(y_in_uv) + 1,",
           ("tests/test_regularity.py::test_certificate_golden_binary",)),
    Mutant("first failing power named one too late", REGULARITY,
           "- len(p)) // len(block)))))", "- len(p)) // len(block))) + 1))",
           ("tests/test_regularity.py::test_certificate_self_check_rejects_mutations",)),
    Mutant("oracle counts non-overlapping occurrences", ORACLE,
           "cx = sum(z.startswith(x, i) for i in range(len(z) - len(x) + 1))", "cx = z.count(x)",
           ("tests/test_oracle.py::test_counter_membership_examples",
            "tests/test_oracle.py::test_counter_membership_matches_direct_counts")),
    Mutant("oracle walk skips a pattern's first letter", ORACLE,
           "if path[-n:] == p:", "if path[1 - n :] == p[1:]:",
           ("tests/test_oracle.py::test_census_matches_a_scan_of_every_word",)),
)


def pytest(tree: Path, tests) -> int:
    # No bytecode cache: a mutant may keep its file's size and modification second.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="occlang-mutate-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        if pytest(tree, sorted({t for m in MUTANTS if not m.equivalent for t in m.tests})) != 0:
            print("baseline: the listed tests fail on the unmutated tree")
            return 1
        for m in MUTANTS:
            path = tree / m.file
            text = path.read_text()
            found = text.count(m.old)
            if found != 1:
                print(f"broken   {m.name}: its old text occurs {found} times in {m.file}")
                failures += 1
                continue
            if m.equivalent:
                print(f"equivalent {m.name}: {m.equivalent}")
                continue
            path.write_text(text.replace(m.old, m.new))
            code = pytest(tree, m.tests)
            path.write_text(text)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{verdict:8} {m.name}")
            failures += verdict != "killed"
    print(f"{len(MUTANTS)} entries, {failures} not killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
