"""Seeded inputs, queries and output checks for the three benchmark workloads.

The program only ever receives words and an alphabet.  Every check here is
independent of the code under test: occurrence counts come from a regex
position scan, expected verdicts from the paper's constant-length padding
criterion, and the golden-pair expectations are written out by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import random
import re
import subprocess
from dataclasses import dataclass, field
from itertools import product

RELATIONS = ("lt", "le", "eq", "gt", "ge", "ne")
_HOLDS = {
    "lt": operator.lt,
    "le": operator.le,
    "eq": operator.eq,
    "gt": operator.gt,
    "ge": operator.ge,
    "ne": operator.ne,
}


def count(z: str, p: str) -> int:
    """Overlapping occurrences of p in z, by a lookahead scan over every position."""
    return len(re.findall("(?=" + re.escape(p) + ")", z))


def is_bordered(z: str, b: str) -> bool:
    return z != b and z.startswith(b) and z.endswith(b)


def padding_interlaced(x: str, y: str, symbols: str) -> bool:
    """Whether y occurs in every x-bordered word, by the padding corollaries.

    Over two symbols it suffices that y occurs in x t x for the eight t of
    length three; over three or more, for every single symbol t.
    """
    pad = 3 if len(symbols) == 2 else 1
    return all(y in x + "".join(t) + x for t in product(symbols, repeat=pad))


def certificate_problems(cert: dict, x: str, y: str) -> list[str]:
    """Re-verify a certificate (in its JSON form) from scratch."""
    out = []
    r, s = cert["r"], cert["s"]
    u, v, e = cert["dec_r"]["u"], cert["dec_r"]["v"], cert["dec_r"]["e"]
    p, q, f = cert["dec_s"]["u"], cert["dec_s"]["v"], cert["dec_s"]["e"]
    uv, pq = u + v, p + q
    if not is_bordered(r, y) or count(r, x):
        out.append("r is not a y-bordered word avoiding x")
    if not is_bordered(s, x) or count(s, y):
        out.append("s is not an x-bordered word avoiding y")
    if uv * e + u != y or uv * (e + 1) + u != r or not u:
        out.append("(u, v, e) does not decompose y and r")
    if pq * f + p != x or pq * (f + 1) + p != s or not p:
        out.append("(p, q, f) does not decompose x and s")
    if uv + pq == pq + uv:
        out.append("uv and pq commute")
    for i in range(e + 1, e + 4):
        for j in range(f + 1, f + 4):
            z = uv * i + pq * j
            if count(z, x) != (j - f) * cert["d_prime"] + cert["c_prime"] - cert["d_prime"] + cert["m"]:
                out.append(f"x-count identity fails at i={i}, j={j}")
            if count(z, y) != (i - e) * cert["d"] + cert["c"] - cert["d"] + cert["n"]:
                out.append(f"y-count identity fails at i={i}, j={j}")
    return out


def table_accepts(table, start: int, accepting, index: dict, z: str) -> bool:
    state = start
    for ch in z:
        state = table[state][index[ch]]
    return state in accepting


def sample_words(rng: random.Random, x: str, y: str, symbols: str, n: int) -> list[str]:
    """Words built from pieces of x and y and random letters, so both patterns occur."""
    top = 2 * max(len(x), len(y)) + 8
    pieces = (x, y, x[: len(x) // 2], y[len(y) // 2 :])
    words = []
    for _ in range(n):
        target = rng.randint(0, top)
        parts, length = [], 0
        while length < target:
            piece = rng.choice(pieces) if rng.random() < 0.5 else rng.choice(symbols)
            parts.append(piece)
            length += len(piece)
        words.append("".join(parts))
    return words


def golden_order(n: int) -> list[int]:
    """Indices 0..n-1 in golden-ratio order, so consecutive queries differ in size."""
    return sorted(range(n), key=lambda i: (i * 0.6180339887) % 1.0)


@dataclass
class Query:
    label: str
    size: int
    args: tuple
    expect: dict = field(default_factory=dict)


class DecideNonregular:
    """decide_regularity on random pairs that the padding criterion calls non-regular."""

    name = "decide-nonregular"
    SIZES = (250, 500, 750, 1000, 1250, 1500, 1750, 2000)
    ALPHABETS = ("01", "012")

    def __init__(self, lib):
        self.lib = lib

    def build(self, seed: int) -> list[Query]:
        rng = random.Random(f"{self.name}/{seed}")
        pool = []
        for symbols in self.ALPHABETS:
            for n in self.SIZES:
                while True:
                    x = "".join(rng.choice(symbols) for _ in range(n))
                    y = "".join(rng.choice(symbols) for _ in range(n))
                    if not padding_interlaced(x, y, symbols) and not padding_interlaced(y, x, symbols):
                        break
                pool.append(Query(f"{symbols}/n={n}", n, (x, y, symbols)))
        return [pool[i] for i in golden_order(len(pool))]

    def run(self, q: Query):
        x, y, symbols = q.args
        return self.lib.decide_regularity(x, y, self.lib.Alphabet(symbols))

    run_inprocess = run

    def canonical(self, out) -> str:
        cert = out.certificate.to_json_dict() if out.certificate is not None else None
        direction = out.direction.value if out.direction is not None else None
        return json.dumps([out.regular, direction, cert], sort_keys=True)

    def check(self, q: Query, out) -> list[str]:
        x, y, _ = q.args
        if out.regular or out.certificate is None:
            return ["pair reported regular, but neither padding test holds"]
        return certificate_problems(out.certificate.to_json_dict(), x, y)


class DfaRegular:
    """build_comparison_dfa for all six relations on regular pairs."""

    name = "dfa-regular"
    FAMILY_N = (40, 80, 160)
    # Factor pairs cost 240-440 ms here, between the family's 0^160/0^80 and
    # its n=160 pairs, so that neither p50 nor p90 falls on a seeded input:
    # the pool has 13 entries, p50 lands inside 0^160/0^80 and p90 inside an
    # n=160 pair, whatever the seed draws.
    FACTORS = (("01", 140), ("01", 140), ("012", 140), ("012", 140))
    SAMPLE_WORDS = 16

    def __init__(self, lib):
        self.lib = lib

    def build(self, seed: int) -> list[Query]:
        rng = random.Random(f"{self.name}/{seed}")
        pairs = []
        for n in self.FAMILY_N:
            pairs.append((f"0^{n}/0^{n - 1}", "0" * n, "0" * (n - 1), "01"))
            pairs.append((f"0^{n} 1/01", "0" * n + "1", "01", "01"))
            pairs.append((f"0^{n}/0^{n // 2}", "0" * n, "0" * (n // 2), "012"))
        for i, (symbols, n) in enumerate(self.FACTORS):
            w = "".join(rng.choice(symbols) for _ in range(n))
            start = rng.randrange(n - n // 10)
            pairs.append((f"factor{i} {symbols}/n={n}", w, w[start : start + n // 10], symbols))
        pool = []
        for label, x, y, symbols in pairs:
            if not (padding_interlaced(x, y, symbols) or padding_interlaced(y, x, symbols)):
                raise AssertionError(f"workload pair {label} is not regular")
            words = sample_words(rng, x, y, symbols, self.SAMPLE_WORDS)
            pool.append(Query(label, len(x) + len(y), (x, y, symbols), {"words": words}))
        return [pool[i] for i in golden_order(len(pool))]

    def run(self, q: Query):
        x, y, symbols = q.args
        lib = self.lib
        alphabet = lib.Alphabet(symbols)
        return tuple(lib.build_comparison_dfa(x, y, alphabet, lib.Relation(r)) for r in RELATIONS)

    run_inprocess = run

    def canonical(self, out) -> str:
        return json.dumps([self.lib.serialize(dfa, "json") for dfa in out])

    def check(self, q: Query, out) -> list[str]:
        x, y, symbols = q.args
        problems = []
        words = q.expect["words"]
        counts = [(count(z, x), count(z, y)) for z in words]
        for rel, dfa in zip(RELATIONS, out):
            index = {s: i for i, s in enumerate(dfa.alphabet.symbols)}
            relation = self.lib.Relation(rel)
            for z, (cx, cy) in zip(words, counts):
                want = _HOLDS[rel](cx, cy)
                if table_accepts(dfa.transitions, dfa.start, dfa.accepting, index, z) != want:
                    problems.append(f"{rel} DFA disagrees with the counts on a word of length {len(z)}")
                    break
                if self.lib.counter_membership(z, x, y, relation) != want:
                    problems.append(f"{rel}: oracle.counter_membership disagrees with the counts")
                    break
        return problems


# Golden pairs from the paper, with expectations written out by hand:
# minimal DFA state counts per relation (regular pairs only) and the
# length-lexicographically smallest x-bordered word avoiding y.
GOLDEN = (
    ("01", "10", "01", {"lt": 4, "le": 4, "eq": 5, "gt": 4, "ge": 4, "ne": 5}, None),
    ("01", "10", "012", None, "01201"),
    ("000100", "1000", "01", {"lt": 16, "le": 10, "eq": 16, "gt": 10, "ge": 16, "ne": 16}, None),
    ("10100", "01001010", "01", None, "10100010100"),
    ("0011", "1100", "01", None, "0011010011"),
)
# what the installed `occlang` console script runs
CONSOLE_SCRIPT = "import sys; from occlang.cli import entry; sys.exit(entry())"
STATE_LINE = re.compile(r"^  (\d+) \[shape=(?:double)?circle\];$", re.M)


class CliCold:
    """One fresh occlang process per command on the paper's golden pairs."""

    name = "cli-cold"

    def __init__(self, lib, python: str, env: dict, cwd: str):
        self.lib = lib
        self.python = python
        self.env = env
        self.cwd = cwd

    def build(self, seed: int) -> list[Query]:
        rng = random.Random(f"{self.name}/{seed}")
        pool = []
        for x, y, symbols, states, witness in GOLDEN:
            flags = ["--alphabet", symbols]
            regular = states is not None
            exp = {"x": x, "y": y, "regular": regular, "states": states, "witness": witness}
            max_len = "8" if len(symbols) == 2 else "5"
            rel_json, rel_dot = rng.choice(RELATIONS), rng.choice(RELATIONS)
            for argv, code, kind, rel in (
                (["regular", x, y, *flags, "--json"], 0, "regular", None),
                (["witness", x, y, *flags, "--json"], 0, "witness", None),
                (["validate", x, y, *flags, "--max-len", max_len, "--json"], 0, "validate", None),
                (["dfa", x, y, *flags, "--relation", rel_json, "--out", "json"],
                 0 if regular else 2, "dfa-json", rel_json),
                (["dfa", x, y, *flags, "--relation", rel_dot, "--out", "dot"],
                 0 if regular else 2, "dfa-dot", rel_dot),
            ):
                pool.append(Query(" ".join(argv), len(x) + len(y), tuple(argv),
                                  dict(exp, code=code, kind=kind, rel=rel)))
        rng.shuffle(pool)
        return pool

    def run(self, q: Query):
        proc = subprocess.run(
            [self.python, "-c", CONSOLE_SCRIPT, *q.args],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.cwd,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def run_inprocess(self, q: Query):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.lib.cli.main(list(q.args))
        return code, buf.getvalue()

    def canonical(self, out) -> str:
        return json.dumps(out)

    def check(self, q: Query, out) -> list[str]:
        code, text = out
        e = q.expect
        if code != e["code"]:
            return [f"exit code {code}, expected {e['code']}"]
        kind = e["kind"]
        if kind == "dfa-dot" and code == 0:
            if not text.startswith("digraph dfa {"):
                return ["DOT output does not start with a digraph"]
            listed = len(STATE_LINE.findall(text))
            if listed != e["states"][e["rel"]]:
                return [f"DOT output lists {listed} states"]
            return []
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        x, y = e["x"], e["y"]
        if kind == "regular":
            if doc.get("regular") is not e["regular"]:
                return ["wrong regularity verdict"]
            return [] if e["regular"] else certificate_problems(doc["certificate"], x, y)
        if kind == "witness":
            return [] if doc.get("witness") == e["witness"] else ["wrong witness"]
        if kind == "validate":
            return [] if doc.get("pass") is True else ["validate reported a failed check"]
        if code == 2:
            return certificate_problems(doc, x, y)
        return self._dfa_json_problems(doc, e)

    @staticmethod
    def _dfa_json_problems(doc: dict, e: dict) -> list[str]:
        rel = e["rel"]
        n = doc["state_count"]
        if n != e["states"][rel]:
            return [f"{rel} DFA has {n} states, expected {e['states'][rel]}"]
        symbols = "".join(doc["alphabet"])
        index = {s: i for i, s in enumerate(symbols)}
        table = [[None] * len(symbols) for _ in range(n)]
        for src, sym, dst in doc["transitions"]:
            table[src][index[sym]] = dst
        accepting = set(doc["accepting"])
        for length in range(9):
            for t in product(symbols, repeat=length):
                z = "".join(t)
                want = _HOLDS[rel](count(z, e["x"]), count(z, e["y"]))
                if table_accepts(table, doc["start"], accepting, index, z) != want:
                    return [f"{rel} DFA JSON disagrees with the counts on {z!r}"]
        return []


WORKLOADS = ("decide-nonregular", "dfa-regular", "cli-cold")


def make(name: str, lib, python: str, env: dict, cwd: str):
    if name == DecideNonregular.name:
        return DecideNonregular(lib)
    if name == DfaRegular.name:
        return DfaRegular(lib)
    if name == CliCold.name:
        return CliCold(lib, python, env, cwd)
    raise ValueError(f"unknown workload {name!r}")
