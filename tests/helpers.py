"""Shared test utilities: exhaustive word tables and vectorized DFA sweeps.

The exhaustive properties compare automata against brute-force oracles over
every word up to a length bound.  Words of a fixed length are represented as
their index in lexicographic order, so a whole level can be processed with a
few numpy gathers instead of a Python loop per word.
"""

from itertools import product

import numpy as np

from occlang import (
    Alphabet,
    BorderDecomposition,
    Dfa,
    count_occurrences,
    decompose_bordered,
    matcher_automaton,
)
from occlang.regularity import _tracker

BIN = Alphabet("01")
TERN = Alphabet("012")
UNARY = Alphabet("a")


def words_upto(alphabet, max_length, min_length=0):
    """All words of length min_length..max_length in length-lexicographic order."""
    for length in range(min_length, max_length + 1):
        for tup in product(alphabet.symbols, repeat=length):
            yield "".join(tup)


def nonempty_words_upto(alphabet, max_length):
    return words_upto(alphabet, max_length, min_length=1)


def scan_count(w, p):
    """Position-scan occurrence count, independent of the library's find loop."""
    return sum(1 for i in range(len(w) - len(p) + 1) if w[i : i + len(p)] == p)


def level_scan_counts(p, alphabet, max_length):
    """Per length L, |w|_p for each word w of length L (lex order), by scan_count.

    A word counts what its prefix one letter shorter counts, plus one if it
    ends in p; the words of one length run through the |p|-letter suffixes in
    a cycle, so one scan_count per suffix serves every length.
    """
    k = len(alphabet)
    ends = np.array([scan_count(w, p) for w in words_upto(alphabet, len(p), len(p))], dtype=np.int8)
    levels = [np.zeros(1, dtype=np.int8)]
    for length in range(1, max_length + 1):
        counts = np.repeat(levels[-1], k)
        if length >= len(p):
            counts += np.tile(ends, k ** (length - len(p)))
        levels.append(counts)
    return levels


def level_states(dfa: Dfa, max_length: int):
    """Per length L, the DFA state reached by each word of length L (lex order)."""
    k = len(dfa.alphabet)
    trans = np.array(dfa.transitions, dtype=np.int64)
    levels = [np.array([dfa.start], dtype=np.int64)]
    for _ in range(max_length):
        prev = levels[-1]
        expanded = np.repeat(prev, k)
        symbols = np.tile(np.arange(k, dtype=np.int64), len(prev))
        levels.append(trans[expanded, symbols])
    return levels


def level_acceptance(dfa: Dfa, max_length: int):
    """Per length L, a boolean array of acceptance for each word (lex order)."""
    lut = np.zeros(dfa.state_count, dtype=bool)
    for s in dfa.accepting:
        lut[s] = True
    return [lut[states] for states in level_states(dfa, max_length)]


def level_mark_counts(matcher: Dfa, max_length: int):
    """Per length L, the number of entries into an accepting state for each word (lex order)."""
    k = len(matcher.alphabet)
    trans = np.array(matcher.transitions, dtype=np.int64)
    marks = np.zeros(matcher.state_count, dtype=np.int64)
    for s in matcher.accepting:
        marks[s] = 1
    states = np.array([matcher.start], dtype=np.int64)
    counts = np.array([0], dtype=np.int64)
    out = [counts]
    for _ in range(max_length):
        expanded = np.repeat(states, k)
        symbols = np.tile(np.arange(k, dtype=np.int64), len(states))
        states = trans[expanded, symbols]
        counts = np.repeat(counts, k) + marks[states]
        out.append(counts)
    return out


def containing(p, alphabet):
    """The words that contain p: the KMP matcher with state |p| made an accepting sink."""
    m = matcher_automaton(p, alphabet)
    return m._replace(transitions=m.transitions[:-1] + ((len(p),) * len(alphabet),))


def word_from_index(alphabet, length, index):
    """The word of the given length whose lexicographic rank is index."""
    k = len(alphabet)
    out = []
    for _ in range(length):
        index, digit = divmod(index, k)
        out.append(alphabet.symbols[digit])
    # divmod peels least-significant first, which is the last position
    return "".join(reversed(out))


def naive_minimize(dfa: Dfa) -> Dfa:
    """The canonical minimal DFA by Moore refinement, independent of occlang.automata.minimize.

    Moore: two reachable states stay in one class while they agree on
    acceptance and their successors on every symbol lie in one class; refine
    until the number of classes stops growing.  The classes are then numbered
    by breadth-first search from the start class, successors in symbol order.
    """
    reached = [dfa.start]
    for s in reached:
        reached += [t for t in dict.fromkeys(dfa.transitions[s]) if t not in reached]
    cls = {s: int(s in dfa.accepting) for s in reached}
    count = len(set(cls.values()))
    while True:
        signature = {s: (cls[s],) + tuple(cls[t] for t in dfa.transitions[s]) for s in reached}
        names = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        cls = {s: names[signature[s]] for s in reached}
        if len(names) == count:
            break
        count = len(names)
    number = {cls[dfa.start]: 0}
    member = {cls[s]: s for s in reversed(reached)}
    queue = [cls[dfa.start]]
    rows = []
    for c in queue:
        row = []
        for t in dfa.transitions[member[c]]:
            if cls[t] not in number:
                number[cls[t]] = len(queue)
                queue.append(cls[t])
            row.append(number[cls[t]])
        rows.append(tuple(row))
    accepting = frozenset(number[cls[s]] for s in reached if s in dfa.accepting)
    return Dfa(dfa.alphabet, tuple(rows), 0, accepting)


def tracker_dfa(x, y, alphabet, rel):
    """The unminimized difference tracker of x interlaced by y, accepting the words of rel.

    A state's key k holds the difference d = k % 3 - 1; the sink's key -3 reads
    as d = -1, which every relation treats as it treats the d <= -1 for good
    that the sink stands for.  A state accepts when d rel 0.
    """
    rows, keys = _tracker(x, y, alphabet)
    return Dfa(alphabet, rows, 0, frozenset(i for i, k in enumerate(keys) if rel.holds(k % 3 - 1, 0)))


def reference_certificate_problems(cert, x, y):
    """The certificate self-check's problems, each claim recounted in its whole word.

    The library's check counts blocks and seam windows once at the two points
    per pattern that its proof needs; this counts x and y afresh in the whole
    word (uv)^i (pq)^j at those same points, and walks (uv)^i u and (pq)^j p
    one power at a time up to the check's bound, naming the first that holds
    the pattern.  So the two must name the same problems in the same order.
    """
    problems = []
    for name, dec, word, border in (("r", cert.dec_r, cert.r, y), ("s", cert.dec_s, cert.s, x)):
        if not dec.u or dec.border() != border or dec.bordered_word() != word:
            problems.append(f"dec_{name} does not decompose {name}")
    uv = cert.dec_r.period_word()
    pq = cert.dec_s.period_word()
    e, f = cert.dec_r.e, cert.dec_s.e
    for name, p, block, tail, low, words, points, formula in (
        ("x", x, uv, cert.dec_r.u, e, "(uv)^{} u", [(e + 1, f + 1), (e + 1, f + 2)],
         lambda i, j: (j - f) * cert.d_prime + cert.c_prime - cert.d_prime + cert.m),
        ("y", y, pq, cert.dec_s.u, f, "(pq)^{} p", [(e + 1, f + 1), (e + 2, f + 1)],
         lambda i, j: (i - e) * cert.d + cert.c - cert.d + cert.n),
    ):
        # up to the shortest block^i tail, i > low, of at least |p| + |block| - 1 letters
        i = low + 1
        while True:
            if count_occurrences(block * i + tail, p):
                problems.append(f"{name} occurs in {words.format(i)}")
                break
            if not block or len(block * i + tail) >= len(p) + len(block) - 1:
                break
            i += 1
        for i, j in points:
            if count_occurrences(uv * i + pq * j, p) != formula(i, j):
                problems.append(f"{name}-count formula fails at i={i}, j={j}")
    return problems


def certificate_mutants(cert, x, y):
    """Twenty certificates the self-check must reject, each one field or piece off.

    r = y + x + y is y-bordered, first with the real decomposition and then with
    its own, but it contains x; then every count and each e one up and one down;
    then each decomposition with u and v swapped.
    """
    yxy = y + x + y
    mutants = [cert._replace(r=yxy), cert._replace(r=yxy, dec_r=decompose_bordered(yxy, y))]
    for delta in (-1, 1):
        for field in ("m", "n", "c", "d", "c_prime", "d_prime"):
            mutants.append(cert._replace(**{field: getattr(cert, field) + delta}))
        mutants.append(cert._replace(dec_r=cert.dec_r._replace(e=cert.dec_r.e + delta)))
        mutants.append(cert._replace(dec_s=cert.dec_s._replace(e=cert.dec_s.e + delta)))
    for name in ("dec_r", "dec_s"):
        u, v, e = getattr(cert, name)
        mutants.append(cert._replace(**{name: BorderDecomposition(v, u, e)}))
    return mutants
