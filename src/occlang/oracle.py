"""Brute-force reference procedures backing the test suites.

Everything here is deliberately direct and counts occurrences from their
definition: an occurrence of p in z is a position i where z[i:] starts with
p.  Membership scans every position, censuses enumerate every word, and the
bounded DFA equivalence compares each word's last letters with the patterns.
No automaton is built here: the oracle checks the DFAs the library builds
from its pattern matchers, so it must not share them.  Bordered words are
enumerated in closed form.  Budgets are explicit; exceeding one raises
instead of truncating silently.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .automata import Dfa
from .errors import BudgetExceededError, EmptyPatternError
from .regularity import Relation
from .words import Alphabet, Word, border_lengths


class CensusReport(NamedTuple):
    """Membership counts of a language restricted to words up to max_length."""

    max_length: int
    per_length_counts: tuple[int, ...]
    members: tuple[Word, ...] | None

    def to_json_dict(self) -> dict:
        doc: dict = {"max_length": self.max_length, "counts": list(self.per_length_counts)}
        if self.members is not None:
            doc["members"] = list(self.members)
        return doc


# Each relation written out, not taken from Relation.holds: the oracle checks the library.
_COMPARE = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def counter_membership(z: Word, x: Word, y: Word, rel: Relation) -> bool:
    """Whether |z|_x rel |z|_y, counting the positions of z that start each pattern."""
    if not x or not y:
        raise EmptyPatternError("counter membership needs nonempty patterns")
    cx = sum(z.startswith(x, i) for i in range(len(z) - len(x) + 1))
    cy = sum(z.startswith(y, i) for i in range(len(z) - len(y) + 1))
    return _COMPARE[rel.value](cx, cy)


def _default_budget(alphabet: Alphabet) -> int:
    return 16 if len(alphabet) <= 2 else 10


def _walk_counts(patterns: Sequence[Word], alphabet: Alphabet, max_length: int) -> Iterator:
    """Every word of length <= max_length with its per-pattern occurrence counts.

    Depth-first over the prefix tree in symbol order.  A child counts what its
    parent counts, plus one for each pattern it ends with: the occurrences
    ending at its last letter.  An explicit stack, with children pushed in
    reverse symbol order, keeps the call depth constant whatever max_length is.
    """
    stack = [("", (0,) * len(patterns))]
    while stack:
        word, counts = stack.pop()
        yield word, counts
        if len(word) < max_length:
            for a in reversed(alphabet.symbols):
                child = word + a
                ends = (child.endswith(p) for p in patterns)
                stack.append((child, tuple(c + e for c, e in zip(counts, ends))))


def _census(
    patterns: Sequence[Word],
    alphabet: Alphabet,
    max_length: int,
    member,
    budget: int | None,
    member_limit: int,
) -> CensusReport:
    if any(not p for p in patterns):
        raise EmptyPatternError("census patterns must be nonempty")
    for p in patterns:
        alphabet.require(p)
    if max_length < 0:
        raise ValueError(f"max_length must be nonnegative, got {max_length}")
    cap = budget if budget is not None else _default_budget(alphabet)
    if max_length > cap:
        raise BudgetExceededError(
            f"census to length {max_length} exceeds the budget of {cap}"
        )
    counts = [0] * (max_length + 1)
    buckets: list[list[Word]] = [[] for _ in range(max_length + 1)]
    total = 0
    for word, occ in _walk_counts(patterns, alphabet, max_length):
        if member(occ):
            counts[len(word)] += 1
            total += 1
            if total <= member_limit:
                buckets[len(word)].append(word)
    members = tuple(w for bucket in buckets for w in bucket) if total <= member_limit else None
    return CensusReport(max_length, tuple(counts), members)


def bounded_census(
    x: Word,
    y: Word,
    alphabet: Alphabet,
    rel: Relation,
    max_length: int,
    budget: int | None = None,
    member_limit: int = 512,
) -> CensusReport:
    """Census of { z : |z|_x rel |z|_y } over all words of length <= max_length.

    Words are visited in length-lexicographic order; the explicit member list
    is included only while it stays within member_limit.
    """
    holds = _COMPARE[rel.value]
    return _census(
        [x, y], alphabet, max_length, lambda occ: holds(occ[0], occ[1]), budget, member_limit
    )


def bounded_equal_census(
    patterns: Sequence[Word],
    alphabet: Alphabet,
    max_length: int,
    budget: int | None = None,
    member_limit: int = 512,
) -> CensusReport:
    """Census of the words in which all given patterns occur equally often."""
    if not patterns:
        raise ValueError("at least one pattern is required")
    return _census(
        patterns,
        alphabet,
        max_length,
        lambda occ: len(set(occ)) == 1,
        budget,
        member_limit,
    )


# Words a bounded_equivalence sweep may visit: every word up to length 16
# over two symbols, 10 over three, 131071 over one.
_SWEEP_BUDGET = 1 << 17


def bounded_equivalence(a: Dfa, x: Word, y: Word, rel: Relation, max_length: int) -> Word | None:
    """First word (length-lexicographic) where a's verdict differs from the counts.

    Returns None when the DFA and the oracle agree on every word of length up
    to max_length.  Raises EmptyPatternError for an empty pattern and, before
    sweeping, BudgetExceededError when there are more than 2^17 such words.
    """
    if not x or not y:
        raise EmptyPatternError("bounded equivalence needs nonempty patterns")
    if max_length < 0:
        raise ValueError(f"max_length must be nonnegative, got {max_length}")
    alphabet = a.alphabet
    alphabet.require(x)
    alphabet.require(y)
    k = len(alphabet)
    words, level = 0, 1
    for _ in range(max_length + 1):
        words += level
        if words > _SWEEP_BUDGET:
            raise BudgetExceededError(
                f"equivalence sweep to length {max_length} over {k} symbols "
                f"exceeds the budget of {_SWEEP_BUDGET} words"
            )
        level *= k
    accepting, holds = a.accepting, _COMPARE[rel.value]
    if (a.start in accepting) != holds(0, 0):
        return ""
    ta = a.transitions
    xs = [alphabet.index(c) for c in x]
    ys = [alphabet.index(c) for c in y]
    nx, ny, x_end, y_end = len(x), len(y), xs[-1], ys[-1]
    # Depth-first with an explicit stack, children pushed in reverse symbol
    # order, so the words of one length are met in lexicographic order.  An
    # entry is (length, last symbol, DFA state and x/y counts before that
    # symbol); path holds the symbol indices of the current word, which gains
    # an occurrence of x when path ends with x's indices.  The word itself is
    # never built: over one symbol that would cost quadratic time.  A mismatch
    # hides only words extending it, all length-lexicographically later.
    path: list[int] = []
    best: list[int] | None = None
    stack = [(1, si, a.start, 0, 0) for si in reversed(range(k))] if max_length else []
    while stack:
        length, si, sa, cx, cy = stack.pop()
        path[length - 1 :] = [si]
        sa = ta[sa][si]
        if si == x_end and path[-nx:] == xs:
            cx += 1
        if si == y_end and path[-ny:] == ys:
            cy += 1
        if (sa in accepting) != holds(cx, cy):
            if best is None or length < len(best):
                best = path.copy()
        elif length < max_length:
            stack.extend((length + 1, sj, sa, cx, cy) for sj in reversed(range(k)))
    if best is None:
        return None
    return "".join(alphabet.symbols[i] for i in best)


# Letters, summed over its words, that an enumerate_bordered call may build:
# about 4 MB of text.  A word count alone would not bound memory, since over
# one symbol the words grow as long as max_length.
_BORDERED_BUDGET = 1 << 22


def enumerate_bordered(y: Word, alphabet: Alphabet, max_length: int) -> list[Word]:
    """All y-bordered words of length <= max_length, in length-lexicographic order.

    Overlapping-border lengths L with |y| < L < 2|y| admit exactly one word,
    and only when 2|y| - L is a border length of y; longer words are y,
    filler, y for every filler.  Raises BudgetExceededError, before building
    anything, when those words have more than 2^22 letters in total.
    """
    if not y:
        raise EmptyPatternError("border must be nonempty")
    alphabet.require(y)
    m = len(y)
    k = len(alphabet)
    borders = set(border_lengths(y))
    letters = sum(2 * m - b for b in borders if 2 * m - b <= max_length)
    level = 1
    for length in range(2 * m, max_length + 1):
        letters += level * length
        if letters > _BORDERED_BUDGET:
            raise BudgetExceededError(
                f"{y!r}-bordered words up to length {max_length} over {k} symbols "
                f"exceed the budget of {_BORDERED_BUDGET} letters"
            )
        level *= k
    out: list[Word] = []
    for length in range(m + 1, max_length + 1):
        if length < 2 * m:
            b = 2 * m - length
            if b in borders:
                out.append(y + y[b:])
        else:
            for mid in alphabet.words_of_length(length - 2 * m):
                out.append(y + mid + y)
    return out
