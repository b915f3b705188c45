"""Brute-force reference procedures backing the test suites.

Everything here is deliberately direct and counts occurrences from their
definition: an occurrence of p in z is a position i where z[i:] starts with
p.  Membership scans every position.  Censuses and the bounded DFA
equivalence share one walk over every word up to a length, which counts an
occurrence wherever a word's last letters spell a pattern, and one budget of
2^17 words.  No automaton is built here: the oracle checks the DFAs the
library builds from its pattern matchers, so it must not share them.
Bordered words are enumerated in closed form.  Budgets are explicit;
exceeding one raises instead of truncating silently.
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


# Words one census or equivalence sweep may visit: every word up to length
# 16 over two symbols, 10 over three, 8 over four, 131071 over one.
_WORD_BUDGET = 1 << 17


def _walk(patterns: Sequence[Word], alphabet: Alphabet, max_length: int, what: str) -> Iterator:
    """Every word of length <= max_length with its per-pattern occurrence counts.

    Checks its arguments and the word budget when called, before it yields
    anything; what names the walk in its error messages.  Then yields
    (length, path, counts) depth first in symbol order, so the words of one
    length come in lexicographic order.  path is one list of the word's
    symbol indices, changed by the next step; the word itself is never built,
    since over one symbol that would cost quadratic time.  A child counts what
    its parent counts, plus one for each pattern its path ends with: the
    occurrences ending at its last letter.  The walk keeps no call stack.
    """
    if any(not p for p in patterns):
        raise EmptyPatternError(f"{what} needs nonempty patterns")
    for p in patterns:
        alphabet.require(p)
    if max_length < 0:
        raise ValueError(f"max_length must be nonnegative, got {max_length}")
    k = len(alphabet)
    words, level = 0, 1
    for _ in range(max_length + 1):
        words += level
        if words > _WORD_BUDGET:
            raise BudgetExceededError(
                f"{what} to length {max_length} over {k} symbols "
                f"exceeds the budget of {_WORD_BUDGET} words"
            )
        level *= k
    # per symbol, the patterns ending with it: (position, length, symbol indices)
    ending: list[list] = [[] for _ in range(k)]
    for i, p in enumerate(patterns):
        ending[alphabet.index(p[-1])].append((i, len(p), [alphabet.index(c) for c in p]))

    def depth_first():
        path: list[int] = []
        counts = [(0,) * len(patterns)] * (max_length + 1)  # of each prefix of path
        yield 0, path, counts[0]
        while True:
            # the next word: path extended by the first symbol, or else path
            # without its trailing last symbols and with the final one stepped
            if len(path) < max_length:
                path.append(0)
            else:
                while path and path[-1] == k - 1:
                    path.pop()
                if not path:
                    return
                path[-1] += 1
            length = len(path)
            occ = counts[length - 1]
            for i, n, p in ending[path[-1]]:
                if path[-n:] == p:
                    occ = occ[:i] + (occ[i] + 1,) + occ[i + 1 :]
            counts[length] = occ
            yield length, path, occ

    return depth_first()


def _census(
    patterns: Sequence[Word], alphabet: Alphabet, max_length: int, member, member_limit: int
) -> CensusReport:
    walk = _walk(patterns, alphabet, max_length, "census")
    counts = [0] * (max_length + 1)
    buckets: list[list[Word]] = [[] for _ in range(max_length + 1)]
    total = 0
    for length, path, occ in walk:
        if member(occ):
            counts[length] += 1
            total += 1
            if total <= member_limit:  # only a kept member is spelled out
                buckets[length].append("".join([alphabet.symbols[i] for i in path]))
    members = tuple(w for bucket in buckets for w in bucket) if total <= member_limit else None
    return CensusReport(max_length, tuple(counts), members)


def bounded_census(
    x: Word, y: Word, alphabet: Alphabet, rel: Relation, max_length: int, member_limit: int = 512
) -> CensusReport:
    """Census of { z : |z|_x rel |z|_y } over all words of length <= max_length.

    Words are visited in length-lexicographic order; the explicit member list
    is included only while it stays within member_limit.  Raises
    BudgetExceededError, before visiting any, when there are more than 2^17
    such words.
    """
    holds = _COMPARE[rel.value]
    return _census([x, y], alphabet, max_length, lambda occ: holds(*occ), member_limit)


def bounded_equal_census(
    patterns: Sequence[Word], alphabet: Alphabet, max_length: int, member_limit: int = 512
) -> CensusReport:
    """Census of the words in which all given patterns occur equally often, on the same budget."""
    if not patterns:
        raise ValueError("at least one pattern is required")
    return _census(patterns, alphabet, max_length, lambda occ: len(set(occ)) == 1, member_limit)


def bounded_equivalence(a: Dfa, x: Word, y: Word, rel: Relation, max_length: int) -> Word | None:
    """First word (length-lexicographic) where a's verdict differs from the counts.

    Returns None when the DFA and the oracle agree on every word of length up
    to max_length.  Raises EmptyPatternError for an empty pattern and, before
    sweeping, BudgetExceededError when there are more than 2^17 such words.
    """
    walk = _walk([x, y], a.alphabet, max_length, "equivalence sweep")
    accepting, holds, ta = a.accepting, _COMPARE[rel.value], a.transitions
    # the DFA state after each prefix of the current path
    states = [a.start] * (max_length + 1)
    best: list[int] | None = None
    for length, path, (cx, cy) in walk:
        if length:
            states[length] = ta[states[length - 1]][path[-1]]
        # the first mismatch of each length is its lexicographically smallest
        if (states[length] in accepting) != holds(cx, cy) and (best is None or length < len(best)):
            best = path.copy()
    return None if best is None else "".join(a.alphabet.symbols[i] for i in best)


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
