"""Finiteness of occurrence-equality languages and de Bruijn constructions."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import (
    AlphabetTooSmallError,
    BudgetExceededError,
    DuplicatePatternError,
    EmptyPatternError,
    UnequalLengthsError,
)
from .words import Alphabet, Word


# Letters a de Bruijn word may have: order 20 over two symbols, 12 over three.
_DE_BRUIJN_BUDGET = 1 << 20


class DeBruijnWord(NamedTuple):
    """Cyclic de Bruijn word: every length-`order` word occurs exactly once cyclically."""

    word: Word
    order: int
    alphabet_size: int


def is_finite_pair(x: Word, y: Word, alphabet: Alphabet) -> bool:
    """Whether { z : |z|_x = |z|_y } over the alphabet is finite.

    This holds exactly when the alphabet is unary and x != y; over every
    larger alphabet some letter avoids a pattern, or an alternation of the
    two patterns balances the counts, giving infinitely many members.
    """
    if not x or not y:
        raise EmptyPatternError("finiteness needs nonempty patterns")
    alphabet.require(x)
    alphabet.require(y)
    return len(alphabet) == 1 and x != y


def de_bruijn_word(order: int, alphabet: Alphabet) -> DeBruijnWord:
    """The lexicographically least cyclic de Bruijn word of the given order.

    Standard necklace construction: concatenate, in lexicographic order, the
    Lyndon words over the alphabet whose lengths divide the order, walked
    without recursion by Duval's successor rule: increment the last letter,
    repeat the word periodically to the order's length, then drop trailing
    largest letters.  Raises BudgetExceededError, before building anything,
    when the word would have more than 2^20 letters.
    """
    if len(alphabet) < 2:
        raise AlphabetTooSmallError("de Bruijn words need at least two symbols")
    if order < 1:
        raise ValueError("order must be at least 1")
    k = len(alphabet)
    # k >= 2, so k^21 already exceeds the budget: no huge power is computed.
    if k ** min(order, 21) > _DE_BRUIJN_BUDGET:
        raise BudgetExceededError(
            f"a de Bruijn word of order {order} over {k} symbols "
            f"exceeds the budget of {_DE_BRUIJN_BUDGET} letters"
        )
    out: list[int] = []
    lyndon = [-1]
    while lyndon:
        lyndon[-1] += 1
        p = len(lyndon)
        if order % p == 0:
            out.extend(lyndon)
        while len(lyndon) < order:
            lyndon.append(lyndon[-p])
        while lyndon and lyndon[-1] == k - 1:
            lyndon.pop()
    word = "".join(alphabet.symbols[i] for i in out)
    return DeBruijnWord(word=word, order=order, alphabet_size=k)


def equal_length_family(patterns: Sequence[Word], alphabet: Alphabet, i: int) -> Word:
    """The i-th member of an infinite family equalizing all given patterns' counts.

    For distinct patterns of a common length L, unrolling the cyclic de Bruijn
    word w of order L as w^i plus the length L-1 prefix of w contains every
    length-L word exactly i times, so all patterns have identical counts.
    The budget of de_bruijn_word applies to w.
    """
    if i < 1:
        raise ValueError("the family index must be at least 1")
    if not patterns:
        raise ValueError("at least one pattern is required")
    if any(not p for p in patterns):
        raise EmptyPatternError("patterns must be nonempty")
    length = len(patterns[0])
    if any(len(p) != length for p in patterns):
        raise UnequalLengthsError("all patterns must have the same length")
    if len(set(patterns)) != len(patterns):
        raise DuplicatePatternError("patterns must be pairwise distinct")
    for p in patterns:
        alphabet.require(p)
    w = de_bruijn_word(length, alphabet).word
    return w * i + w[: length - 1]


def finiteness_verdict(patterns: Sequence[Word], alphabet: Alphabet) -> str:
    """"finite", "infinite" or "unknown" for the all-counts-equal language.

    Pairs are decided completely; for three or more patterns only the
    equal-length sufficient condition for infinitude is known, so anything
    else reports "unknown".
    """
    if any(not p for p in patterns):
        raise EmptyPatternError("patterns must be nonempty")
    if len(patterns) < 2:
        return "infinite"  # a single pattern puts no constraint on z
    for p in patterns:
        alphabet.require(p)
    if len(patterns) == 2:
        return "finite" if is_finite_pair(patterns[0], patterns[1], alphabet) else "infinite"
    if len(set(len(p) for p in patterns)) == 1 and len(alphabet) >= 2:
        return "infinite"
    return "unknown"
