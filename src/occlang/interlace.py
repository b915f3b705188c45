"""Interlacing tests: is a pattern a subword of every bordered extension of a word?

``x is interlaced by y`` means y occurs in every x-bordered word, and every
function here takes its arguments in that one orientation.  The reference
method intersects the x-bordered-word recognizer with a y-avoider and checks
emptiness; its shortest accepted word is the canonical witness.  The decision,
interlaced, builds no automaton.  If y is a factor of x it holds at once,
since every x-bordered word contains x.  Otherwise, by the paper's
corollaries, if any x-bordered word avoids y then some x·t·x does with
|t| = 3 (|t| = 1 over three or more symbols), so walking the x-bordered
words of at most 2|x| + 3 letters, shortest first, decides the question and
finds the canonical witness at once.
"""

from __future__ import annotations

import enum
import re
from itertools import chain, product
from typing import Iterator, NamedTuple

from .automata import (
    Dfa,
    combine,
    grafted_bordered_automaton,
    matcher_automaton,
    shortest_accepted,
)
from .errors import (
    AlphabetNotBinaryError,
    EmptyPatternError,
    NotInClassAError,
)
from .words import Alphabet, Word


class Method(enum.Enum):
    GENERAL_AUTOMATON = "general-automaton"
    SINGLE_LETTER = "single-letter"
    LENGTH_THREE = "length-three"


class InterlaceVerdict(NamedTuple):
    """Outcome of an interlacing decision.

    When x is not interlaced by y (holds is False), witness is the
    length-lexicographically smallest x-bordered word avoiding y; it has at
    most 2|x|+3 letters.
    """

    holds: bool
    witness: Word | None
    method: Method


def avoider_automaton(x: Word, y: Word, alphabet: Alphabet) -> Dfa:
    """DFA for the x-bordered words that contain no occurrence of y.

    Product of the 2|x|+3-state bordered-word recognizer with the y-avoider,
    the y-matcher with state |y| made a rejecting sink, so the full
    construction never exceeds (|y|+1)(2|x|+3) states.
    """
    if not x or not y:
        raise EmptyPatternError("avoider needs nonempty border and pattern")
    bordered = grafted_bordered_automaton(x, alphabet)
    rows = matcher_automaton(y, alphabet).transitions[:-1] + ((len(y),) * len(alphabet),)
    return combine(bordered, Dfa._trusted(alphabet, rows, 0, frozenset(range(len(y)))))


def is_interlaced_by(x: Word, y: Word, alphabet: Alphabet) -> InterlaceVerdict:
    """Whether y occurs in every x-bordered word over the alphabet.

    Reference method: emptiness of the automaton for x-bordered words avoiding
    y, with the length-lexicographically smallest counterexample as witness.
    """
    if not x or not y:
        raise EmptyPatternError("interlacing needs nonempty words")
    witness = shortest_accepted(avoider_automaton(x, y, alphabet))
    return InterlaceVerdict(holds=witness is None, witness=witness, method=Method.GENERAL_AUTOMATON)


def _require_binary(*ws: Word) -> None:
    for w in ws:
        for ch in w:
            if ch not in ("0", "1"):
                raise AlphabetNotBinaryError(f"{w!r} is not a word over {{0, 1}}")


_CLASS_A = re.compile(r"01+|10+|0+1|1+0")


def in_class_a(x: Word) -> bool:
    """Whether the binary word x has one of the shapes 01^+, 10^+, 0^+1, 1^+0."""
    if not x:
        raise EmptyPatternError("class membership needs a nonempty word")
    _require_binary(x)
    return _CLASS_A.fullmatch(x) is not None


def in_b_x(y: Word, x: Word) -> bool:
    """Whether y avoids x yet x occurs in every y-bordered word, for x of class-A shape.

    The 1^k0 and 01^k shapes are the 0<->1 relabelings of the 0^k1 and 10^k
    ones, so x and y are relabeled first and the explicit regular expression
    for 0^k1 or 10^k decides (01 and 10 fit both readings, which agree).
    """
    _require_binary(y)
    if not in_class_a(x):
        raise NotInClassAError(f"{x!r} is not of shape 01^+, 10^+, 0^+1 or 1^+0")
    if x[1] == "1":  # 1^k0 or 01^k
        swap = str.maketrans("01", "10")
        x, y = x.translate(swap), y.translate(swap)
    k = len(x) - 1
    if x[0] == "0":  # 0^k1
        pat = rf"(?:0{{0,{k - 1}}}1)+0{{{k},}}"
    else:  # 10^k
        pat = rf"0{{{k},}}(?:10{{0,{k - 1}}})+"
    return re.fullmatch(pat, y) is not None


def _overlaps(x: Word) -> Iterator[Word]:
    """x[:p] + x for the periods p < |x| of x that may give a first witness, shortest first.

    These are the smallest period p0 and the periods that are not multiples
    of it; for a proper multiple p of p0 the overlap x[:p] + x is never the
    first to avoid a pattern y.  Write w for the infinite word with period
    x[:p0]: x is a prefix of w, and so are x[:p] + x and x[:p0] + x, because
    x[:p] = x[:p0]^(p/p0).  So x[:p0] + x is a prefix of x[:p] + x; if y
    avoids the longer word it avoids the shorter, which comes first.  By Fine
    and Wilf, a period p with p + p0 <= |x| + gcd(p, p0) makes gcd(p, p0) a
    period; none is shorter than p0, so gcd(p, p0) = p0 and p0 divides p.
    Every period that p0 does not divide thus exceeds |x| - p0 + 1, and the
    search jumps there from p0.  A border x[p:] of 8 or more letters starts
    with x[:8], so str.find of x[:8] proposes those p; the last 7 periods are
    tried one by one.
    """
    n = len(x)
    head = x[:8]
    p0 = 0
    p = x.find(head, 1)
    while p > 0:
        if (not p0 or p % p0) and x.startswith(x[p:]):
            yield x[:p] + x
            if not p0:
                p0 = p
                p = max(p, n - p0 + 1)
        p = x.find(head, p + 1)
    for p in range(max(n - 7, 1), n):
        if (not p0 or p % p0) and x.startswith(x[p:]):
            yield x[:p] + x
            p0 = p0 or p


def _padded(x: Word, symbols: tuple[str, ...], pad: int) -> Iterator[Word]:
    """x·t·x for every padding t with |t| <= pad, shortest first, in symbol order."""
    for length in range(pad + 1):
        for t in product(symbols, repeat=length):
            yield x + "".join(t) + x


def interlaced(x: Word, y: Word, alphabet: Alphabet) -> InterlaceVerdict:
    """Decide whether x is interlaced by y, with the canonical witness if not.

    Equals is_interlaced_by without building an automaton.  If y is a factor
    of x, x is interlaced by y with no walk: an x-bordered word contains x,
    hence y.  Otherwise let pad be 3 over two symbols and 1 otherwise.  The
    x-bordered words of at most 2|x| + pad letters are, shortest first, the
    overlaps x[:p] + x for each period p of x and then x·t·x for
    |t| = 0, ..., pad in symbol order.  The walk tries them in that order,
    skipping only the overlaps that _overlaps proves cannot come first, and
    its first word avoiding y is the witness.  If none avoids y, x is
    interlaced by y: over two or more symbols, by the paper's corollaries, if
    any x-bordered word avoids y then some x·t·x with |t| = pad does (over
    two symbols no shorter length works for every pair); over one symbol
    every x-bordered word contains the shortest one, a^(|x|+1), which the
    walk tries first.
    """
    if not x or not y:
        raise EmptyPatternError("interlacing needs nonempty words")
    alphabet.require(x)
    alphabet.require(y)
    symbols = alphabet.symbols
    if len(symbols) == 2:
        pad, tag = 3, Method.LENGTH_THREE
    else:
        pad, tag = 1, Method.SINGLE_LETTER
    if y in x:
        return InterlaceVerdict(holds=True, witness=None, method=tag)
    candidates = chain(_overlaps(x), _padded(x, symbols, pad))
    witness = next((z for z in candidates if y not in z), None)
    return InterlaceVerdict(holds=witness is None, witness=witness, method=tag)
