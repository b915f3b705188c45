"""Core combinatorics on words: occurrence counting, borders, periodicity.

Words are plain ``str`` values whose characters are symbols of an explicit
:class:`Alphabet`.  The alphabet fixes the symbol order used everywhere a
deterministic tie-break is needed (witness search, serialization).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    AlphabetTooSmallError,
    EmptyPatternError,
    EmptyWordError,
    ForeignSymbolError,
    InconsistentDecompositionError,
    NotBorderedError,
)

Word = str


class Alphabet:
    """Ordered set of distinct single-character symbols."""

    __slots__ = ("symbols", "_index", "_delete")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise AlphabetTooSmallError("an alphabet needs at least one symbol")
        for s in syms:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbols must be single characters, got {s!r}")
        if len(set(syms)) != len(syms):
            raise ValueError(f"alphabet symbols must be distinct, got {syms!r}")
        self.symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}
        # str.translate deletes the symbols in one C-level pass; what is left is foreign
        self._delete = dict.fromkeys(map(ord, syms))

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ForeignSymbolError(f"symbol {symbol!r} is not in alphabet {self}") from None

    def require(self, word: Word) -> None:
        """Raise ForeignSymbolError unless every letter of word is in the alphabet.

        The error names the first foreign symbol in word order.
        """
        if word.translate(self._delete):
            ch = next(ch for ch in word if ch not in self._index)
            raise ForeignSymbolError(f"symbol {ch!r} of {word!r} is not in alphabet {self}")

    def words_of_length(self, length: int) -> Iterator[Word]:
        """All words of the given length, in lexicographic order of the symbol order."""
        return map("".join, product(self.symbols, repeat=length))

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return "Alphabet({!r})".format("".join(self.symbols))


def count_occurrences(w: Word, p: Word) -> int:
    """Number of possibly overlapping occurrences of p in w."""
    if not p:
        raise EmptyPatternError("occurrence counting needs a nonempty pattern")
    return len(_starts(w, p))


def _starts(w: Word, p: Word) -> list[int]:
    """The start positions of p in w, ascending: each search resumes one letter past a start."""
    starts = []
    i = w.find(p)
    while i != -1:
        starts.append(i)
        i = w.find(p, i + 1)
    return starts


def _residues(block: Word, p: Word) -> list[int]:
    """The residues of p in block: its starts below |block| in block^ω, the block repeated.

    A start below |block| ends within the first |block| - 1 + |p| letters, so one
    search of them finds all.  An empty block has none.
    """
    if not block:
        return []
    n = len(block) - 1 + len(p)
    return _starts((block * (n // len(block) + 1))[:n], p)


def _power_count(residues: list[int], period: int, plen: int, length: int) -> int:
    """Occurrences of a pattern of plen letters in the first length letters of block^ω.

    Given its residues in a block of period letters, its starts there are
    r + t·period for each residue r and each t >= 0 with r + t·period + plen <= length.
    """
    return sum(max((length - plen - r) // period + 1, 0) for r in residues)


def border_lengths(w: Word) -> list[int]:
    """All lengths b with 1 <= b < |w| such that w[1..b] is also a suffix of w."""
    if not w:
        raise EmptyWordError("the empty word has no borders")
    return [b for b in range(1, len(w)) if w[:b] == w[-b:]]


def is_bordered(z: Word, y: Word) -> bool:
    """Whether z is y-bordered: z != y and y is both a prefix and a suffix of z."""
    if not y:
        raise EmptyPatternError("borders must be nonempty")
    return z != y and z.startswith(y) and z.endswith(y)


class BorderDecomposition(NamedTuple):
    """Periodic decomposition of a bordered word: border = (uv)^e u, word = (uv)^{e+1} u."""

    u: Word
    v: Word
    e: int

    def period_word(self) -> Word:
        return self.u + self.v

    def border(self) -> Word:
        return (self.u + self.v) * self.e + self.u

    def bordered_word(self) -> Word:
        return (self.u + self.v) * (self.e + 1) + self.u


class PowerCountParams(NamedTuple):
    """Occurrence growth of a border inside rising powers of its period word.

    c counts the border in (uv)^{e+1}; d is the increase from (uv)^{e+1} to
    (uv)^{e+2}.  Both are >= 1, and the count in (uv)^i is (i-e)d + c - d for
    every i > e.
    """

    c: int
    d: int


def decompose_bordered(z: Word, y: Word) -> BorderDecomposition:
    """The unique decomposition (u, v, e) of a y-bordered z with u nonempty and e maximal.

    Deterministic choice: the period is |z| - |y|, e = floor((|y|-1)/period),
    and u is the prefix of y of length |y| - e*period.
    """
    if not is_bordered(z, y):
        raise NotBorderedError(f"{z!r} is not {y!r}-bordered")
    period = len(z) - len(y)
    e = (len(y) - 1) // period
    ulen = len(y) - e * period
    # z is period-periodic because its y-prefix and y-suffix overlap it entirely,
    # so both reconstruction identities hold by construction.
    return BorderDecomposition(u=y[:ulen], v=z[ulen:period], e=e)


def power_count_params(dec: BorderDecomposition, y: Word) -> PowerCountParams:
    """Count the border y inside (uv)^{e+1} and (uv)^{e+2} of the decomposition.

    Both are prefixes of (uv)^ω, where y starts at r + t|uv| for its residues
    r < |uv| and t >= 0, so c is counted from the residues.  The starts gained from
    one to the other end in ((e+1)|uv|, (e+2)|uv|], which the ends r + |y| + t|uv| of
    each residue meet exactly once, as r + |y| < (e+2)|uv| by |y| = e|uv| + |u|: so d
    is the number of residues.
    """
    if dec.e < 0 or dec.border() != y:
        raise InconsistentDecompositionError(
            f"(u, v, e) = ({dec.u!r}, {dec.v!r}, {dec.e}) does not reconstruct {y!r}"
        )
    uv = dec.period_word()
    held = _residues(uv, y)
    return PowerCountParams(c=_power_count(held, len(uv), len(y), len(uv) * (dec.e + 1)), d=len(held))
