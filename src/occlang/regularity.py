"""Regularity of the languages comparing occurrence counts of two patterns.

For patterns x, y over an alphabet, the language of words z with
|z|_x rel |z|_y (rel one of <, <=, =, >, >=, !=) is regular exactly when x is
interlaced by y or y is interlaced by x.  In the regular case a minimal DFA is
synthesized from the two pattern matchers and a saturating difference
tracker; otherwise a machine-checkable certificate is produced that pins the
occurrence arithmetic a pumping argument consumes.
"""

from __future__ import annotations

import enum
import operator
from functools import lru_cache
from typing import NamedTuple

from .automata import (
    Dfa,
    complement,
    matcher_automaton,
    minimize,
)
from .errors import (
    CertificateError,
    CriterionHoldsError,
    EmptyPatternError,
    NotRegularError,
)
from .interlace import interlaced
from .words import (
    Alphabet,
    BorderDecomposition,
    Word,
    _power_count,
    _residues,
    count_occurrences,
    decompose_bordered,
)


class Relation(enum.Enum):
    LT = "lt"
    LE = "le"
    EQ = "eq"
    GT = "gt"
    GE = "ge"
    NE = "ne"

    def holds(self, a: int, b: int) -> bool:
        return _HOLDS[self](a, b)

    def mirrored(self) -> "Relation":
        """The relation with both sides swapped: a rel b iff b mirrored(rel) a."""
        return _MIRROR[self]


# A relation's value names its test in the operator module.
_HOLDS = {rel: getattr(operator, rel.value) for rel in Relation}
# Mirroring swaps the l and g of a value: lt <-> gt, le <-> ge; eq and ne stay.
_MIRROR = {rel: Relation(rel.value.translate(str.maketrans("lg", "gl"))) for rel in Relation}


class Direction(enum.Enum):
    X_INTERLACED_BY_Y = "x-interlaced-by-y"
    Y_INTERLACED_BY_X = "y-interlaced-by-x"
    BOTH = "both"


class NonRegularityCertificate(NamedTuple):
    """Witness data from which non-regularity follows by pumping.

    r is a y-bordered word avoiding x, s an x-bordered word avoiding y, both
    length-lexicographically smallest.  Their decompositions give
    y = (uv)^e u, r = (uv)^{e+1} u and x = (pq)^f p, s = (pq)^{f+1} p.  For
    all i > e and j > f, x occurs in no (uv)^i u, y in no (pq)^j p, and

        |(uv)^i (pq)^j|_x = (j-f) d' + c' - d' + m
        |(uv)^i (pq)^j|_y = (i-e) d  + c  - d  + n

    where m, n count the occurrences straddling the block boundary; it follows
    that uv and pq do not commute.  decide_regularity checks all of it, for
    every such i and j, before it returns a certificate: one search per
    avoidance claim and two points per identity are proven to suffice.  The
    fields are read off the check's own six searches, so each runs once:
    c, d off the residues of y in uv, c', d' off those of x in pq, and m, n
    off the two seam windows.
    """

    r: Word
    s: Word
    dec_r: BorderDecomposition
    dec_s: BorderDecomposition
    c: int
    d: int
    c_prime: int
    d_prime: int
    m: int
    n: int

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "dec_r": self.dec_r._asdict(), "dec_s": self.dec_s._asdict()}


class RegularityOutcome(NamedTuple):
    regular: bool
    direction: Direction | None
    certificate: NonRegularityCertificate | None


def straddle_count(left: Word, right: Word, pattern: Word) -> int:
    """Occurrences of pattern in left+right that start in left and reach into right.

    Counts the start positions k (1-based) with |left|+2-|pattern| <= k <= |left|
    at which pattern occurs in the concatenation; occurrences lying entirely
    inside either block are excluded, so the count composes with per-block
    occurrence counts without double counting.
    """
    if not pattern:
        raise EmptyPatternError("straddle counting needs a nonempty pattern")
    # Within k = |pattern|-1 letters of the boundary on each side, no
    # occurrence fits inside one block, and every straddling one fits there.
    # The max() keeps the slice empty for k = 0 (left[-0:] is all of left).
    k = len(pattern) - 1
    return count_occurrences(left[max(len(left) - k, 0) :] + right[:k], pattern)


def decide_regularity(x: Word, y: Word, alphabet: Alphabet) -> RegularityOutcome:
    """Whether the comparison languages for x, y over the alphabet are regular.

    The criterion is the same for every comparison relation: regular iff x is
    interlaced by y or y is interlaced by x.  Each direction is decided once,
    by interlaced, which builds no automaton; for a non-regular pair the
    witnesses of the two directions are the certificate's r and s.
    """
    x_by_y = interlaced(x, y, alphabet)
    y_by_x = interlaced(y, x, alphabet)
    if x_by_y.holds and y_by_x.holds:
        return RegularityOutcome(True, Direction.BOTH, None)
    if x_by_y.holds:
        return RegularityOutcome(True, Direction.X_INTERLACED_BY_Y, None)
    if y_by_x.holds:
        return RegularityOutcome(True, Direction.Y_INTERLACED_BY_X, None)
    return RegularityOutcome(False, None, _certificate(x, y, y_by_x.witness, x_by_y.witness))


def non_regularity_certificate(x: Word, y: Word, alphabet: Alphabet) -> NonRegularityCertificate:
    """The verified certificate of decide_regularity, for a pair where neither interlacing holds."""
    outcome = decide_regularity(x, y, alphabet)
    if outcome.regular:
        raise CriterionHoldsError(
            "an interlacing direction holds, so the comparison languages are regular"
        )
    return outcome.certificate


def _certificate(x: Word, y: Word, r: Word, s: Word) -> NonRegularityCertificate:
    """The verified certificate with r, s the smallest y-, x-bordered words avoiding x, y.

    Its fields are read off the self-check's own searches, which the check then uses.
    (uv)^(e+1) and (uv)^(e+2) are prefixes of (uv)^ω, where y starts at a + t|uv| for
    its residues a < |uv| and t >= 0, so c is counted from the residues.  The starts
    gained from one to the other end in ((e+1)|uv|, (e+2)|uv|], which the ends
    a + |y| + t|uv| of each residue meet exactly once, as a + |y| < (e+2)|uv| by
    |y| = e|uv| + |u|: so d is the number of residues.  Likewise c', d' from the
    residues of x in pq; m and n are the seam counts of x and y.
    """
    dec_r = decompose_bordered(r, y)
    dec_s = decompose_bordered(s, x)
    searches = _searches(x, y, dec_r, dec_s)
    (_, x_in_pq, m), (y_in_uv, _, n) = searches
    P, Q = len(dec_r.period_word()), len(dec_s.period_word())
    cert = NonRegularityCertificate(
        r=r,
        s=s,
        dec_r=dec_r,
        dec_s=dec_s,
        c=_power_count(y_in_uv, P, len(y), P * (dec_r.e + 1)),
        d=len(y_in_uv),
        c_prime=_power_count(x_in_pq, Q, len(x), Q * (dec_s.e + 1)),
        d_prime=len(x_in_pq),
        m=m,
        n=n,
    )
    _check(cert, x, y, searches)
    return cert


def _searches(x: Word, y: Word, dec_r: BorderDecomposition, dec_s: BorderDecomposition) -> tuple:
    """For x, then y: its residues in uv, its residues in pq, and its count in the seam
    window of (uv)^(e+1) and (pq)^(f+1).  Six searches in all.
    """
    uv, pq = dec_r.period_word(), dec_s.period_word()
    left, right = uv * (dec_r.e + 1), pq * (dec_s.e + 1)
    return tuple((_residues(uv, p), _residues(pq, p), straddle_count(left, right, p)) for p in (x, y))


def _verify_certificate(cert: NonRegularityCertificate, x: Word, y: Word) -> None:
    """Raise CertificateError naming every check the certificate fails.

    It decides the claim for all i > e, j > f.  Let P = |uv|, Q = |pq|, k = |x|-1, and take
    the decompositions as sound, since an unsound one is named.
    - Each (uv)^i u is the prefix of iP + |u| letters of the P-periodic (uv)^ω, where x
      starts at r + tP for each of its residues r < P and t >= 0: so x occurs in some
      (uv)^i u iff it has a residue, first in the least i > e with iP + |u| >= min r + |x|.
    - An x in (uv)^i (pq)^j lies in (uv)^i, which x avoids; in (pq)^j, whose count is affine
      in j > f, as x = (pq)^f p starts at fixed residues mod Q, each gaining one start per
      pq once jQ >= |x|; or in the seam window, the last k letters of (uv)^i and the first
      k of (pq)^j, whose right half is whole from j = f+1.  No x there starts more than
      (e+1)P letters back: it would hold (uv)^(e+1), so y, and so would s = (pq)^(f+1) p.
      So the seam count is the same for all i > e, and the identity holds for all i > e,
      j > f iff it holds at (e+1, f+1) and (e+1, f+2).
    - Mirrored, y needs (e+1, f+1) and (e+2, f+1): a y ending more than (f+1)Q letters
      into (pq)^j would hold x, and so would r.
    - Non-commutation of uv and pq needs no check of its own: if they commute, both are
      powers of one word w, so x = (pq)^f p and the x-avoidance word, of at least |x|
      letters, are prefixes of w^ω, and x occurs there.
    A point's count adds the counts in its two blocks, prefixes of (uv)^ω and (pq)^ω read
    off the pattern's residues in uv and in pq, to the seam count, for which the window of
    (e+1, f+1) serves both points, as its varying half is whole there.  So each pattern
    takes one search per block and one of the window: those of _searches.
    """
    _check(cert, x, y, _searches(x, y, cert.dec_r, cert.dec_s))


def _check(cert: NonRegularityCertificate, x: Word, y: Word, searches: tuple) -> None:
    """_verify_certificate, given _searches on the certificate's decompositions."""
    problems = []
    # With u nonempty, r = (uv)^(e+1) u = uv·y is y-bordered and prefixes the x-avoidance word.
    for name, dec, word, border in (("r", cert.dec_r, cert.r, y), ("s", cert.dec_s, cert.s, x)):
        if not dec.u or dec.border() != border or dec.bordered_word() != word:
            problems.append(f"dec_{name} does not decompose {name}")
    uv, pq = cert.dec_r.period_word(), cert.dec_s.period_word()
    e, f = cert.dec_r.e, cert.dec_s.e
    claims = (
        ("x", x, 0, cert.dec_r.u, e, "x occurs in (uv)^{} u", ((e + 1, f + 1), (e + 1, f + 2)),
         lambda i, j: (j - f) * cert.d_prime + cert.c_prime - cert.d_prime + cert.m),
        ("y", y, 1, cert.dec_s.u, f, "y occurs in (pq)^{} p", ((e + 1, f + 1), (e + 2, f + 1)),
         lambda i, j: (i - e) * cert.d + cert.c - cert.d + cert.n),
    )
    for (name, p, side, tail, low, text, points, formula), (*held, seam) in zip(claims, searches):
        block, avoid = (uv, pq)[side], held[side]
        if avoid:  # p occurs from the least power i > low with i|block| + |tail| >= min r + |p|
            problems.append(text.format(max(low + 1, -((len(tail) - min(avoid) - len(p)) // len(block)))))
        problems += [f"{name}-count formula fails at i={i}, j={j}" for i, j in points
                     if _power_count(held[0], len(uv), len(p), i * len(uv)) + seam
                     + _power_count(held[1], len(pq), len(p), j * len(pq)) != formula(i, j)]
    if problems:
        raise CertificateError("invalid certificate: " + "; ".join(problems))


def _tracker(x: Word, y: Word, alphabet: Alphabet) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    """Product of the two counting matchers with a saturating difference tracker.

    Assumes x is interlaced by y, which caps |z|_x - |z|_y at C = +1, or at
    C = 0 if y is a factor of x (each occurrence of x maps injectively to the
    y at a fixed offset inside it), and makes a difference <= -2 permanent.
    A state is a matcher pair q = (sx, sy) with a difference d of +1, 0 or -1,
    keyed by (sx·(|y|+1) + sy)·3 + d + 1, whose residue mod 3, d + 1, is its
    difference class.  One sink, keyed -3 in the class of d = -1, takes every
    successor with d <= -2 and each (q, -1) met once (q, C) is known: a word
    reaches (q, C), so by the cap no word read from q raises the difference,
    which from (q, -1) stays <= -1 for good.  Every relation treats all
    d <= -1 alike, so the sink is exact.
    Returns the transition table, with start state 0, and every state's key.
    """
    tx = matcher_automaton(x, alphabet).transitions
    ty = matcher_automaton(y, alphabet).transitions
    hit_x, hit_y = len(x), len(y)
    width = hit_y + 1
    k = len(alphabet)
    sink = -3
    cap = 0 if y in x else 1
    keys = [1]  # both matchers in state 0, difference 0
    index = {1: 0}
    rows: list[tuple[int, ...]] = []
    for key in keys:  # breadth first: the loop reaches the keys appended below
        if key == sink:
            rows.append((index[sink],) * k)
            continue
        pair, d = divmod(key, 3)
        sx, sy = divmod(pair, width)
        d -= 1
        row = []
        for nx, ny in zip(tx[sx], ty[sy]):
            nd = d
            if nx == hit_x:
                nd += 1
            if ny == hit_y:
                nd -= 1
            elif nd > 1:
                raise CriterionHoldsError("difference tracker overflow: x is not interlaced by y")
            base = (nx * width + ny) * 3 + 1  # the key of (nx, ny) with d = 0
            nkey = sink if nd < -1 or nd == -1 and base + cap in index else base + nd
            t = index.get(nkey)
            if t is None:
                t = index[nkey] = len(keys)
                keys.append(nkey)
            row.append(t)
        rows.append(tuple(row))
    return tuple(rows), keys


# The residues r = d + 1 of the tracker keys each relation accepts: those with d rel 0.
_RESIDUES = {rel: frozenset(r for r in range(3) if rel.holds(r - 1, 0)) for rel in Relation}


@lru_cache(maxsize=1)
def _synthesis(x: Word, y: Word, alphabet: Alphabet) -> tuple:
    """For the latest (x, y, alphabet): a non-regular pair's certificate, or whether a
    regular pair is swapped so that x is interlaced by y, its tracker, its key residues
    and the minimal DFAs so far, first the trivial one accepting every residue present.
    """
    outcome = decide_regularity(x, y, alphabet)
    if not outcome.regular:
        return outcome.certificate, None, None, None, None, None
    mirror = outcome.direction is Direction.Y_INTERLACED_BY_X
    rows, keys = _tracker(y, x, alphabet) if mirror else _tracker(x, y, alphabet)
    present = frozenset(key % 3 for key in keys)
    everything = Dfa._trusted(alphabet, ((0,) * len(alphabet),), 0, frozenset({0}))
    return None, mirror, rows, keys, present, {present: everything}


def build_comparison_dfa(x: Word, y: Word, alphabet: Alphabet, rel: Relation) -> Dfa:
    """Minimal DFA for { z : |z|_x rel |z|_y }, for a regular instance.

    When only y is interlaced by x the construction runs with the roles
    swapped and the relation mirrored.  Raises NotRegularError carrying the
    certificate otherwise.

    The six relations of a pair share one synthesis, kept for the most recent
    (x, y, alphabet) only: one decision, one tracker, and one minimal DFA per
    split the relations make of the difference classes the tracker reaches
    (d = -1 with the sink, 0, +1), keyed by the side holding the start state
    (d = 0); a relation accepting the other side gets the complement.  So
    with no +1 class EQ and LT are complements and LE is the trivial split,
    which needs no minimization.  A non-regular pair keeps its certificate,
    raised afresh on each call; a regular one may return the same Dfa again.
    """
    certificate, mirror, rows, keys, present, minimal = _synthesis(x, y, alphabet)
    if certificate is not None:
        message = f"the comparison languages for {x!r} and {y!r} are not regular"
        raise NotRegularError(message, certificate=certificate)
    accepted = present & _RESIDUES[rel.mirrored() if mirror else rel]
    side = accepted if 1 in accepted else present - accepted
    dfa = minimal.get(side)
    if dfa is None:
        accepting = frozenset(i for i, key in enumerate(keys) if key % 3 in side)
        dfa = minimal[side] = minimize(Dfa._trusted(alphabet, rows, 0, accepting))
    return dfa if side is accepted else complement(dfa)
