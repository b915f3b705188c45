import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from occlang import (
    Alphabet,
    BorderDecomposition,
    Direction,
    Relation,
    build_comparison_dfa,
    complement,
    decide_regularity,
    is_interlaced_by,
    matcher_automaton,
    minimize,
    non_regularity_certificate,
    serialize,
    straddle_count,
)
from occlang.errors import (
    CertificateError,
    CriterionHoldsError,
    EmptyPatternError,
    ForeignSymbolError,
    NotRegularError,
)
from occlang import regularity, words
from occlang.regularity import _tracker

from helpers import (
    BIN,
    TERN,
    certificate_mutants,
    level_acceptance,
    level_mark_counts,
    level_scan_counts,
    level_states,
    naive_minimize,
    nonempty_words_upto,
    reference_certificate_problems,
    scan_count,
    tracker_dfa,
)

MAX_WORD_LEN = 12


@pytest.fixture(scope="module")
def binary_grid():
    """decide_regularity outcomes for every nonempty binary x, y of length <= 4."""
    words = list(nonempty_words_upto(BIN, 4))
    return {(x, y): decide_regularity(x, y, BIN) for x in words for y in words}


@pytest.fixture(scope="module")
def binary_counts():
    """Per pattern, per length: occurrence counts over all binary words <= 12."""
    table = {}
    for p in nonempty_words_upto(BIN, 4):
        m = matcher_automaton(p, BIN)
        table[p] = level_mark_counts(m, MAX_WORD_LEN)
    return table


def test_straddle_count_examples():
    assert straddle_count("00", "11", "01") == 1
    assert straddle_count("ab", "cd", "zz") == 0
    assert straddle_count("0", "0", "00") == 1
    with pytest.raises(EmptyPatternError):
        straddle_count("a", "b", "")


def test_straddle_count_excludes_within_block_occurrences():
    # occurrences entirely inside either block never straddle
    assert straddle_count("0101", "11", "01") == 0
    assert straddle_count("1", "0001", "0001") == 0
    # starting in the left block and reaching into the right does
    assert straddle_count("10", "010", "001") == 1


def _straddle_by_definition(left, right, pattern):
    # 1-based starts k with |left|+2-|pattern| <= k <= |left| whose occurrence fits
    w = left + right
    lo = max(1, len(left) + 2 - len(pattern))
    hi = min(len(left), len(w) - len(pattern) + 1)
    return sum(1 for k in range(lo, hi + 1) if w[k - 1 : k - 1 + len(pattern)] == pattern)


def test_straddle_count_matches_its_definition():
    rng = random.Random(11)
    # empty sides and sides shorter than |pattern| - 1, then seeded short words
    cases = [("", "000", "00"), ("000", "", "00"), ("0", "00", "0000"), ("01", "1", "0110"),
             ("", "", "0"), ("0", "0", "0")]
    for _ in range(3000):
        symbols = rng.choice(["0", "01", "012"])
        cases.append(tuple(
            "".join(rng.choice(symbols) for _ in range(rng.randint(lo, hi)))
            for lo, hi in ((0, 8), (0, 8), (1, 6))
        ))
    for left, right, pattern in cases:
        expected = _straddle_by_definition(left, right, pattern)
        assert straddle_count(left, right, pattern) == expected, (left, right, pattern)


def test_decide_regularity_verdict_triple():
    assert decide_regularity("01", "10", BIN).regular
    assert not decide_regularity("01", "10", TERN).regular
    assert not decide_regularity("0011", "1100", BIN).regular


def test_decide_regularity_directions():
    both = decide_regularity("0", "0", BIN)
    assert both.regular and both.direction is Direction.BOTH

    one_way = decide_regularity("0011", "0", BIN)
    assert one_way.regular and one_way.direction is Direction.X_INTERLACED_BY_Y

    other_way = decide_regularity("0", "0011", BIN)
    assert other_way.regular and other_way.direction is Direction.Y_INTERLACED_BY_X


def test_figure_one_dfa():
    dfa = build_comparison_dfa("01", "10", BIN, Relation.EQ)
    assert dfa.state_count == 5
    assert dfa.accepts("") and dfa.accepts("0110")
    assert not dfa.accepts("01")


def test_same_pattern_gives_the_trivial_machine():
    for x in ["0", "01", "0110"]:
        dfa = build_comparison_dfa(x, x, BIN, Relation.EQ)
        assert dfa.state_count == 1
        assert dfa.accepts("") and dfa.accepts("010101")


def test_build_comparison_dfa_raises_with_certificate():
    with pytest.raises(NotRegularError) as exc:
        build_comparison_dfa("0011", "1100", BIN, Relation.EQ)
    cert = exc.value.certificate
    assert cert is not None and cert.r == "1100101100"


def test_certificate_golden_binary():
    cert = non_regularity_certificate("0011", "1100", BIN)
    assert cert.r == "1100101100"
    assert (cert.dec_r.u, cert.dec_r.v, cert.dec_r.e) == ("1100", "10", 0)
    assert cert.s == "0011010011"
    assert scan_count(cert.r, "0011") == 0 and scan_count(cert.s, "1100") == 0


def test_certificate_golden_ternary():
    cert = non_regularity_certificate("01", "10", TERN)
    # s is the shortest 01-bordered word avoiding 10
    assert cert.s == "01201"


# For a pair, each dec_r for which x occurs in (uv)^(e+3) u but not in (uv)^(e+1) u,
# with the power i that the self-check's message must name: the least failing one
_WRONG_POWERS = {
    ("0000", "1"): ((BorderDecomposition("0", "", 0), [3]), (BorderDecomposition("0", "", 1), [3])),
}


@pytest.mark.parametrize(
    "x, y, symbols",
    [
        ("0011", "1100", "01"),
        ("01", "10", "012"),
        ("10100", "01001010", "01"),
        # |uv| = 3 < |x| - 1 = 4 and m = 1: the x-count seam window of (uv)^1 holds
        # all of uv, and (uv)^2 and (uv)^3 share a second one
        ("01010", "001", "01"),
        ("0000", "1", "01"),
    ],
)
def test_certificate_self_check_rejects_mutations(x, y, symbols):
    cert = non_regularity_certificate(x, y, Alphabet(symbols))
    regularity._verify_certificate(cert, x, y)
    for mutant in certificate_mutants(cert, x, y):
        with pytest.raises(CertificateError):
            regularity._verify_certificate(mutant, x, y)
    for dec_r, powers in _WRONG_POWERS.get((x, y), ()):
        with pytest.raises(CertificateError) as exc:
            regularity._verify_certificate(cert._replace(dec_r=dec_r), x, y)
        named = [p for p in str(exc.value).split("; ") if p.startswith("x occurs")]
        assert named == [f"x occurs in (uv)^{i} u" for i in powers]


def _self_check_message(cert, x, y):
    try:
        regularity._verify_certificate(cert, x, y)
    except CertificateError as exc:
        return str(exc)
    return None


def test_certificate_self_check_matches_the_whole_word_reference():
    """Same message as recounting every whole word, or a pass where that finds nothing.

    The real certificates of all 4008 non-regular pairs of binary <= 5 and
    ternary <= 3, and the 20 certificate_mutants of each of the 1788 among them
    of binary <= 4 and ternary <= 3.
    """
    cases = []
    for alphabet, length, mutate in ((BIN, 5, 4), (TERN, 3, 3)):
        words = list(nonempty_words_upto(alphabet, length))
        for x in words:
            for y in words:
                outcome = decide_regularity(x, y, alphabet)
                if outcome.regular:
                    continue
                cases.append((outcome.certificate, x, y))
                if max(len(x), len(y)) <= mutate:
                    cases += [(cert, x, y) for cert in certificate_mutants(outcome.certificate, x, y)]
    differ = []
    for cert, x, y in cases:
        problems = reference_certificate_problems(cert, x, y)
        expected = "invalid certificate: " + "; ".join(problems) if problems else None
        if _self_check_message(cert, x, y) != expected:
            differ.append((x, y, cert))
    assert len(cases) == 4008 + 20 * 1788
    assert differ == []


def _certificate_pairs():
    """Four non-regular pairs of random 2000-letter words over each of {0,1} and {0,1,2}."""
    rng = random.Random("certificate-self-check-letters")
    pairs = []
    for symbols in ("01", "012"):
        found = 0
        while found < 4:
            x, y = ("".join(rng.choice(symbols) for _ in range(2000)) for _ in range(2))
            outcome = decide_regularity(x, y, Alphabet(symbols))
            if not outcome.regular:  # neither padding test holds
                pairs.append((x, y, outcome.certificate))
                found += 1
    return pairs


def _count_letters(monkeypatch):
    """The list of the lengths of the words searched from now on: every occurrence scan runs words._starts."""
    letters = []
    scan = words._starts
    monkeypatch.setattr(words, "_starts", lambda w, p: letters.append(len(w)) or scan(w, p))
    return letters


def test_certificate_self_check_searches_each_block_once(monkeypatch):
    """Letters searched by the self-check, per letter of x + y.

    Recounting every whole word of a 3x3 sample read 45-63 on such pairs, and
    searching each of its blocks and distinct seam windows once 18-24.  The
    complete check read 7-9 with nested scans of its blocks; it now searches,
    per pattern, the residue window of each block, |block| - 1 + |pattern|
    letters, and one seam window: 6.
    """
    pairs = _certificate_pairs()
    letters = _count_letters(monkeypatch)
    for x, y, cert in pairs:
        letters.clear()
        regularity._verify_certificate(cert, x, y)
        assert sum(letters) <= 6 * (len(x) + len(y)), (sum(letters) / (len(x) + len(y)), cert.dec_r, cert.dec_s)


def test_certificate_builder_searches_each_block_once(monkeypatch):
    """Letters searched by the certificate builder, its check included, per letter of x + y.

    The builder counted the residues of y in uv and of x in pq and the two seam
    windows, 4, and its check searched those four again among its six, 10 in
    all.  The builder now reads its fields off the check's six searches: 6.
    """
    pairs = _certificate_pairs()
    letters = _count_letters(monkeypatch)
    for x, y, cert in pairs:
        letters.clear()
        assert regularity._certificate(x, y, cert.r, cert.s) == cert
        assert len(letters) == 6
        assert sum(letters) <= 6 * (len(x) + len(y)), (sum(letters) / (len(x) + len(y)), cert.dec_r, cert.dec_s)


def _claim_holds(cert, x, y):
    """The certificate's whole claim by brute force, over a range past the check's points.

    Sound decompositions and non-commuting uv, pq, then both avoidance claims
    and both identities, each counted in its whole word, for every
    i in e+1..e+|x|+6 and j in f+1..f+|y|+6.
    """
    for dec, word, border in ((cert.dec_r, cert.r, y), (cert.dec_s, cert.s, x)):
        if not dec.u or dec.border() != border or dec.bordered_word() != word:
            return False
    uv, pq = cert.dec_r.period_word(), cert.dec_s.period_word()
    if uv + pq == pq + uv:
        return False
    e, f = cert.dec_r.e, cert.dec_s.e
    powers_i, powers_j = range(e + 1, e + len(x) + 7), range(f + 1, f + len(y) + 7)
    if any(x in uv * i + cert.dec_r.u for i in powers_i) or any(y in pq * j + cert.dec_s.u for j in powers_j):
        return False
    return all(
        scan_count(uv * i + pq * j, x) == (j - f) * cert.d_prime + cert.c_prime - cert.d_prime + cert.m
        and scan_count(uv * i + pq * j, y) == (i - e) * cert.d + cert.c - cert.d + cert.n
        for i in powers_i
        for j in powers_j
    )


def test_certificate_self_check_decides_the_whole_claim(binary_grid):
    """The check passes exactly the certificates whose claim holds well past its points.

    The real certificates of the 1788 non-regular pairs of binary <= 4 and
    ternary <= 3 and their 20 certificate_mutants each; the brute force counts
    by position scan, at every i, j of its range, not at the check's points.
    """
    ternary = list(nonempty_words_upto(TERN, 3))
    outcomes = [(x, y, o) for (x, y), o in binary_grid.items()]
    outcomes += [(x, y, decide_regularity(x, y, TERN)) for x in ternary for y in ternary]
    verdicts = Counter()
    for x, y, outcome in outcomes:
        if outcome.regular:
            continue
        for cert in [outcome.certificate] + certificate_mutants(outcome.certificate, x, y):
            holds = _claim_holds(cert, x, y)
            assert (_self_check_message(cert, x, y) is None) == holds, (x, y, cert)
            verdicts[holds] += 1
    assert verdicts == {True: 1788, False: 20 * 1788}


def test_certificate_self_check_rejects_degenerate_decompositions():
    """Empty period words and negative exponents are named, not divided by."""
    cert = non_regularity_certificate("0011", "1100", BIN)
    empty = BorderDecomposition("", "", 0)
    for bad in (cert._replace(dec_r=empty), cert._replace(dec_s=empty),
                cert._replace(dec_r=empty, dec_s=empty),
                cert._replace(dec_r=cert.dec_r._replace(e=-1)), cert._replace(dec_r=cert.dec_r._replace(e=-2)),
                cert._replace(dec_s=cert.dec_s._replace(e=-1)), cert._replace(dec_s=cert.dec_s._replace(e=-2))):
        with pytest.raises(CertificateError, match="does not decompose"):
            regularity._verify_certificate(bad, "0011", "1100")


def test_decide_regularity_checks_each_word_once_per_direction(monkeypatch):
    checked = []
    require = Alphabet.require
    monkeypatch.setattr(Alphabet, "require", lambda self, w: checked.append(w) or require(self, w))
    for x, y in [("0011", "1100"), ("01", "10")]:
        checked.clear()
        decide_regularity(x, y, BIN)
        assert checked == [x, y, y, x]
    bad = [("", "0", EmptyPatternError), ("0", "", EmptyPatternError)]
    bad += [("02", "0", ForeignSymbolError), ("0", "2", ForeignSymbolError)]
    for x, y, error in bad:
        for decide in (decide_regularity, non_regularity_certificate):
            with pytest.raises(error):
                decide(x, y, BIN)


def test_certificate_rejected_for_regular_pairs():
    with pytest.raises(CriterionHoldsError):
        non_regularity_certificate("01", "10", BIN)


def test_padding_decision_matches_the_automaton(binary_grid):
    """decide_regularity's walk agrees with automaton emptiness both ways."""
    ternary = list(nonempty_words_upto(TERN, 3))
    cases = [(x, y, BIN, o) for (x, y), o in binary_grid.items()]
    cases += [(x, y, TERN, decide_regularity(x, y, TERN)) for x in ternary for y in ternary]
    for x, y, alphabet, outcome in cases:
        x_by_y = is_interlaced_by(x, y, alphabet).holds
        y_by_x = is_interlaced_by(y, x, alphabet).holds
        if x_by_y and y_by_x:
            expected = Direction.BOTH
        elif x_by_y:
            expected = Direction.X_INTERLACED_BY_Y
        elif y_by_x:
            expected = Direction.Y_INTERLACED_BY_X
        else:
            expected = None
        assert outcome.regular == (expected is not None), (x, y, alphabet)
        assert outcome.direction is expected, (x, y, alphabet)


def test_criterion_is_symmetric(binary_grid):
    for (x, y), outcome in binary_grid.items():
        assert outcome.regular == binary_grid[(y, x)].regular


def _relation_truth(rel, cx, cy):
    if rel is Relation.LT:
        return cx < cy
    if rel is Relation.LE:
        return cx <= cy
    if rel is Relation.EQ:
        return cx == cy
    if rel is Relation.GT:
        return cx > cy
    if rel is Relation.GE:
        return cx >= cy
    return cx != cy


def test_dfa_agrees_with_counter_oracle_exhaustively(binary_grid, binary_counts):
    """Every regular instance, every relation, every binary word of length <= 12."""
    checked = 0
    for (x, y), outcome in binary_grid.items():
        if not outcome.regular:
            continue
        cx_levels, cy_levels = binary_counts[x], binary_counts[y]
        for rel in Relation:
            dfa = build_comparison_dfa(x, y, BIN, rel)
            for acc, cx, cy in zip(level_acceptance(dfa, MAX_WORD_LEN), cx_levels, cy_levels):
                truth = _relation_truth(rel, cx, cy)
                assert np.array_equal(acc, truth), (x, y, rel)
            checked += 1
    assert checked == 6 * sum(o.regular for o in binary_grid.values())


def test_complement_relations_partition_all_words(binary_grid, binary_counts):
    for (x, y), outcome in binary_grid.items():
        if not outcome.regular:
            continue
        for rel, comp in [(Relation.LT, Relation.GE), (Relation.LE, Relation.GT), (Relation.EQ, Relation.NE)]:
            a = build_comparison_dfa(x, y, BIN, rel)
            b = build_comparison_dfa(x, y, BIN, comp)
            for acc_a, acc_b in zip(level_acceptance(a, MAX_WORD_LEN), level_acceptance(b, MAX_WORD_LEN)):
                assert np.array_equal(acc_a, ~acc_b)


def test_difference_saturation(binary_grid, binary_counts):
    """When x is interlaced by y, |z|_x - |z|_y never reaches +2, and once it
    drops to -2 it stays negative on every longer prefix."""
    for (x, y), outcome in binary_grid.items():
        if outcome.direction not in (Direction.X_INTERLACED_BY_Y, Direction.BOTH):
            continue
        diff_levels = [cx - cy for cx, cy in zip(binary_counts[x], binary_counts[y])]
        assert max(int(d.max()) for d in diff_levels) <= 1
        # prefix_sticky[i] == True when some proper prefix of word i had diff <= -2
        sticky = np.zeros(1, dtype=bool)
        for level in range(1, MAX_WORD_LEN + 1):
            prev_diff = diff_levels[level - 1]
            sticky = np.repeat(sticky | (prev_diff <= -2), 2)
            assert np.all(diff_levels[level][sticky] < 0)


def _unminimized(x, y, alphabet, rel, direction):
    """The oriented tracker of the pair, accepting the words of rel."""
    if direction is Direction.Y_INTERLACED_BY_X:
        x, y, rel = y, x, rel.mirrored()
    return tracker_dfa(x, y, alphabet, rel)


def _sinks(dfa):
    return [s for s, row in enumerate(dfa.transitions) if all(t == s for t in row)]


def test_tracker_state_counts():
    small = tracker_dfa("0" * 12, "0" * 11, BIN, Relation.EQ)
    assert small.state_count == 14
    assert len(_sinks(small)) == 1
    big = tracker_dfa("0" * 2000, "0" * 1999, BIN, Relation.EQ)
    assert big.state_count == 2002
    assert minimize(big).state_count == 2000


FOLD_LEN = 10


@pytest.fixture(scope="module")
def oriented_pairs(binary_grid):
    """Every regular pair over binary <= 4 and ternary <= 3 with x interlaced by y."""
    ternary = list(nonempty_words_upto(TERN, 3))
    cases = [(x, y, BIN, o) for (x, y), o in binary_grid.items()]
    cases += [(x, y, TERN, decide_regularity(x, y, TERN)) for x in ternary for y in ternary]
    oriented = (Direction.X_INTERLACED_BY_Y, Direction.BOTH)
    return [(x, y, alphabet) for x, y, alphabet, o in cases if o.direction in oriented]


@pytest.fixture(scope="module")
def scan_counts():
    """Per (alphabet, pattern), per length: scan_count occurrences in every word <= FOLD_LEN."""
    grids = [(BIN, 4), (TERN, 3)]
    return {(a, p): level_scan_counts(p, a, FOLD_LEN) for a, n in grids for p in nonempty_words_upto(a, n)}


def test_difference_cap_is_zero_exactly_for_factors(oriented_pairs, scan_counts):
    """The tracker's cap C: the largest |z|_x - |z|_y is 0 when y is a factor of x, else +1."""
    factors = 0
    for x, y, alphabet in oriented_pairs:
        levels = zip(scan_counts[alphabet, x], scan_counts[alphabet, y])
        top = max(int((cx - cy).max()) for cx, cy in levels)
        assert top == (0 if y in x else 1), (x, y, alphabet)
        factors += y in x
    assert 0 < factors < len(oriented_pairs)


def test_folded_tracker_agrees_with_the_counts(oriented_pairs, scan_counts):
    """Folding (q, -1) into the sink keeps every relation's language, on every word <= FOLD_LEN."""
    for x, y, alphabet in oriented_pairs:
        states = level_states(tracker_dfa(x, y, alphabet, Relation.EQ), FOLD_LEN)
        levels = list(zip(scan_counts[alphabet, x], scan_counts[alphabet, y], states))
        for rel in Relation:
            dfa = tracker_dfa(x, y, alphabet, rel)
            accepts = np.isin(np.arange(dfa.state_count), list(dfa.accepting))
            for cx, cy, reached in levels:
                assert np.array_equal(accepts[reached], rel.holds(cx, cy)), (x, y, alphabet, rel)


def test_three_class_trackers_keep_their_size():
    """0^k 1 / 1 0^k reaches every difference class and folds nothing, either way round;
    minimizing its EQ tracker saves 4 states."""
    for k in range(1, 41):
        for x, y in [("0" * k + "1", "1" + "0" * k), ("1" + "0" * k, "0" * k + "1")]:
            assert len(_tracker(x, y, BIN)[0]) == 3 * k + 6, (x, y)
            if k in (5, 10, 20, 40):
                assert build_comparison_dfa(x, y, BIN, Relation.EQ).state_count == 3 * k + 2, (x, y)


def _prefixes(x, y):
    """The number of distinct prefixes of x and y, the empty one included."""
    return len({w[:i] for w in (x, y) for i in range(len(w) + 1)})


def test_tracker_size_is_bounded_by_the_prefixes():
    """The tracker's matcher pairs number at most P, the distinct prefixes of x and y,
    so with three differences and the sink it has at most 3P + 1 states."""
    regular = 0
    for alphabet, length in ((BIN, 5), (TERN, 3)):
        words = list(nonempty_words_upto(alphabet, length))
        for x in words:
            for y in words:
                certificate, _, rows, keys, _, _ = regularity._synthesis(x, y, alphabet)
                if certificate is not None:
                    continue
                regular += 1
                p = _prefixes(x, y)
                assert len(rows) <= 3 * p + 1, (x, y, alphabet)
                assert len({key // 3 for key in keys if key != -3}) <= p, (x, y, alphabet)
    assert regular > 0


def _fibonacci(n):
    """The first n letters of the Fibonacci word 0100101001001..."""
    word, before = "01", "0"
    while len(word) < n:
        word, before = word + before, word
    return word[:n]


@pytest.mark.parametrize(
    "x, y, states",
    [
        (_fibonacci(2000), _fibonacci(1999), 2002),
        ("01" * 1000 + "0", "01" * 1000, 2003),
        ("0" * 1000 + "1" + "0" * 1000, "0" * 500 + "1", 2004),
        ("0" * 2000 + "1", "1" + "0" * 2000, 6006),
    ],
    ids=["fibonacci", "alternating", "one-in-zeros", "zeros-one"],
)
def test_structured_family_tracker_sizes(x, y, states):
    assert len(regularity._synthesis(x, y, BIN)[2]) == states


def test_trackers_are_near_minimal():
    """The tracker has at most 1.25 times the states of the largest minimal DFA of its pair."""
    rng = random.Random(4)
    pairs = []
    for n in (12, 40, 80):
        pairs += [("0" * n, "0" * (n - 1), BIN), ("0" * n + "1", "01", BIN), ("0" * n, "0" * (n // 2), TERN)]
    for symbols in ("01", "01", "012", "012"):
        w = "".join(rng.choice(symbols) for _ in range(140))
        i = rng.randrange(140 - 14)
        pairs.append((w, w[i : i + 14], Alphabet(symbols)))
    for x, y, alphabet in pairs:
        assert decide_regularity(x, y, alphabet).direction is Direction.X_INTERLACED_BY_Y
        tracker = len(_tracker(x, y, alphabet)[0])
        minimal = max(build_comparison_dfa(x, y, alphabet, rel).state_count for rel in Relation)
        assert 4 * tracker <= 5 * minimal, (x, y, alphabet, tracker, minimal)


def test_tracker_has_at_most_one_sink(binary_grid):
    ternary = list(nonempty_words_upto(TERN, 3))
    cases = [(x, y, BIN, o) for (x, y), o in binary_grid.items()]
    cases += [(x, y, TERN, decide_regularity(x, y, TERN)) for x in ternary for y in ternary]
    with_sink = 0
    for x, y, alphabet, outcome in cases:
        if not outcome.regular:
            continue
        if outcome.direction is Direction.Y_INTERLACED_BY_X:
            x, y = y, x
        # Over two or more symbols no live matcher pair loops on every symbol,
        # so a state whose every successor is itself can only be the one sink.
        sinks = len(_sinks(tracker_dfa(x, y, alphabet, Relation.EQ)))
        assert sinks <= 1, (x, y, alphabet)
        with_sink += sinks
    assert with_sink > 0


def test_comparison_dfas_are_minimal_and_agree_with_the_tracker(binary_grid):
    ternary = list(nonempty_words_upto(TERN, 3))
    cases = [(x, y, BIN, o) for (x, y), o in binary_grid.items()]
    cases += [(x, y, TERN, decide_regularity(x, y, TERN)) for x in ternary for y in ternary]
    checked = 0
    for x, y, alphabet, outcome in cases:
        if not outcome.regular:
            continue
        for rel in Relation:
            dfa = build_comparison_dfa(x, y, alphabet, rel)
            assert naive_minimize(dfa) == dfa, (x, y, alphabet, rel)
            reference = _unminimized(x, y, alphabet, rel, outcome.direction)
            for got, want in zip(level_acceptance(dfa, 8), level_acceptance(reference, 8)):
                assert np.array_equal(got, want), (x, y, alphabet, rel)
            checked += 1
    assert checked == 6 * sum(o.regular for *_, o in cases)


def _reference(x, y, alphabet, rel, fmt="json"):
    """The serialized minimal DFA of one relation, minimized from its own tracker."""
    direction = decide_regularity(x, y, alphabet).direction
    return serialize(minimize(_unminimized(x, y, alphabet, rel, direction)), fmt)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls build_comparison_dfa makes into the decision and automata layers."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name in ("decide_regularity", "matcher_automaton", "minimize"):
        monkeypatch.setattr(regularity, name, counted(name, getattr(regularity, name)))
    regularity._synthesis.cache_clear()
    return counts


def test_six_relations_share_one_synthesis(calls):
    rng = random.Random(8)
    # The last entry is how many minimizations the six relations need: one
    # per split they make of the difference classes present, but none for the
    # trivial split, which accepts them all (d <= -1, 0 and +1 for 01/10, none
    # trivial; d = 0 alone for 0/0; no +1 class otherwise, where LE is trivial).
    pairs = [("01", "10", BIN, 3), ("0", "0011", BIN, 1), ("0" * 12, "0" * 11, BIN, 1),
             ("0" * 5 + "1", "01", BIN, 1), ("0", "0", BIN, 0), ("0000", "00", TERN, 1),
             ("01", "10", Alphabet("10"), 3)]
    for x, y, alphabet, minimizations in pairs:
        for _ in range(3):
            regularity._synthesis.cache_clear()
            calls.clear()
            relations = list(Relation)
            rng.shuffle(relations)
            for rel in relations:
                build_comparison_dfa(x, y, alphabet, rel)
            assert calls["decide_regularity"] == 1, (x, y, relations)
            assert calls["matcher_automaton"] == 2, (x, y, relations)
            assert calls["minimize"] == minimizations, (x, y, relations)
        # asked again, the same pair is served from the synthesis, all six relations
        calls.clear()
        for rel in Relation:
            build_comparison_dfa(x, y, alphabet, rel)
        assert not calls
    # one relation alone costs what a single synthesis does
    regularity._synthesis.cache_clear()
    calls.clear()
    build_comparison_dfa("01", "10", BIN, Relation.NE)
    assert calls == {"decide_regularity": 1, "matcher_automaton": 2, "minimize": 1}


def _three_class_pairs():
    family = [("0" * k + "1", "1" + "0" * k) for k in range(1, 21)]
    return family + [(y, x) for x, y in family] + [("01", "10"), ("000100", "1000")]


def test_three_class_pairs_minimize_once_per_split(calls):
    rng = random.Random(5)
    for x, y in _three_class_pairs():
        regularity._synthesis.cache_clear()
        calls.clear()
        relations = list(Relation)
        rng.shuffle(relations)
        for rel in relations:
            dfa = build_comparison_dfa(x, y, BIN, rel)
            for fmt in ("json", "dot"):
                assert serialize(dfa, fmt) == _reference(x, y, BIN, rel, fmt), (x, y, rel, fmt)
        # LT/GE, LE/GT and EQ/NE: three splits, one minimization each
        assert calls["minimize"] == 3, (x, y, relations)
        assert all(build_comparison_dfa(x, y, BIN, rel).state_count > 1 for rel in Relation)


def test_two_class_pairs_complement_lt_for_eq(calls):
    rng = random.Random(6)
    pairs = [("0" * n, "0" * (n - 1), BIN) for n in (2, 12, 40)]
    pairs += [("0" * 9 + "1", "01", BIN), ("0000", "00", TERN)]
    for _ in range(10):
        w = "".join(rng.choice("01") for _ in range(30))
        i = rng.randrange(27)
        pairs.append((w, w[i : i + 3], BIN))
    for x, y, alphabet in pairs:
        regularity._synthesis.cache_clear()
        calls.clear()
        lt = build_comparison_dfa(x, y, alphabet, Relation.LT)
        eq = build_comparison_dfa(x, y, alphabet, Relation.EQ)
        assert calls["minimize"] == 1, (x, y)
        for fmt in ("json", "dot"):
            assert serialize(eq, fmt) == serialize(complement(lt), fmt), (x, y, fmt)
            assert serialize(eq, fmt) == _reference(x, y, alphabet, Relation.EQ, fmt), (x, y, fmt)
        assert build_comparison_dfa(x, y, alphabet, Relation.LE).state_count == 1
        assert calls["minimize"] == 1, (x, y)


def test_synthesis_is_keyed_by_both_patterns_and_the_alphabet():
    build_comparison_dfa("01", "10", BIN, Relation.EQ)
    for _ in range(2):  # a non-regular pair is kept too, and raises each time
        with pytest.raises(NotRegularError) as exc:
            build_comparison_dfa("01", "10", TERN, Relation.EQ)
        assert exc.value.certificate == decide_regularity("01", "10", TERN).certificate
        assert exc.value.certificate is not None
    flipped = Alphabet("10")
    swapped_direction = [("0", "0011"), ("0011", "0")]
    for rel in Relation:
        ordered = build_comparison_dfa("01", "10", BIN, rel)
        reordered = build_comparison_dfa("01", "10", flipped, rel)
        assert ordered.alphabet == BIN and reordered.alphabet == flipped
        assert serialize(ordered, "json") == _reference("01", "10", BIN, rel)
        assert serialize(reordered, "json") == _reference("01", "10", flipped, rel)
        for x, y in swapped_direction + swapped_direction[::-1]:
            assert serialize(build_comparison_dfa(x, y, BIN, rel), "json") == _reference(x, y, BIN, rel)
    # |z|_0 < |z|_0011 fails on 0 but |z|_0011 < |z|_0 holds there
    assert not build_comparison_dfa("0", "0011", BIN, Relation.LT).accepts("0")
    assert build_comparison_dfa("0011", "0", BIN, Relation.LT).accepts("0")


def test_non_regular_pair_is_decided_once(calls):
    """The six relations of a non-regular pair share one decision, each raising a fresh error."""
    errors = []
    for rel in Relation:
        with pytest.raises(NotRegularError) as exc:
            build_comparison_dfa("0011", "1100", BIN, rel)
        errors.append(exc.value)
    assert calls == {"decide_regularity": 1}
    assert len(set(map(id, errors))) == 6
    assert errors[0].certificate is not None
    assert all(err.certificate == errors[0].certificate for err in errors)


def test_relation_order_does_not_change_the_dfas(binary_grid):
    ternary = list(nonempty_words_upto(TERN, 3))
    cases = [(x, y, BIN) for (x, y), o in binary_grid.items() if o.regular]
    cases += [(x, y, TERN) for x in ternary for y in ternary if decide_regularity(x, y, TERN).regular]
    want = {}
    for case in cases:
        direction = decide_regularity(*case).direction
        for rel in Relation:
            dfa = minimize(_unminimized(*case, rel, direction))
            for fmt in ("json", "dot"):
                want[(case, rel, fmt)] = serialize(dfa, fmt)
    rng = random.Random(3)

    def check(case, relations):
        for rel in relations:
            dfa = build_comparison_dfa(*case, rel)
            for fmt in ("json", "dot"):
                assert serialize(dfa, fmt) == want[(case, rel, fmt)], (case, rel, fmt)

    for case in cases:  # each pair's six relations in a shuffled order
        relations = list(Relation)
        rng.shuffle(relations)
        check(case, relations)
    for a, b in zip(cases, cases[1:]):  # A, B, A: B's synthesis replaces A's midway
        relations = list(Relation)
        rng.shuffle(relations)
        check(a, relations[:3])
        check(b, relations)
        check(a, relations[3:] + relations[:3])
    assert len(cases) > 100


def test_threads_share_the_synthesis_safely():
    pairs = [("0" * 40, "0" * 39, BIN), ("0" * 8 + "1", "01", BIN), ("0", "0011", TERN)]
    serial = {(p, rel): _reference(*p, rel) for p in pairs for rel in Relation}
    results = {}

    def work(seed):
        rng = random.Random(seed)
        got = []
        try:
            for _ in range(30):
                order = [(p, rel) for p in pairs for rel in Relation]
                rng.shuffle(order)
                for p, rel in order:
                    got.append(((p, rel), serialize(build_comparison_dfa(*p, rel), "json")))
        except Exception as exc:  # reported below, from the main thread
            got = exc
        results[seed] = got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        assert not isinstance(got, Exception), repr(got)
        assert len(got) == 30 * 6 * len(pairs)
        for key, text in got:
            assert text == serial[key], key


def _assert_certificate_invariants(cert, x, y):
    assert cert.r != y and cert.r.startswith(y) and cert.r.endswith(y)
    assert cert.s != x and cert.s.startswith(x) and cert.s.endswith(x)
    assert scan_count(cert.r, x) == 0 and scan_count(cert.s, y) == 0
    uv, pq = cert.dec_r.period_word(), cert.dec_s.period_word()
    assert uv + pq != pq + uv
    e, f = cert.dec_r.e, cert.dec_s.e
    for i in range(e + 1, e + 5):
        assert scan_count(uv * i + cert.dec_r.u, x) == 0
    for j in range(f + 1, f + 5):
        assert scan_count(pq * j + cert.dec_s.u, y) == 0
    for i in range(e + 1, e + 4):
        for j in range(f + 1, f + 4):
            z = uv * i + pq * j
            assert scan_count(z, x) == (j - f) * cert.d_prime + cert.c_prime - cert.d_prime + cert.m
            assert scan_count(z, y) == (i - e) * cert.d + cert.c - cert.d + cert.n


def test_certificates_valid_on_binary_grid(binary_grid):
    non_regular = [(x, y) for (x, y), o in binary_grid.items() if not o.regular]
    assert non_regular
    for x, y in non_regular:
        _assert_certificate_invariants(binary_grid[(x, y)].certificate, x, y)


def test_certificates_valid_on_ternary_grid():
    words = list(nonempty_words_upto(TERN, 3))
    checked = 0
    for x in words:
        for y in words:
            outcome = decide_regularity(x, y, TERN)
            if outcome.regular:
                continue
            _assert_certificate_invariants(outcome.certificate, x, y)
            checked += 1
    assert checked


def test_certificate_json_round_trip_fields():
    cert = non_regularity_certificate("0011", "1100", BIN)
    doc = cert.to_json_dict()
    assert doc["r"] == cert.r and doc["s"] == cert.s
    assert doc["dec_r"] == {"u": "1100", "v": "10", "e": 0}
    assert set(doc) == {"r", "s", "dec_r", "dec_s", "c", "d", "c_prime", "d_prime", "m", "n"}


def test_mirrored_and_complemented_relations():
    # only y interlaced by x: the construction swaps roles and mirrors
    x, y = "0", "0011"
    assert decide_regularity(x, y, BIN).direction is Direction.Y_INTERLACED_BY_X
    for rel in Relation:
        dfa = build_comparison_dfa(x, y, BIN, rel)
        for w in nonempty_words_upto(BIN, 8):
            expect = _relation_truth(rel, scan_count(w, x), scan_count(w, y))
            assert dfa.accepts(w) == expect, (rel, w)
