"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s -v tests/test_acceptance.py`` to see the per-criterion
report lines as they execute.
"""

import random
import time
from itertools import product

import pytest

from occlang import (
    Alphabet,
    Method,
    Relation,
    avoider_automaton,
    bounded_equal_census,
    bounded_equivalence,
    build_comparison_dfa,
    count_occurrences,
    de_bruijn_word,
    decide_regularity,
    equal_length_family,
    grafted_bordered_automaton,
    in_b_x,
    interlaced,
    is_finite_pair,
    is_interlaced_by,
    non_regularity_certificate,
    shortest_accepted,
)

from helpers import BIN, TERN, UNARY, nonempty_words_upto, scan_count


def report(number, passed, detail):
    print(f"criterion {number:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def binary_sweep():
    """avoider emptiness and witnesses for every binary |x| <= 4, |y| <= 5."""
    out = {}
    for x in nonempty_words_upto(BIN, 4):
        for y in nonempty_words_upto(BIN, 5):
            out[(x, y)] = shortest_accepted(avoider_automaton(y, x, BIN))
    return out


@pytest.fixture(scope="module")
def ternary_sweep():
    """avoider emptiness and witnesses for every ternary |x|, |y| <= 3."""
    out = {}
    for x in nonempty_words_upto(TERN, 3):
        for y in nonempty_words_upto(TERN, 3):
            out[(x, y)] = shortest_accepted(avoider_automaton(y, x, TERN))
    return out


def test_criterion_01_figure_reproduction():
    dfa = build_comparison_dfa("01", "10", BIN, Relation.EQ)
    t0 = time.perf_counter()
    mismatch = bounded_equivalence(dfa, "01", "10", Relation.EQ, 12)
    elapsed = time.perf_counter() - t0
    ok = dfa.state_count == 5 and mismatch is None and elapsed < 1.0
    report(
        1,
        ok,
        f"equality DFA has {dfa.state_count} states and matched the counter "
        f"oracle on all 8191 binary words of length <= 12 in {elapsed:.3f}s",
    )


def test_criterion_02_verdict_triple():
    a = decide_regularity("01", "10", BIN).regular
    b = decide_regularity("01", "10", TERN).regular
    c = decide_regularity("0011", "1100", BIN).regular
    report(
        2,
        a and not b and not c,
        f"01/10 binary regular={a}, 01/10 ternary regular={b}, 0011/1100 binary regular={c}",
    )


def test_criterion_03_interlacing_golden_case():
    general = is_interlaced_by("000100", "1000", BIN).holds
    fast = interlaced("000100", "1000", BIN)
    report(
        3,
        general and fast.holds and fast.method is Method.LENGTH_THREE,
        "000100 is interlaced by 1000: general method and length-three test both agree",
    )


def test_criterion_04_remark_reproduction():
    x, y = "10100", "01001010"
    pads_up_to_two = [""] + ["".join(t) for n in (1, 2) for t in product("01", repeat=n)]
    short_ok = all(x in y + t + y for t in pads_up_to_two)
    failures = {
        "".join(t) for t in product("01", repeat=3) if x not in y + "".join(t) + y
    }
    fast = interlaced(y, x, BIN)
    witness = shortest_accepted(avoider_automaton(y, x, BIN))
    segment_ok = witness is not None and (y + "110" + y) in witness
    fast_ok = not fast.holds and fast.method is Method.LENGTH_THREE
    ok = short_ok and len(pads_up_to_two) == 7 and failures == {"110"} and fast_ok and segment_ok
    report(
        4,
        ok,
        f"x in yty for all 7 pads |t|<=2, |t|=3 failures={sorted(failures)}, "
        f"length-three test False, general witness contains y 110 y",
    )


def test_criterion_05_corollary_equivalence_binary():
    t0 = time.perf_counter()
    disagreements = 0
    pairs = 0
    for x in nonempty_words_upto(BIN, 4):
        for y in nonempty_words_upto(BIN, 5):
            pairs += 1
            empty = shortest_accepted(avoider_automaton(y, x, BIN)) is None
            fast = interlaced(y, x, BIN)
            if fast.method is not Method.LENGTH_THREE or fast.holds != empty:
                disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and pairs == 1860 and elapsed < 60.0
    report(
        5,
        ok,
        f"{pairs} binary pairs, {disagreements} disagreements between the "
        f"length-three test and automaton emptiness ({elapsed:.2f}s)",
    )


def test_criterion_06_corollary_equivalence_ternary(ternary_sweep):
    disagreements = 0
    for (x, y), witness in ternary_sweep.items():
        fast = interlaced(y, x, TERN)
        if fast.method is not Method.SINGLE_LETTER or fast.holds != (witness is None):
            disagreements += 1
    report(
        6,
        disagreements == 0,
        f"{len(ternary_sweep)} ternary pairs, {disagreements} disagreements "
        "between the single-letter test and automaton emptiness",
    )


def test_criterion_07_witness_bound(binary_sweep, ternary_sweep):
    violations = 0
    checked = 0
    for sweep in (binary_sweep, ternary_sweep):
        for (x, y), witness in sweep.items():
            if witness is None:
                continue
            checked += 1
            if len(witness) >= (len(x) + 1) * (2 * len(y) + 3):
                violations += 1
    graft_ok = all(
        grafted_bordered_automaton(y, BIN).state_count == 2 * len(y) + 3
        for y in nonempty_words_upto(BIN, 5)
    ) and all(
        grafted_bordered_automaton(y, TERN).state_count == 2 * len(y) + 3
        for y in nonempty_words_upto(TERN, 3)
    )
    report(
        7,
        violations == 0 and checked > 0 and graft_ok,
        f"{checked} witnesses all shorter than (|x|+1)(2|y|+3); "
        "bordered-word recognizers have exactly 2|y|+3 states",
    )


def _random_word(rng, length):
    return "".join(rng.choice("01") for _ in range(length))


def _best_decision_time(n, seed, repetitions=3):
    rng = random.Random(seed)
    x = _random_word(rng, n)
    y = _random_word(rng, n)
    best = float("inf")
    for _ in range(repetitions):
        t0 = time.perf_counter()
        is_interlaced_by(x, y, BIN)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_08_performance_scaling():
    t_small = _best_decision_time(1000, seed=20260811)
    t_large = _best_decision_time(2000, seed=20260812)
    ratio = t_large / max(t_small, 1e-9)
    ok = t_small < 1.0 and ratio < 4.0
    report(
        8,
        ok,
        f"interlacing decision at n=1000 took {t_small * 1000:.1f} ms; "
        f"doubling both lengths scaled by {ratio:.2f}x (< 4x)",
    )


def test_criterion_09_class_b_lemma():
    disagreements = 0
    checked = 0
    for x in ("01", "001", "0001"):
        for y in nonempty_words_upto(BIN, 8):
            expected = (
                count_occurrences(y, x) == 0
                and shortest_accepted(avoider_automaton(y, x, BIN)) is None
            )
            checked += 1
            if in_b_x(y, x) != expected:
                disagreements += 1
    report(
        9,
        disagreements == 0,
        f"{checked} pattern/word pairs: regular-set membership matches "
        f"the general-method characterization with {disagreements} disagreements",
    )


def _certificate_formulas_hold(cert, x, y):
    uv, pq = cert.dec_r.period_word(), cert.dec_s.period_word()
    e, f = cert.dec_r.e, cert.dec_s.e
    for i in range(e + 1, e + 4):
        for j in range(f + 1, f + 4):
            z = uv * i + pq * j
            if scan_count(z, x) != (j - f) * cert.d_prime + cert.c_prime - cert.d_prime + cert.m:
                return False
            if scan_count(z, y) != (i - e) * cert.d + cert.c - cert.d + cert.n:
                return False
    return True


def test_criterion_10_certificate_arithmetic(binary_sweep, ternary_sweep):
    grids = [
        (BIN, 4, binary_sweep),
        (TERN, 3, ternary_sweep),
    ]
    checked = 0
    bad = 0
    for alphabet, bound, sweep in grids:
        words = list(nonempty_words_upto(alphabet, bound))
        for x in words:
            for y in words:
                # regular iff one of the two avoider languages is empty
                if sweep[(x, y)] is None or sweep[(y, x)] is None:
                    continue
                cert = non_regularity_certificate(x, y, alphabet)
                checked += 1
                bordered_ok = (
                    cert.r.startswith(y)
                    and cert.r.endswith(y)
                    and cert.r != y
                    and cert.s.startswith(x)
                    and cert.s.endswith(x)
                    and cert.s != x
                    and scan_count(cert.r, x) == 0
                    and scan_count(cert.s, y) == 0
                )
                uv_pq = cert.dec_r.period_word() + cert.dec_s.period_word()
                pq_uv = cert.dec_s.period_word() + cert.dec_r.period_word()
                if not (bordered_ok and uv_pq != pq_uv and _certificate_formulas_hold(cert, x, y)):
                    bad += 1
    report(
        10,
        bad == 0 and checked > 0,
        f"{checked} non-regular instances: every certificate satisfied "
        f"avoidance, borderedness, non-commutation and both count formulas",
    )


def test_criterion_11_finiteness():
    theorem_ok = (
        is_finite_pair("aa", "aaa", UNARY)
        and not is_finite_pair("aa", "aa", UNARY)
        and not is_finite_pair("aa", "bb", Alphabet("ab"))
        and not is_finite_pair("aa", "ab", Alphabet("ab"))
        and not is_finite_pair("ab", "ba", Alphabet("ab"))
    )
    census_a = bounded_equal_census(["0", "1", "00", "11"], BIN, 14)
    census_b = bounded_equal_census(["0", "1", "01", "10"], BIN, 14)
    alternation_ok = True
    for k in range(8):
        z = "01" * k
        counts = {scan_count(z, p) for p in ["00", "11", "000", "111"]}
        if len(counts) != 1:
            alternation_ok = False
    ok = (
        theorem_ok
        and census_a.members == ("",)
        and census_b.members == ("",)
        and alternation_ok
    )
    report(
        11,
        ok,
        "pair-finiteness matches the theorem; both length-14 censuses contain "
        "only the empty word; (01)^k balances 00/11/000/111 for k <= 7",
    )


def test_criterion_12_de_bruijn_and_families():
    db_ok = True
    for alphabet in (BIN, TERN):
        k = len(alphabet)
        for order in range(1, 5):
            db = de_bruijn_word(order, alphabet)
            cyc = db.word + db.word[: order - 1]
            grams = [cyc[i : i + order] for i in range(len(db.word))]
            if len(db.word) != k**order or len(set(grams)) != k**order:
                db_ok = False
    family_ok = True
    families = 0
    for length in (1, 2, 3):
        all_patterns = ["".join(t) for t in product("01", repeat=length)]
        for mask in range(1, 2 ** len(all_patterns)):
            patterns = [p for b, p in enumerate(all_patterns) if mask >> b & 1]
            for i in (1, 2, 3):
                w = equal_length_family(patterns, BIN, i)
                families += 1
                if any(scan_count(w, p) != i for p in patterns):
                    family_ok = False
    report(
        12,
        db_ok and family_ok,
        f"de Bruijn invariants hold for orders <= 4 over 2 and 3 symbols; "
        f"{families} family words each contain every pattern exactly i times",
    )


def test_criterion_13_counting_lemma_property(binary_sweep, ternary_sweep):
    interlaced_pairs = []
    for sweep, alphabet in ((binary_sweep, BIN), (ternary_sweep, TERN)):
        for (p, b), witness in sweep.items():
            if witness is None:
                # p occurs in every b-bordered word: b is interlaced by p
                interlaced_pairs.append((b, p, alphabet))
    rng = random.Random(13)
    sample = rng.sample(interlaced_pairs, 50)
    violations = 0
    for x, y, alphabet in sample:
        for length in range(1, 11):
            for t in alphabet.words_of_length(length):
                if count_occurrences(t, y) < count_occurrences(t, x) - 1:
                    violations += 1
    report(
        13,
        violations == 0,
        f"50 randomly chosen interlaced pairs: |t|_y >= |t|_x - 1 held for "
        f"every word t of length <= 10 ({violations} violations)",
    )
