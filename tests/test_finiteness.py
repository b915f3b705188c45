import hashlib
from itertools import product

import pytest

from occlang import (
    Alphabet,
    Relation,
    bounded_census,
    bounded_equal_census,
    de_bruijn_word,
    equal_length_family,
    finiteness_verdict,
    is_finite_pair,
)
from occlang.errors import (
    AlphabetTooSmallError,
    BudgetExceededError,
    DuplicatePatternError,
    EmptyPatternError,
    UnequalLengthsError,
)

from helpers import BIN, TERN, UNARY, scan_count


def test_is_finite_pair_examples():
    assert is_finite_pair("aa", "aaa", UNARY)
    assert not is_finite_pair("aa", "aa", UNARY)
    assert not is_finite_pair("ab", "ba", Alphabet("ab"))
    with pytest.raises(EmptyPatternError):
        is_finite_pair("", "a", UNARY)


def test_is_finite_pair_covers_the_proof_cases():
    ab = Alphabet("ab")
    # same-letter powers: finite over a unary alphabet iff distinct
    assert is_finite_pair("a", "aa", UNARY)
    assert not is_finite_pair("a", "aa", ab)
    # powers of two distinct letters
    assert not is_finite_pair("aa", "bbb", ab)
    # one unary pattern, one mixed
    assert not is_finite_pair("aa", "ab", ab)
    # both mixed
    assert not is_finite_pair("ab", "ba", ab)


def test_unary_membership_matches_the_count_formula():
    # a^n holds n-j+1 occurrences of a^j once n >= j
    x, y = "aa", "aaa"
    bound = max(len(x), len(y)) + 5
    report = bounded_census(x, y, UNARY, Relation.EQ, bound)
    expected = {
        "a" * n
        for n in range(bound + 1)
        if max(0, n - len(x) + 1) == max(0, n - len(y) + 1)
    }
    assert set(report.members) == expected == {"", "a"}


def _cyclic_grams(word, order):
    cyc = word + word[: order - 1]
    return [cyc[i : i + order] for i in range(len(word))]


def test_de_bruijn_examples():
    assert de_bruijn_word(2, BIN).word == "0011"
    assert sorted(_cyclic_grams("0011", 2)) == ["00", "01", "10", "11"]

    assert de_bruijn_word(1, BIN).word == "01"

    db3 = de_bruijn_word(3, BIN)
    assert len(db3.word) == 8
    assert sorted(_cyclic_grams(db3.word, 3)) == sorted(
        "".join(t) for t in product("01", repeat=3)
    )


def test_de_bruijn_invariants_small_orders():
    for alphabet in (BIN, TERN):
        k = len(alphabet)
        for order in range(1, 5):
            db = de_bruijn_word(order, alphabet)
            assert db.alphabet_size == k
            assert len(db.word) == k**order
            grams = _cyclic_grams(db.word, order)
            assert len(set(grams)) == len(grams) == k**order


def test_de_bruijn_needs_two_symbols():
    with pytest.raises(AlphabetTooSmallError):
        de_bruijn_word(2, UNARY)
    with pytest.raises(ValueError):
        de_bruijn_word(0, BIN)


def test_de_bruijn_budget():
    assert len(de_bruijn_word(20, BIN).word) == 2**20
    for order, alphabet in [(21, BIN), (13, TERN), (5000, BIN), (10**6, TERN)]:
        with pytest.raises(BudgetExceededError):
            de_bruijn_word(order, alphabet)


def test_equal_length_family_examples():
    patterns = ["00", "11", "01", "10"]
    w1 = equal_length_family(patterns, BIN, 1)
    assert w1 == "00110"
    assert [scan_count(w1, p) for p in patterns] == [1, 1, 1, 1]

    w2 = equal_length_family(patterns, BIN, 2)
    assert w2 == "001100110"
    assert [scan_count(w2, p) for p in patterns] == [2, 2, 2, 2]

    w3 = equal_length_family(["0", "1"], BIN, 3)
    assert scan_count(w3, "0") == scan_count(w3, "1") == 3


def test_equal_length_family_validation():
    with pytest.raises(UnequalLengthsError):
        equal_length_family(["0", "11"], BIN, 1)
    with pytest.raises(DuplicatePatternError):
        equal_length_family(["01", "01"], BIN, 1)
    with pytest.raises(AlphabetTooSmallError):
        equal_length_family(["a"], UNARY, 1)
    with pytest.raises(EmptyPatternError):
        equal_length_family(["", "0"], BIN, 1)
    with pytest.raises(ValueError):
        equal_length_family(["0"], BIN, 0)


def test_worked_multi_word_examples_small_bound():
    assert bounded_equal_census(["0", "1", "00", "11"], BIN, 8).members == ("",)
    assert bounded_equal_census(["0", "1", "01", "10"], BIN, 8).members == ("",)
    for k in range(4):
        z = "01" * k
        counts = {p: scan_count(z, p) for p in ["00", "11", "000", "111"]}
        assert len(set(counts.values())) == 1


def test_finiteness_verdicts():
    assert finiteness_verdict(["aa", "aaa"], UNARY) == "finite"
    assert finiteness_verdict(["01", "10"], BIN) == "infinite"
    assert finiteness_verdict(["0", "1", "00"], BIN) == "unknown"
    assert finiteness_verdict(["00", "11", "01"], BIN) == "infinite"


def _de_bruijn_digest():
    """sha256 over every de Bruijn word within the budget over 2, 3 and 4 symbols."""
    h = hashlib.sha256()
    for symbols in ("01", "012", "0123"):
        alphabet = Alphabet(symbols)
        order = 1
        while len(symbols) ** order <= 1 << 20:
            h.update(f"{symbols}:{order}:{de_bruijn_word(order, alphabet).word};".encode())
            order += 1
    return h.hexdigest()


def test_de_bruijn_words_are_pinned():
    """The words of every order within the budget, beyond the few the CLI digest covers."""
    assert _de_bruijn_digest() == (
        "3286ff62533687f222d7271232a45b7fffad7b26790150aaa98835d98129ab76"
    )
