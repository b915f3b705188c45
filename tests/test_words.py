import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from occlang import (
    border_lengths,
    count_occurrences,
    decompose_bordered,
    is_bordered,
)
from occlang.errors import (
    EmptyPatternError,
    EmptyWordError,
    ForeignSymbolError,
    NotBorderedError,
)
from occlang import words
from occlang.words import Alphabet

from helpers import BIN, nonempty_words_upto, scan_count, words_upto


def test_count_occurrences_examples():
    assert count_occurrences("banana", "ana") == 2
    assert count_occurrences("aaaa", "aa") == 3
    assert count_occurrences("abc", "d") == 0
    assert count_occurrences("ab", "abc") == 0


def test_count_occurrences_rejects_empty_pattern():
    with pytest.raises(EmptyPatternError):
        count_occurrences("abc", "")


def test_count_occurrences_matches_position_scan_exhaustively():
    for w in words_upto(BIN, 8):
        for p in nonempty_words_upto(BIN, 3):
            assert count_occurrences(w, p) == scan_count(w, p)


@given(st.text(alphabet="ab", max_size=30), st.text(alphabet="ab", min_size=1, max_size=5))
def test_count_occurrences_matches_position_scan_random(w, p):
    assert count_occurrences(w, p) == scan_count(w, p)


def test_residue_counts_match_a_scan():
    """Long periodic patterns, which may start again fewer than |p| letters past a start.

    Patterns are cut from roots of 1-25 letters to 1-60 letters; haystacks are
    copies and cuts of the pattern.  The scan resumes one letter past each start.
    Residue counting is checked on the prefixes of B^ω of 1-4 blocks plus 0-|p|
    letters, for blocks B that are the root, a rotation of it, a cut of the
    pattern or empty; the cases must include a pattern longer than its block
    with a residue, a residue at |B| - 1, and an empty block.
    """
    rng = random.Random("count-occurrences-resume")
    seen = set()
    for _ in range(3000):
        root = "".join(rng.choice("01") for _ in range(rng.randint(1, 25)))
        p = (root * 60)[: rng.randint(1, 60)]
        pieces = (p, p, p[rng.randint(1, len(p)) :], p[: rng.randint(0, len(p))], root, "0", "1")
        w = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 8)))
        assert count_occurrences(w, p) == scan_count(w, p), (w, p)
        turn = rng.randint(0, len(root))
        block = rng.choice((root, root[turn:] + root[:turn], p[: rng.randint(0, len(p))]))
        residues = words._residues(block, p)
        length = len(block) * rng.randint(1, 4) + rng.randint(0, len(p))
        prefix = (block * (length // len(block) + 1))[:length] if block else ""
        assert words._power_count(residues, len(block), len(p), length) == scan_count(prefix, p), (block, p, length)
        if residues and len(p) > len(block):
            seen.add("longer")
        if len(block) - 1 in residues:
            seen.add("last")
        if not block:
            seen.add("empty")
    assert seen == {"longer", "last", "empty"}


def test_border_lengths_examples():
    assert border_lengths("alfalfa") == [1, 4]
    assert border_lengths("abc") == []
    assert border_lengths("aaaa") == [1, 2, 3]
    with pytest.raises(EmptyWordError):
        border_lengths("")


def test_is_bordered_examples():
    assert is_bordered("entanglement", "ent")
    assert is_bordered("alfalfa", "alfa")
    assert not is_bordered("ent", "ent")
    assert not is_bordered("en", "ent")
    with pytest.raises(EmptyPatternError):
        is_bordered("abc", "")


def test_border_lengths_agree_with_classification():
    for w in nonempty_words_upto(BIN, 12):
        borders = set(border_lengths(w))
        for b in range(1, len(w)):
            is_border = is_bordered(w, w[:b])
            assert (b in borders) == is_border


def test_decompose_bordered_examples():
    dec = decompose_bordered("entanglement", "ent")
    assert (dec.u, dec.v, dec.e) == ("ent", "anglem", 0)
    assert dec.border() == "ent" and dec.bordered_word() == "entanglement"

    dec = decompose_bordered("alfalfa", "alfa")
    assert (dec.u, dec.v, dec.e) == ("a", "lf", 1)
    assert ("alf") * 1 + "a" == "alfa"
    assert ("alf") * 2 + "a" == "alfalfa"

    dec = decompose_bordered("abab", "ab")
    assert (dec.u, dec.v, dec.e) == ("ab", "", 0)


def test_decompose_bordered_rejects_unbordered():
    with pytest.raises(NotBorderedError):
        decompose_bordered("abc", "ab")
    with pytest.raises(NotBorderedError):
        decompose_bordered("ent", "ent")


def test_decompose_bordered_reconstructs_exhaustively():
    # every bordered (z, y) with |z| <= 16 over the binary alphabet
    for z in nonempty_words_upto(BIN, 16):
        for b in border_lengths(z):
            dec = decompose_bordered(z, z[:b])
            assert dec.u
            assert dec.border() == z[:b]
            assert dec.bordered_word() == z


def _builder_c_d(dec, y):
    """c and d as the certificate builder reads them off the residues of y in uv.

    c counts y in (uv)^{e+1} from its residues, and d is their number, the
    increase from (uv)^{e+1} to (uv)^{e+2}.
    """
    uv = dec.period_word()
    held = words._residues(uv, y)
    return words._power_count(held, len(uv), len(y), (dec.e + 1) * len(uv)), len(held)


def test_power_count_examples():
    # counted in (uv)^{e+1} and (uv)^{e+2}
    from occlang import BorderDecomposition

    assert _builder_c_d(BorderDecomposition("a", "lf", 1), "alfa") == (1, 1)
    assert (scan_count("alfalf", "alfa"), scan_count("alfalfalf", "alfa")) == (1, 2)

    c, d = _builder_c_d(BorderDecomposition("ab", "", 0), "ab")
    assert (c, d) == (scan_count("ab", "ab"), scan_count("abab", "ab") - 1)
    assert (c, d) == (1, 1)

    assert _builder_c_d(BorderDecomposition("a", "a", 0), "a") == (2, 2)


def test_power_count_linear_law():
    # count of y in (uv)^i is (i-e)d + c - d for i in e+1..e+5
    for z in nonempty_words_upto(BIN, 12):
        for b in border_lengths(z):
            y = z[:b]
            dec = decompose_bordered(z, y)
            c, d = _builder_c_d(dec, y)
            assert c >= 1 and d >= 1
            uv = dec.period_word()
            for i in range(dec.e + 1, dec.e + 6):
                assert count_occurrences(uv * i, y) == (i - dec.e) * d + c - d


def test_alphabet_basics():
    a = Alphabet("012")
    assert len(a) == 3 and "2" in a and "3" not in a
    assert a.index("1") == 1
    assert list(a.words_of_length(1)) == ["0", "1", "2"]
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet(["ab"])


def test_words_of_length_order_and_depth():
    a = Alphabet("ba")
    assert list(a.words_of_length(0)) == [""]
    assert list(a.words_of_length(2)) == ["bb", "ba", "ab", "aa"]
    assert len(list(Alphabet("012").words_of_length(5))) == 3**5
    # one word per length over one symbol: no recursion depth proportional to length
    assert list(Alphabet("a").words_of_length(5000)) == ["a" * 5000]


def test_require_names_the_first_foreign_symbol_in_word_order():
    BIN.require("0110")
    BIN.require("")
    with pytest.raises(ForeignSymbolError) as err:
        BIN.require("0z1a")
    assert str(err.value) == "symbol 'z' of '0z1a' is not in alphabet Alphabet('01')"
