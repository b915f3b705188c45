import random
from math import gcd

import pytest

from occlang import automata, interlace
from occlang import (
    Alphabet,
    Method,
    avoider_automaton,
    border_lengths,
    count_occurrences,
    decide_regularity,
    enumerate_bordered,
    in_b_x,
    in_class_a,
    interlaced,
    is_interlaced_by,
    shortest_accepted,
)
from occlang.cli import main
from occlang.errors import (
    AlphabetNotBinaryError,
    EmptyPatternError,
    NotInClassAError,
)

from helpers import BIN, TERN, UNARY, nonempty_words_upto, reference_certificate_problems, words_upto


def _is_bordered(z, y):
    return z != y and z.startswith(y) and z.endswith(y)


def test_avoider_language_examples():
    # every 000100-bordered word contains 1000, so that avoider is empty ...
    assert shortest_accepted(avoider_automaton("000100", "1000", BIN)) is None
    assert all("1000" in z for z in enumerate_bordered("000100", BIN, 14))

    # ... while some 1000-bordered word avoids 000100 (the swapped roles)
    w = shortest_accepted(avoider_automaton("1000", "000100", BIN))
    assert w == "100011000"
    assert _is_bordered(w, "1000") and "000100" not in w
    assert any("000100" not in z for z in enumerate_bordered("1000", BIN, len(w)))

    # every 01-bordered binary word contains 10
    assert shortest_accepted(avoider_automaton("01", "10", BIN)) is None
    assert all("10" in z for z in enumerate_bordered("01", BIN, 16))

    # but not over three symbols
    assert shortest_accepted(avoider_automaton("01", "10", TERN)) == "01201"


def test_avoider_accepts_the_x_bordered_words_avoiding_y():
    for alphabet, bound, length in [(BIN, 3, 9), (TERN, 2, 6)]:
        words = list(nonempty_words_upto(alphabet, bound))
        for x in words:
            bordered = enumerate_bordered(x, alphabet, length)
            for y in words:
                aut = avoider_automaton(x, y, alphabet)
                accepted = [z for z in words_upto(alphabet, length) if aut.accepts(z)]
                assert accepted == [z for z in bordered if y not in z], (x, y)


def test_avoider_state_bound():
    for x, y in [("1000", "000100"), ("10", "01"), ("111", "0")]:
        aut = avoider_automaton(y, x, BIN)
        assert aut.state_count <= (len(x) + 1) * (2 * len(y) + 3)


def test_is_interlaced_by_examples():
    assert is_interlaced_by("000100", "1000", BIN).holds

    verdict = is_interlaced_by("01", "10", TERN)
    assert not verdict.holds
    assert verdict.witness == "01201"
    assert verdict.method is Method.GENERAL_AUTOMATON

    assert is_interlaced_by("a", "a", UNARY).holds

    with pytest.raises(EmptyPatternError):
        is_interlaced_by("", "a", UNARY)


def test_fast_single_letter_examples():
    # 10 inside 01t01 fails exactly at t=2
    assert "10" in "01" + "0" + "01"
    assert "10" in "01" + "1" + "01"
    assert "10" not in "01" + "2" + "01"
    verdict = interlaced("01", "10", TERN)
    assert not verdict.holds and verdict.witness == "01201"
    assert verdict.method is Method.SINGLE_LETTER

    # a single letter occurring in y survives any padding
    verdict = interlaced("010", "0", TERN)
    assert verdict.holds and verdict.method is Method.SINGLE_LETTER


def test_fast_single_letter_agrees_with_general_method():
    for x in nonempty_words_upto(TERN, 2):
        for y in nonempty_words_upto(TERN, 2):
            fast = interlaced(y, x, TERN)
            general = shortest_accepted(avoider_automaton(y, x, TERN)) is None
            assert fast.method is Method.SINGLE_LETTER
            assert fast.holds == general


def test_fast_length_three_examples():
    verdict = interlaced("01001010", "10100", BIN)
    assert not verdict.holds and verdict.method is Method.LENGTH_THREE
    verdict = interlaced("0", "0", BIN)
    assert verdict.holds and verdict.method is Method.LENGTH_THREE


def test_fast_length_three_agrees_with_general_method_smoke():
    for x in nonempty_words_upto(BIN, 3):
        for y in nonempty_words_upto(BIN, 3):
            fast = interlaced(y, x, BIN)
            general = shortest_accepted(avoider_automaton(y, x, BIN)) is None
            assert fast.method is Method.LENGTH_THREE
            assert fast.holds == general


def test_three_is_optimal_for_the_remark_pair():
    x, y = "10100", "01001010"
    # x occurs in every y-bordered word of length <= 2|y| + 2 = 18 ...
    for z in enumerate_bordered(y, BIN, 18):
        assert x in z
    # ... yet the padding test of length 3 fails
    verdict = interlaced(y, x, BIN)
    assert not verdict.holds and verdict.method is Method.LENGTH_THREE


def test_in_class_a():
    assert in_class_a("0001")
    assert not in_class_a("10100")
    assert in_class_a("01")
    assert in_class_a("10")
    assert in_class_a("011")
    assert not in_class_a("0")
    assert not in_class_a("0110")
    with pytest.raises(AlphabetNotBinaryError):
        in_class_a("02")
    with pytest.raises(EmptyPatternError):
        in_class_a("")


def test_in_b_x_examples():
    assert in_b_x("0100", "001")
    assert not in_b_x("0010", "001")  # contains the pattern
    with pytest.raises(NotInClassAError):
        in_b_x("0100", "10100")


def test_in_b_x_matches_its_characterization():
    # y avoids x yet x occurs in every y-bordered word
    x = "001"
    for y in nonempty_words_upto(BIN, 6):
        expected = (
            count_occurrences(y, x) == 0
            and shortest_accepted(avoider_automaton(y, x, BIN)) is None
        )
        assert in_b_x(y, x) == expected


def test_in_b_x_all_four_shapes():
    cases = {
        "001": "0100",     # shape 0^k 1
        "100": "0010",     # shape 1 0^k
        "110": "1011",     # shape 1^k 0
        "011": "1101",     # shape 0 1^k
    }
    for x, y in cases.items():
        assert in_b_x(y, x)
        expected = (
            count_occurrences(y, x) == 0
            and shortest_accepted(avoider_automaton(y, x, BIN)) is None
        )
        assert expected


def test_dispatcher_routes_and_agrees():
    grids = [
        (BIN, 3, Method.LENGTH_THREE),
        (TERN, 2, Method.SINGLE_LETTER),
    ]
    for alphabet, bound, expected_method in grids:
        for x in nonempty_words_upto(alphabet, bound):
            for y in nonempty_words_upto(alphabet, bound):
                auto = interlaced(x, y, alphabet)
                general = is_interlaced_by(x, y, alphabet)
                assert (auto.holds, auto.witness) == (general.holds, general.witness)
                assert auto.method is expected_method
                assert general.method is Method.GENERAL_AUTOMATON


def test_dispatcher_unary_uses_the_walk():
    verdict = interlaced("aa", "aaa", UNARY)
    assert verdict.method is Method.SINGLE_LETTER
    assert verdict.holds
    verdict = interlaced("aaa", "aaaaa", UNARY)
    assert verdict == (False, "aaaa", Method.SINGLE_LETTER)


def test_dispatcher_witnesses_are_valid():
    for alphabet, bound in [(BIN, 3), (TERN, 2)]:
        for x in nonempty_words_upto(alphabet, bound):
            for y in nonempty_words_upto(alphabet, bound):
                for decide in (interlaced, is_interlaced_by):
                    verdict = decide(x, y, alphabet)
                    if verdict.holds:
                        assert verdict.witness is None
                    else:
                        w = verdict.witness
                        assert _is_bordered(w, x) and count_occurrences(w, y) == 0
                        assert len(w) <= 2 * len(x) + 3


def test_nonbinary_two_symbol_alphabets_use_the_padding_test():
    ab = Alphabet("ab")
    verdict = interlaced("ab", "ba", ab)
    assert verdict.method is Method.LENGTH_THREE
    assert verdict.holds == is_interlaced_by("ab", "ba", ab).holds


def test_counting_inequality_when_interlaced():
    # if x is interlaced by y then every word has at least |t|_x - 1 copies of y
    pairs = []
    for x in nonempty_words_upto(BIN, 3):
        for y in nonempty_words_upto(BIN, 3):
            if is_interlaced_by(x, y, BIN).holds:
                pairs.append((x, y))
    assert pairs
    for x, y in pairs:
        for t in nonempty_words_upto(BIN, 8):
            assert count_occurrences(t, y) >= count_occurrences(t, x) - 1


def _walk_matches_the_automaton(x, y, alphabet):
    verdict = interlaced(x, y, alphabet)
    reference = is_interlaced_by(x, y, alphabet)
    assert (verdict.holds, verdict.witness) == (reference.holds, reference.witness), (
        x,
        y,
        alphabet.symbols,
    )
    return verdict.witness


def test_bordered_walk_matches_the_automaton_exhaustively():
    found = 0
    for alphabet, bound in [(BIN, 5), (TERN, 3), (Alphabet("ab"), 4), (UNARY, 6)]:
        words = list(nonempty_words_upto(alphabet, bound))
        # the paper's corollary, apart from the walk: over two or more symbols
        # the paddings of one length decide alone
        paddings = list(alphabet.words_of_length(3 if len(alphabet) == 2 else 1))
        for x in words:
            for y in words:
                witness = _walk_matches_the_automaton(x, y, alphabet)
                found += witness is not None
                if len(alphabet) >= 2:
                    assert (witness is None) == all(y in x + t + x for t in paddings), (x, y)
    assert found  # both outcomes occur


def test_bordered_walk_matches_the_automaton_on_periodic_pairs():
    rng = random.Random(5)
    for n in range(1, 31):
        for m in (n - 1, n + 1):
            if m:
                for alphabet in (BIN, TERN):
                    _walk_matches_the_automaton("0" * n, "0" * m, alphabet)
                    _walk_matches_the_automaton("0" * m, "0" * n, alphabet)
        _walk_matches_the_automaton(("01" * n)[:n], ("01" * 30)[: rng.randint(1, 30)], BIN)
    for _ in range(300):
        alphabet = rng.choice([BIN, TERN])
        base = "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 4)))
        x = (base * 30)[: rng.randint(1, 30)]
        y = (base * 30)[: rng.randint(1, 30)]
        if rng.random() < 0.5:
            y = y[:-1] + rng.choice(alphabet.symbols)
        _walk_matches_the_automaton(x, y, alphabet)


def test_bordered_walk_examples():
    assert interlaced("01", "10", TERN).witness == "01201"
    assert interlaced("01", "10", BIN).witness is None
    assert interlaced("1000", "000100", BIN).witness == "100011000"
    # the remark pair: no y-bordered word shorter than 2|y| + 3 avoids x
    assert _walk_matches_the_automaton("01001010", "10100", BIN) == "0100101011001001010"
    for x, y in [("01010010", "00101"), ("10101101", "11010"), ("10110101", "01011")]:
        assert len(_walk_matches_the_automaton(x, y, BIN)) == 2 * len(x) + 3
    # the overlap 0^(n+1) comes first; over one symbol it alone decides
    assert interlaced("000", "00000", BIN).witness == "0000"
    assert interlaced("aaa", "aaaa", UNARY).witness is None
    # p0 = 10, and the next period, 11 = |x| - p0 + 2, is the first that _overlaps' jump lets through
    x = "1" * 9 + "0" + "1" * 9
    assert _walk_matches_the_automaton(x, "0" + "1" * 9 + "0", BIN) == x[:11] + x
    with pytest.raises(EmptyPatternError):
        interlaced("", "0", BIN)


def _fine_wilf_extremal(p, q):
    """The binary word of p + q - 2 letters with the coprime periods p and q, starting with 0.

    By Fine and Wilf, steps of p and q join its positions into exactly two classes.
    """
    n = p + q - 2
    zeros, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in (i - p, i + p, i - q, i + q):
            if 0 <= j < n and j not in zeros:
                zeros.add(j)
                todo.append(j)
    return "".join("0" if i in zeros else "1" for i in range(n))


def test_bordered_walk_matches_the_automaton_on_structured_families():
    """Fine-Wilf extremal words, 0^a 1 0^a and its kin, and Fibonacci and Thue-Morse
    prefixes: long borders, which the random and periodic pairs rarely have.  The
    same families at up to 201 letters are crossed too, and for each non-regular
    pair among those the certificate is recounted in its whole words.

    _overlaps' jump past the periods that p0 divides skips a candidate only when
    p0 >= 10; below that the 7 periods tried one by one cover the jump's target.
    """

    def smallest_period(w):
        return next(p for p in range(1, len(w) + 1) if w.startswith(w[p:]))

    words = [_fine_wilf_extremal(p, q) for q in range(3, 20) for p in range(2, min(q, 16)) if gcd(p, q) == 1]
    for a in range(1, 12):
        words += ["0" * a + "1" + "0" * a, "1" + "0" * a + "1", "0" * a + "1", "1" + "0" * a]
    fibonacci, before = "01", "0"
    while len(fibonacci) < 199:
        fibonacci, before = fibonacci + before, fibonacci
    thue_morse = "".join(str(bin(i).count("1") % 2) for i in range(199))
    words += [w[:n] for w in (fibonacci, thue_morse) for n in range(2, 39, 3)]
    words = list(dict.fromkeys(words))
    assert (len(words), sum(smallest_period(w) >= 10 for w in words)) == (152, 53)
    for x in words:
        for y in words:
            _walk_matches_the_automaton(x, y, BIN)

    long_words = [_fine_wilf_extremal(34, 55), _fine_wilf_extremal(55, 89), "01" * 50 + "0", "01" * 80, "001" * 40]
    for a in (40, 70, 100):
        long_words += ["0" * a + "1" + "0" * a, "1" + "0" * a + "1", "0" * a + "1", "1" + "0" * a]
    long_words += [w[:n] for w in (fibonacci, thue_morse) for n in (80, 130, 199)]
    long_words = list(dict.fromkeys(long_words))
    assert (len(long_words), sum(smallest_period(w) >= 10 for w in long_words)) == (23, 20)
    assert max(map(len, long_words)) == 201
    witness = {(x, y): _walk_matches_the_automaton(x, y, BIN) for x in long_words for y in long_words}
    nonregular = [(x, y) for x, y in witness if witness[x, y] is not None and witness[y, x] is not None]
    assert len(nonregular) == 394
    for x, y in nonregular:
        cert = decide_regularity(x, y, BIN).certificate
        assert (cert.r, cert.s) == (witness[y, x], witness[x, y])
        assert reference_certificate_problems(cert, x, y) == [], (x, y)


def _border_chain_overlaps(x):
    """x[:p] + x for each period p of x, longest border first."""
    return [x[: len(x) - b] + x for b in reversed(border_lengths(x))]


def test_overlaps_follow_the_border_chain():
    """_overlaps is the border chain less the proper multiples of the smallest
    period, and for any y the first overlap avoiding y is the chain's first."""
    rng = random.Random(11)
    words = []
    for _ in range(3000):
        symbols = rng.choice(["01", "012", "ab"])
        n = rng.randint(2, 60)
        b = min(rng.choice([7, 8, 9, rng.randint(1, 20)]), n - 1)
        # a planted border of b letters; when 2b > n it overlaps itself, so the
        # word has the period n - b
        q = n - b if 2 * b > n else b
        head = "".join(rng.choice(symbols) for _ in range(q))
        middle = "".join(rng.choice(symbols) for _ in range(n - 2 * q)) if q == b else ""
        words.append(head + middle + head if q == b else (head * n)[:n])
    for n in list(range(1, 40)) + [199, 1000, 2000]:
        words += ["0" * n, ("01" * n)[:n], "a" * n]
    words += ["".join(rng.choice("01") for _ in range(60)) for _ in range(300)]
    planted = skipped = 0
    for x in words:
        chain = _border_chain_overlaps(x)
        got = list(interlace._overlaps(x))
        p0 = len(chain[0]) - len(x) if chain else 0
        assert got == [z for z in chain if z == chain[0] or (len(z) - len(x)) % p0], x
        skipped += len(chain) - len(got)
        for z in chain[:: max(len(chain) // 4, 1)]:
            # a factor of one overlap, so it occurs in some overlaps and maybe not in others
            i = rng.randrange(len(z))
            y = z[i : i + rng.randint(1, len(x) + 2)]
            first = next((w for w in chain if y not in w), None)
            assert next((w for w in got if y not in w), None) == first, (x, y)
        planted += any(len(z) - len(x) in (len(x) - 7, len(x) - 8, len(x) - 9) for z in got)
    assert skipped > 1000
    assert planted > 100  # borders of 7, 8 and 9 letters, either side of the 8-letter head


def test_walk_tries_one_overlap_of_a_unary_pattern(monkeypatch):
    """The overlaps of 0^n all contain 0^(n+1) once the first does, so the walk
    tries only the first and stays linear in n."""
    overlaps = interlace._overlaps
    tried = []

    def counted(x):
        for z in overlaps(x):
            tried.append(z)
            yield z

    monkeypatch.setattr(interlace, "_overlaps", counted)
    for n in (2, 7, 8, 9, 160, 2000):
        for alphabet, zero, witness in [(BIN, "0", "0" * n + "1" + "0" * n), (UNARY, "a", None)]:
            tried.clear()
            assert interlaced(zero * n, zero * (n + 1), alphabet).witness == witness
            assert tried == [zero * (n + 1)], (n, alphabet)


def test_a_factor_of_x_holds_with_no_candidate(monkeypatch):
    """Fact 1: if y is a factor of x, every x-bordered word contains x, hence y,
    so interlaced answers before it builds any candidate."""
    tried = []

    def counted(generator):
        def wrapped(*args):
            for z in generator(*args):
                tried.append(z)
                yield z

        return wrapped

    monkeypatch.setattr(interlace, "_overlaps", counted(interlace._overlaps))
    monkeypatch.setattr(interlace, "_padded", counted(interlace._padded))
    pairs = []
    for n in (40, 80, 160):  # the family pairs of the dfa-regular benchmark pool
        pairs += [("0" * n, "0" * (n - 1), BIN), ("0" * n + "1", "01", BIN), ("0" * n, "0" * (n // 2), TERN)]
    rng = random.Random("dfa-regular/1")  # its four factor pairs, drawn as for seed 1
    for symbols in ("01", "01", "012", "012"):
        w = "".join(rng.choice(symbols) for _ in range(140))
        start = rng.randrange(126)
        pairs.append((w, w[start : start + 14], Alphabet(symbols)))
    pairs.append(("0" * 3999 + "1", "0" * 3998 + "1", BIN))
    for x, y, alphabet in pairs:
        method = Method.LENGTH_THREE if len(alphabet.symbols) == 2 else Method.SINGLE_LETTER
        assert interlaced(x, y, alphabet) == (True, None, method)
    assert tried == []


def test_no_decision_path_builds_an_automaton(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("an automaton was built on a decision path")

    for name in ("avoider_automaton", "is_interlaced_by", "combine", "shortest_accepted"):
        monkeypatch.setattr(interlace, name, forbidden)
    monkeypatch.setattr(automata, "combine", forbidden)
    for alphabet, bound in [(BIN, 4), (TERN, 3), (UNARY, 5)]:
        words = list(nonempty_words_upto(alphabet, bound))
        symbols = "".join(alphabet.symbols)
        for x in words:
            for y in words:
                decide_regularity(x, y, alphabet)
                verdict = interlaced(x, y, alphabet)
                assert main(["witness", x, y, "--alphabet", symbols]) == 0
                assert capsys.readouterr().out.strip() == (verdict.witness or "none")
