import ast
import json
import sys
import tracemalloc

import pytest

from occlang import (
    Alphabet,
    Dfa,
    Relation,
    bounded_census,
    bounded_equal_census,
    bounded_equivalence,
    build_comparison_dfa,
    complement,
    count_occurrences,
    counter_membership,
    enumerate_bordered,
    grafted_bordered_automaton,
    is_bordered,
)
from occlang import automata, cli, oracle, regularity
from occlang.errors import BudgetExceededError, EmptyPatternError

from helpers import BIN, TERN, UNARY, nonempty_words_upto, scan_count, words_upto


def test_oracle_imports_nothing_it_checks():
    """Of the library, the oracle takes only the records it reads and its errors."""
    with open(oracle.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    taken: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            taken.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            assert not any(m.split(".")[0] == "occlang" for m in modules), modules
    assert taken == {
        "automata": {"Dfa"},
        "errors": {"BudgetExceededError", "EmptyPatternError"},
        "regularity": {"Relation"},
        "words": {"Alphabet", "Word", "border_lengths"},
    }


def test_counter_membership_examples():
    assert counter_membership("0110", "01", "10", Relation.EQ)
    assert counter_membership("", "01", "10", Relation.EQ)
    assert not counter_membership("01", "01", "10", Relation.LT)
    with pytest.raises(EmptyPatternError):
        counter_membership("01", "", "10", Relation.EQ)


def test_counter_membership_matches_direct_counts():
    pairs = [("01", "10"), ("0011", "1100"), ("0", "11"), ("00", "11")]
    for x, y in pairs:
        for rel in Relation:
            for z in words_upto(BIN, 10):
                expect = rel.holds(count_occurrences(z, x), count_occurrences(z, y))
                assert counter_membership(z, x, y, rel) == expect


def test_bounded_census_members():
    report = bounded_census("01", "10", BIN, Relation.EQ, 4)
    for w in ["", "0", "1", "00", "11", "010", "101", "0110"]:
        assert w in report.members
    expected = [
        z
        for z in words_upto(BIN, 4)
        if count_occurrences(z, "01") == count_occurrences(z, "10")
    ]
    assert list(report.members) == expected
    assert report.per_length_counts == (1, 2, 2, 4, 8)
    assert sum(report.per_length_counts) == len(expected)


def test_bounded_census_counts_everything_for_equal_patterns():
    report = bounded_census("0", "0", BIN, Relation.EQ, 6, member_limit=0)
    assert report.per_length_counts == tuple(2**n for n in range(7))
    assert report.members is None


def test_bounded_census_budget():
    with pytest.raises(BudgetExceededError):
        bounded_census("01", "10", BIN, Relation.EQ, 17)


def test_census_has_no_recursion_depth_limit():
    # one word per length over one symbol: a recursive walk would need 5000 frames
    report = bounded_census("a", "aa", UNARY, Relation.EQ, 5000)
    assert report.per_length_counts == (1,) + (0,) * 5000
    assert report.members == ("",)
    # |a^n|_a = n > n - 1 = |a^n|_aa for every n >= 1
    greater = bounded_census("a", "aa", UNARY, Relation.GT, 5000, member_limit=0)
    assert greater.per_length_counts == (0,) + (1,) * 5000
    equal = bounded_equal_census(["a", "aa"], UNARY, 5000)
    assert equal.per_length_counts == (1,) + (0,) * 5000 and equal.members == ("",)


def test_census_keeps_no_members_past_the_limit():
    def peak(rel):
        tracemalloc.start()
        try:
            report = bounded_census("a", "aa", UNARY, rel, 5000, member_limit=0)
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    greater, greater_peak = peak(Relation.GT)
    equal, equal_peak = peak(Relation.EQ)
    assert greater.members is None and equal.members is None
    # GT has 5000 members of 2500 letters on average, EQ one; neither list is kept
    assert greater_peak <= 2 * equal_peak, (greater_peak, equal_peak)
    # at the limit the members are all kept, in length-lexicographic order; past it none are
    small = bounded_census("0", "1", BIN, Relation.LT, 3, member_limit=6)
    assert small.members == ("1", "11", "011", "101", "110", "111")
    assert bounded_census("0", "1", BIN, Relation.LT, 3, member_limit=5).members is None


def _census_by_scan(words, counts, member):
    """The census of a word list by its scanned per-pattern counts, in list order."""
    members = tuple(z for z, c in zip(words, zip(*counts)) if member(c))
    per_length = [0] * (len(words[-1]) + 1)
    for z in members:
        per_length[len(z)] += 1
    return tuple(per_length), members


def test_census_matches_a_scan_of_every_word():
    for alphabet, pattern_length, max_length in [(BIN, 3, 6), (TERN, 2, 4)]:
        words = list(words_upto(alphabet, max_length))
        patterns = list(nonempty_words_upto(alphabet, pattern_length))
        scans = {p: [scan_count(z, p) for z in words] for p in patterns}
        for x in patterns:
            for y in patterns:
                for rel in Relation:
                    got = bounded_census(x, y, alphabet, rel, max_length, member_limit=10**6)
                    want = _census_by_scan(words, [scans[x], scans[y]], lambda c: rel.holds(*c))
                    assert (got.per_length_counts, got.members) == want, (x, y, rel)
    words = list(words_upto(TERN, 6))
    for triple in [("0", "1", "01"), ("01", "10", "11"), ("0", "00", "000"), ("0", "1", "2")]:
        got = bounded_equal_census(list(triple), TERN, 6, member_limit=10**6)
        counts = [[scan_count(z, p) for z in words] for p in triple]
        want = _census_by_scan(words, counts, lambda c: len(set(c)) == 1)
        assert (got.per_length_counts, got.members) == want, triple


def test_census_rejects_negative_lengths():
    with pytest.raises(ValueError):
        bounded_census("0", "1", BIN, Relation.EQ, -1)
    with pytest.raises(ValueError):
        bounded_equal_census(["0", "1"], BIN, -1)


def test_bounded_census_is_deterministic():
    a = bounded_census("01", "10", BIN, Relation.LE, 8)
    b = bounded_census("01", "10", BIN, Relation.LE, 8)
    assert a == b


def test_census_json_document():
    report = bounded_census("01", "10", BIN, Relation.EQ, 3)
    doc = report.to_json_dict()
    assert doc == {"max_length": 3, "counts": [1, 2, 2, 4], "members": list(report.members)}
    no_members = bounded_census("01", "10", BIN, Relation.EQ, 3, member_limit=0)
    assert "members" not in no_members.to_json_dict()


def test_multi_pattern_census_small():
    report = bounded_equal_census(["0", "1", "00", "11"], BIN, 8)
    assert report.members == ("",)


def test_bounded_equivalence_examples():
    figure = build_comparison_dfa("01", "10", BIN, Relation.EQ)
    assert bounded_equivalence(figure, "01", "10", Relation.EQ, 12) is None
    assert bounded_equivalence(complement(figure), "01", "10", Relation.EQ, 12) == ""

    le = build_comparison_dfa("01", "10", BIN, Relation.LE)
    gt_oracle_disagrees = bounded_equivalence(le, "01", "10", Relation.GT, 6)
    assert gt_oracle_disagrees == ""  # LE machine vs GT oracle differ already at epsilon
    # complement coherence: the LE machine is the complement of the GT oracle
    assert bounded_equivalence(complement(le), "01", "10", Relation.GT, 10) is None


def test_bounded_equivalence_returns_first_mismatch_in_length_lex_order():
    ends_one = complement(
        build_comparison_dfa("01", "10", BIN, Relation.EQ)
    )
    first = bounded_equivalence(ends_one, "01", "10", Relation.EQ, 8)
    brute = next(
        w
        for w in words_upto(BIN, 8)
        if ends_one.accepts(w) != counter_membership(w, "01", "10", Relation.EQ)
    )
    assert first == brute


def test_bounded_equivalence_matches_a_search_of_every_word():
    """Each DFA checked against other pairs' counts, so mismatches share lengths above 0."""
    pairs = [("01", "10"), ("0", "101"), ("00", "000"), ("01", "010")]
    dfas = [build_comparison_dfa(x, y, BIN, rel) for x, y in pairs for rel in (Relation.EQ, Relation.LT)]
    words = list(words_upto(BIN, 6))
    found = set()
    for dfa in dfas:
        for x, y in pairs:
            for rel in Relation:
                want = next(
                    (z for z in words if dfa.accepts(z) != rel.holds(scan_count(z, x), scan_count(z, y))),
                    None,
                )
                assert bounded_equivalence(dfa, x, y, rel, 6) == want, (dfa, x, y, rel)
                found.add(want)
    # first mismatches that come after agreeing words of their own length
    assert {"01", "10", "101"} <= found


def test_bounded_equivalence_has_no_recursion_depth_limit():
    # one word per length over one symbol: a recursive sweep would need 5000 frames
    dfa = build_comparison_dfa("a", "aa", UNARY, Relation.EQ)
    assert bounded_equivalence(dfa, "a", "aa", Relation.EQ, 5000) is None
    # accepts only a^4999, where |z|_a < |z|_aa fails like everywhere else
    chain = tuple((min(i + 1, 5000),) for i in range(5001))
    late = Dfa(UNARY, chain, 0, frozenset({4999}))
    assert bounded_equivalence(late, "a", "aa", Relation.LT, 5000) == "a" * 4999
    assert bounded_equivalence(late, "a", "aa", Relation.LT, 4998) is None


def test_bounded_equivalence_budget():
    figure = build_comparison_dfa("01", "10", BIN, Relation.EQ)
    # 2^17 - 1 words up to length 16 fit the default budget; length 40 does not
    assert bounded_equivalence(figure, "01", "10", Relation.EQ, 16) is None
    with pytest.raises(BudgetExceededError):
        bounded_equivalence(figure, "01", "10", Relation.EQ, 17)
    with pytest.raises(BudgetExceededError):
        bounded_equivalence(figure, "01", "10", Relation.EQ, 40)
    with pytest.raises(BudgetExceededError):
        bounded_equivalence(figure, "01", "10", Relation.EQ, 10**6)
    # the budget counts words, so over one symbol the sweep reaches length 2^17 - 1
    everything = build_comparison_dfa("a", "a", UNARY, Relation.EQ)
    assert bounded_equivalence(everything, "a", "a", Relation.EQ, 2**17 - 1) is None
    with pytest.raises(BudgetExceededError):
        bounded_equivalence(everything, "a", "a", Relation.EQ, 2**17)
    with pytest.raises(ValueError):
        bounded_equivalence(figure, "01", "10", Relation.EQ, -1)


# Per alphabet, the longest length whose words, all lengths up to it, number at most 2^17.
_WORD_LIMITS = [(UNARY, 2**17 - 1), (BIN, 16), (TERN, 10), (Alphabet("0123"), 8)]


@pytest.mark.parametrize("alphabet, limit", _WORD_LIMITS, ids=["1", "2", "3", "4"])
def test_censuses_and_sweeps_share_one_word_budget(alphabet, limit):
    k, p = len(alphabet), alphabet.symbols[0]
    levels = tuple(k**n for n in range(limit + 1))
    assert sum(levels) <= 2**17 < sum(levels) + k ** (limit + 1)
    # with x = y every word is counted, and the DFA accepts every word
    census = bounded_census(p, p, alphabet, Relation.EQ, limit, member_limit=0)
    assert census.per_length_counts == levels
    everything = build_comparison_dfa(p, p, alphabet, Relation.EQ)
    assert bounded_equivalence(everything, p, p, Relation.EQ, limit) is None
    with pytest.raises(BudgetExceededError, match="census"):
        bounded_census(p, p, alphabet, Relation.EQ, limit + 1)
    with pytest.raises(BudgetExceededError, match="equivalence sweep"):
        bounded_equivalence(everything, p, p, Relation.EQ, limit + 1)


def test_bounded_equivalence_rejects_empty_patterns():
    # the verdict must not depend on the DFA: f rejects epsilon for EQ, its complement accepts it
    f = build_comparison_dfa("01", "10", BIN, Relation.EQ)
    for dfa in (f, complement(f)):
        for x, y in (("", "10"), ("01", ""), ("", "")):
            for max_length in (0, 5):
                with pytest.raises(EmptyPatternError):
                    bounded_equivalence(dfa, x, y, Relation.EQ, max_length)


# Regular binary pairs whose comparison DFAs come out wrong when the KMP
# matcher forgets overlaps after a match.
_OVERLAP_PAIRS = [("0", "101"), ("1", "010"), ("00", "000"), ("01", "010"), ("01", "101")]


@pytest.fixture
def forgetful_matcher(monkeypatch):
    """Installs, when called, a matcher that forgets overlaps after each match.

    Its last row is row 0, so after "00" the matcher for "00" needs two more
    zeros.  It replaces matcher_automaton at every occlang module-global
    binding; the memoized synthesis is cleared on both sides of the test.
    """
    real = automata.matcher_automaton

    def forgetful(p, alphabet):
        m = real(p, alphabet)
        return m._replace(transitions=m.transitions[:-1] + m.transitions[:1])

    def install():
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "occlang" or name.startswith("occlang.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, forgetful)

    regularity._synthesis.cache_clear()
    yield install
    monkeypatch.undo()
    regularity._synthesis.cache_clear()


def test_validate_catches_a_matcher_that_forgets_overlaps(forgetful_matcher, capsys):
    forgetful_matcher()
    for x, y in _OVERLAP_PAIRS:
        argv = ["validate", x, y, "--alphabet", "01", "--max-len", "8", "--json"]
        cli.main(argv)
        checks = json.loads(capsys.readouterr().out)["checks"]
        failed = [c["name"] for c in checks if not c["pass"]]
        assert any(name.startswith("dfa-oracle-") for name in failed), (x, y, failed)


def test_oracle_answers_do_not_depend_on_the_matcher(forgetful_matcher):
    relations = (Relation.EQ, Relation.LT, Relation.LE)
    # built before the fault, so every answer below should be the same with it
    built = [build_comparison_dfa(x, y, BIN, rel) for x, y in _OVERLAP_PAIRS for rel in relations]
    dfas = built + [complement(dfa) for dfa in built]

    def answers():
        return [
            (
                [counter_membership(z, x, y, Relation.LT) for z in words_upto(BIN, 8)],
                bounded_census(x, y, BIN, Relation.EQ, 8),
                [bounded_equivalence(dfa, x, y, rel, 8) for rel in relations for dfa in dfas],
            )
            for x, y in _OVERLAP_PAIRS
        ]

    honest = answers()
    forgetful_matcher()
    assert answers() == honest


def test_oracle_answers_do_not_depend_on_relation_holds(monkeypatch):
    dfas = [build_comparison_dfa("01", "10", BIN, rel) for rel in Relation]

    def answers():
        return (
            [counter_membership(z, "01", "10", rel) for z in words_upto(BIN, 6) for rel in Relation],
            [bounded_census("01", "10", BIN, rel, 6) for rel in Relation],
            [bounded_equivalence(dfa, "01", "10", rel, 6) for dfa, rel in zip(dfas, Relation)],
        )

    honest = answers()
    assert counter_membership("01", "01", "10", Relation.LT) is False
    # a wrong comparison: every relation reads as ">="
    monkeypatch.setattr(Relation, "holds", lambda self, a, b: a >= b)
    assert Relation.LT.holds(1, 0)
    assert answers() == honest


def test_enumerate_bordered_examples():
    assert "alfalfa" in enumerate_bordered("alfa", Alphabet("alf"), 7)
    assert enumerate_bordered("01", BIN, 4) == ["0101"]
    assert enumerate_bordered("aa", UNARY, 4) == ["aaa", "aaaa"]
    with pytest.raises(EmptyPatternError):
        enumerate_bordered("", BIN, 4)


def test_enumerate_bordered_budget(monkeypatch):
    # every 0-bordered binary word up to length 18 fits: 2^17 - 1 words, 2228224 letters
    assert len(enumerate_bordered("0", BIN, 18)) == 2**17 - 1

    def never(self, length):
        raise AssertionError("words were built past the budget")

    monkeypatch.setattr(Alphabet, "words_of_length", never)
    # length 19 adds 19 * 2^17 letters; length 60 would mean about 2^59 words
    for y, alphabet, max_length in (("0", BIN, 19), ("0", BIN, 60), ("a", UNARY, 10**9)):
        with pytest.raises(BudgetExceededError):
            enumerate_bordered(y, alphabet, max_length)
    # over one symbol the words grow with max_length, so the budget counts letters
    with pytest.raises(BudgetExceededError):
        enumerate_bordered("a", UNARY, 2897)


def test_enumerate_bordered_matches_classification():
    for y in nonempty_words_upto(BIN, 4):
        expected = [z for z in words_upto(BIN, 10) if is_bordered(z, y)]
        got = enumerate_bordered(y, BIN, 10)
        assert got == expected


def test_enumerate_bordered_matches_grafted_automaton():
    for y in nonempty_words_upto(BIN, 4):
        aut = grafted_bordered_automaton(y, BIN)
        members = set(enumerate_bordered(y, BIN, 10))
        for z in words_upto(BIN, 10):
            assert aut.accepts(z) == (z in members)
