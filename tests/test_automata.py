import random

import numpy as np
import pytest

from occlang import (
    Alphabet,
    Dfa,
    Relation,
    build_comparison_dfa,
    combine,
    complement,
    count_occurrences,
    from_json,
    grafted_bordered_automaton,
    is_bordered,
    matcher_automaton,
    minimize,
    serialize,
    shortest_accepted,
)
from occlang.errors import AlphabetMismatchError, EmptyPatternError, ForeignSymbolError, MalformedJsonError

from helpers import (
    BIN,
    TERN,
    containing,
    level_acceptance,
    level_mark_counts,
    naive_minimize,
    nonempty_words_upto,
    tracker_dfa,
    word_from_index,
    words_upto,
)

AB = Alphabet("ab")


def _entries(m, w):
    """How many times the run of m over w enters an accepting state."""
    entries, state = 0, m.start
    for ch in w:
        state = m.transitions[state][m.alphabet.index(ch)]
        entries += state in m.accepting
    return entries


def test_matcher_counting_examples():
    m = matcher_automaton("ab", AB)
    assert m.state_count == 3
    assert _entries(m, "abab") == count_occurrences("abab", "ab") == 2

    m = matcher_automaton("1000", BIN)
    assert _entries(m, "0001000") == count_occurrences("0001000", "1000") == 1

    m = matcher_automaton("aa", Alphabet("a"))
    assert _entries(m, "aaaa") == count_occurrences("aaaa", "aa") == 3


def test_matcher_absorbing_accepts_containment():
    m = containing("a", Alphabet("a"))
    assert not m.accepts("")
    assert all(m.accepts("a" * n) for n in range(1, 6))

    m = containing("10", BIN)
    for w in words_upto(BIN, 8):
        assert m.accepts(w) == ("10" in w)


def test_matcher_suffix_only():
    m = matcher_automaton("10", BIN)
    for w in words_upto(BIN, 8):
        assert m.accepts(w) == w.endswith("10")


def test_matcher_rejects_bad_input():
    with pytest.raises(EmptyPatternError):
        matcher_automaton("", BIN)
    with pytest.raises(ForeignSymbolError):
        matcher_automaton("abc", BIN)


def _longest_prefix_suffix(w, p):
    """Length of the longest suffix of w that is a prefix of p, by brute force."""
    return max(j for j in range(min(len(w), len(p)) + 1) if w.endswith(p[:j]))


@pytest.mark.parametrize("alphabet, max_len", [(BIN, 6), (TERN, 4)])
def test_matcher_rows_match_their_definition(alphabet, max_len):
    for p in nonempty_words_upto(alphabet, max_len):
        m = len(p)
        expected = [
            tuple(_longest_prefix_suffix(p[:i] + a, p) for a in alphabet.symbols)
            for i in range(m)
        ]
        # after a full match the next state is the longest prefix of p ending p[1:] + a
        expected.append(tuple(_longest_prefix_suffix(p[1:] + a, p) for a in alphabet.symbols))
        matcher = matcher_automaton(p, alphabet)
        assert matcher.transitions == tuple(expected), p
        assert matcher.start == 0 and matcher.accepting == frozenset({m}), p


def test_matcher_counting_matches_occurrences_exhaustively():
    # all |p| <= 4, counting entries into state |p| over every binary word of length <= 12
    max_len = 12
    for p in nonempty_words_upto(BIN, 4):
        m = matcher_automaton(p, BIN)
        by_level = level_mark_counts(m, max_len)
        # spot checks pin the level indexing; the full comparison is vectorized
        for length, counts in enumerate(by_level):
            for idx in (0, len(counts) // 2, len(counts) - 1):
                w = word_from_index(BIN, length, idx)
                assert counts[idx] == count_occurrences(w, p)
        flat = np.concatenate(by_level)
        expect = np.array(
            [
                count_occurrences(w, p)
                for w in words_upto(BIN, max_len)
            ],
            dtype=np.int64,
        )
        assert np.array_equal(flat, expect)


def test_grafted_examples():
    g = grafted_bordered_automaton("01", BIN)
    assert g.state_count == 7
    assert shortest_accepted(g) == "0101"
    assert not g.accepts("010") and not g.accepts("011")

    g = grafted_bordered_automaton("a", Alphabet("a"))
    assert g.state_count == 5
    for k in range(8):
        assert g.accepts("a" * k) == (k >= 2)

    g = grafted_bordered_automaton("alfa", Alphabet("alf"))
    assert g.state_count == 2 * 4 + 3
    assert g.accepts("alfalfa")


def test_grafted_state_count_and_membership_exhaustively():
    for y in nonempty_words_upto(BIN, 4):
        g = grafted_bordered_automaton(y, BIN)
        assert g.state_count == 2 * len(y) + 3
        for z in words_upto(BIN, 10):
            assert g.accepts(z) == is_bordered(z, y)


def _starts_with_zero():
    # 0 Sigma* over {0,1}: hand-built three-state machine
    return Dfa(BIN, ((1, 2), (1, 1), (2, 2)), 0, frozenset({1}))


def test_combine_examples():
    ends_zero = matcher_automaton("0", BIN)
    both = combine(ends_zero, _starts_with_zero())
    assert both.accepts("00") and not both.accepts("01")

    everything = Dfa(BIN, ((0, 0),), 0, frozenset({0}))
    nothing = combine(everything, complement(everything))
    assert shortest_accepted(nothing) is None

    avoid = combine(
        grafted_bordered_automaton("01", BIN),
        complement(containing("10", BIN)),
    )
    assert shortest_accepted(avoid) is None
    # cross-check: every 01-bordered word up to length 10 contains 10
    for z in words_upto(BIN, 10):
        if is_bordered(z, "01"):
            assert "10" in z


def test_combine_rejects_mismatched_alphabets():
    with pytest.raises(AlphabetMismatchError):
        combine(matcher_automaton("0", BIN), matcher_automaton("a", AB))


def test_combine_and_complement_membership():
    machines = {
        "contains 10": containing("10", BIN),
        "ends in 0": matcher_automaton("0", BIN),
        "01-bordered": grafted_bordered_automaton("01", BIN),
    }
    for a in machines.values():
        for b in machines.values():
            both = combine(a, b)
            diff = combine(a, complement(b))
            for w in words_upto(BIN, 10):
                assert both.accepts(w) == (a.accepts(w) and b.accepts(w))
                assert diff.accepts(w) == (a.accepts(w) and not b.accepts(w))
    for a in machines.values():
        c = complement(a)
        cc = complement(c)
        for w in words_upto(BIN, 10):
            assert c.accepts(w) != a.accepts(w)
            assert cc.accepts(w) == a.accepts(w)


def test_complement_examples():
    only_ones = complement(containing("0", BIN))
    for w in words_upto(BIN, 8):
        assert only_ones.accepts(w) == ("0" not in w)

    figure = build_comparison_dfa("01", "10", BIN, Relation.EQ)
    assert figure.accepts("")
    assert not complement(figure).accepts("")


def test_minimize_figure_one_size():
    figure = minimize(build_comparison_dfa("01", "10", BIN, Relation.EQ))
    assert figure.state_count == 5


def test_minimize_idempotent_and_membership_preserving():
    subjects = [
        grafted_bordered_automaton("010", BIN),
        containing("0110", BIN),
        combine(
            grafted_bordered_automaton("01", BIN),
            complement(containing("110", BIN)),
        ),
    ]
    for a in subjects:
        small = minimize(a)
        assert small.state_count <= a.state_count
        again = minimize(small)
        assert again == small
        for w in words_upto(BIN, 10):
            assert small.accepts(w) == a.accepts(w)


def test_minimize_merges_equivalent_states():
    # two redundant copies of an accept-everything state
    bloated = Dfa(BIN, ((1, 2), (2, 1), (1, 2)), 0, frozenset({0, 1, 2}))
    assert minimize(bloated).state_count == 1


def _trackers():
    """Unminimized difference trackers, each for an x interlaced by y."""
    rng = random.Random(2012)
    w = "".join(rng.choice("012") for _ in range(30))
    return [
        tracker_dfa("0" * 12, "0" * 11, BIN, Relation.EQ),
        tracker_dfa("0" * 9 + "1", "01", BIN, Relation.LE),
        tracker_dfa("000100", "1000", BIN, Relation.LT),
        tracker_dfa("0" * 8, "0000", TERN, Relation.EQ),
        tracker_dfa(w, w[11:14], TERN, Relation.LE),
    ]


def test_minimize_numbering_ignores_state_names():
    rng = random.Random(1971)
    for a in _trackers():
        new_name = list(range(a.state_count))
        rng.shuffle(new_name)
        rows = [()] * a.state_count
        for s, row in enumerate(a.transitions):
            rows[new_name[s]] = tuple(new_name[t] for t in row)
        permuted = Dfa(
            a.alphabet,
            tuple(rows),
            new_name[a.start],
            frozenset(new_name[s] for s in a.accepting),
        )
        assert permuted != a
        assert minimize(permuted) == minimize(a)


def test_minimize_ignores_unreachable_states():
    for a in _trackers():
        n, k = a.state_count, len(a.alphabet)
        # an accepting copy of every state and a state leading into a, none reachable
        rows = a.transitions + tuple(tuple(n + t for t in row) for row in a.transitions)
        unreachable = frozenset(range(n, 2 * n + 1))
        padded = Dfa(a.alphabet, rows + ((a.start,) * k,), a.start, a.accepting | unreachable)
        assert minimize(padded) == minimize(a)
        only_reachable = Dfa(a.alphabet, padded.transitions, a.start, frozenset(range(n)))
        assert minimize(only_reachable) == Dfa(a.alphabet, ((0,) * k,), 0, frozenset({0}))
        only_unreachable = Dfa(a.alphabet, padded.transitions, a.start, unreachable)
        assert minimize(only_unreachable) == Dfa(a.alphabet, ((0,) * k,), 0, frozenset())
        # an unreachable exact copy numbered first, so a block's first state may be unreachable
        rows = a.transitions + tuple(tuple(n + t for t in row) for row in a.transitions)
        copied = Dfa(a.alphabet, rows, n + a.start, a.accepting | {n + s for s in a.accepting})
        assert minimize(copied) == minimize(a)


def test_minimize_single_block():
    for a in _trackers():
        loop = ((0,) * len(a.alphabet),)
        everything = Dfa(a.alphabet, a.transitions, a.start, frozenset(range(a.state_count)))
        assert minimize(everything) == Dfa(a.alphabet, loop, 0, frozenset({0}))
        nothing = Dfa(a.alphabet, a.transitions, a.start, frozenset())
        assert minimize(nothing) == Dfa(a.alphabet, loop, 0, frozenset())


def test_minimize_keeps_minimal_dfas():
    for a in _trackers():
        small = minimize(a)
        assert small.state_count < a.state_count
        assert naive_minimize(small) == small
        assert minimize(small) == small
    for rel in Relation:
        dfa = build_comparison_dfa("000100", "1000", BIN, rel)
        assert minimize(dfa) == dfa


def _random_dfa(rng):
    """1-25 states over 1-4 symbols, any start; some states unreachable, at times all or none accepting."""
    n, k = rng.randint(1, 25), rng.randint(1, 4)
    # successors drawn from a prefix of the states leave the rest unreachable, unless the start is there
    span = rng.choice([n, n, rng.randint(1, n)])
    rows = tuple(tuple(rng.randrange(span) for _ in range(k)) for _ in range(n))
    share = rng.choice([0.0, 1.0, rng.random(), rng.random()])
    accepting = frozenset(s for s in range(n) if rng.random() < share)
    return Dfa(Alphabet("0123"[:k]), rows, rng.randrange(n), accepting)


def test_minimize_matches_a_naive_reference():
    """minimize and Moore refinement give the same JSON on random DFAs and on trackers
    whose states mostly have no predecessor on some symbol."""
    rng = random.Random(1971)
    subjects = [_random_dfa(rng) for _ in range(6000)]
    for n in (2, 3, 8, 9, 40, 81, 160):
        for rel in Relation:
            subjects.append(tracker_dfa("0" * n, "0" * (n // 2), TERN, rel))
    for a in subjects:
        assert serialize(minimize(a), "json") == serialize(naive_minimize(a), "json"), a
    sizes = {minimize(a).state_count for a in subjects}
    assert {1, 2} < sizes and max(sizes) >= 20


def test_shortest_accepted_examples():
    empty = Dfa(BIN, ((0, 0),), 0, frozenset())
    assert shortest_accepted(empty) is None

    assert shortest_accepted(grafted_bordered_automaton("01", BIN)) == "0101"
    brute = [
        z
        for z in words_upto(BIN, 4)
        if is_bordered(z, "01")
    ]
    assert brute == ["0101"]

    accepts_everything = Dfa(BIN, ((0, 0),), 0, frozenset({0}))
    assert shortest_accepted(accepts_everything) == ""


def test_shortest_accepted_is_length_lex_minimal():
    machines = [
        grafted_bordered_automaton("010", BIN),
        containing("110", BIN),
        complement(containing("0", BIN)),
    ]
    for a in machines:
        found = shortest_accepted(a)
        brute = next((w for w in words_upto(BIN, 8) if a.accepts(w)), None)
        assert found == brute
        if found is not None:
            assert len(found) < a.state_count


def test_json_round_trip_is_byte_identical():
    subjects = [
        matcher_automaton("0110", BIN),
        grafted_bordered_automaton("alfa", Alphabet("alf")),
        build_comparison_dfa("01", "10", BIN, Relation.EQ),
    ]
    for a in subjects:
        text = serialize(a, "json")
        assert serialize(from_json(text), "json") == text
        assert from_json(text) == a


def test_json_reports_figure_one_state_count():
    import json

    doc = json.loads(serialize(build_comparison_dfa("01", "10", BIN, Relation.EQ), "json"))
    assert doc["state_count"] == 5


def test_from_json_rejects_malformed_documents():
    good = serialize(matcher_automaton("01", BIN), "json")
    import json

    doc = json.loads(good)
    broken = dict(doc)
    broken["transitions"] = doc["transitions"][:-1]
    for text in ["not json", "[]", json.dumps(broken)]:
        with pytest.raises(MalformedJsonError):
            from_json(text)


def test_from_json_rejects_booleans_and_duplicate_states():
    import json

    doc = json.loads(serialize(matcher_automaton("01", BIN), "json"))
    broken = [
        {"state_count": True},
        {"start": True},
        {"start": "0"},
        {"accepting": [True]},
        {"accepting": [2, 2]},
        {"accepting": 2},
        {"transitions": [[True, "0", 1]] + doc["transitions"][1:]},
        {"transitions": [[0, "0", True]] + doc["transitions"][1:]},
    ]
    for change in broken:
        with pytest.raises(MalformedJsonError):
            from_json(json.dumps(dict(doc, **change)))


def test_from_json_rejects_unknown_keys():
    import json

    doc = json.loads(serialize(matcher_automaton("01", BIN), "json"))
    for key in ["bogus", "start_state", "match_mark"]:
        with pytest.raises(MalformedJsonError, match=key):
            from_json(json.dumps(dict(doc, **{key: [2]})))
    with pytest.raises(MalformedJsonError, match="'bogus', 'start_state'"):
        from_json(json.dumps(dict(doc, bogus=1, start_state=3)))


def test_from_json_requires_an_alphabet_list():
    import json

    doc = json.loads(serialize(matcher_automaton("01", BIN), "json"))
    for symbols in ["01", {"0": 1, "1": 2}, ["0", 1], ["0", ["1"]]]:
        with pytest.raises(MalformedJsonError):
            from_json(json.dumps(dict(doc, alphabet=symbols)))


def test_from_json_rejects_unhashable_transition_symbols():
    import json

    doc = json.loads(serialize(matcher_automaton("01", BIN), "json"))
    for sym in [["0"], {"0": 0}, 0, None]:
        doc["transitions"][0][1] = sym
        with pytest.raises(MalformedJsonError):
            from_json(json.dumps(doc))


def test_from_json_checks_the_transition_count_before_allocating():
    import json

    # a table of 2**40 rows cannot be built; the short transition list must be
    # rejected first
    doc = {"alphabet": ["0", "1"], "state_count": 2**40, "start": 0, "accepting": [],
           "transitions": [[0, "0", 0], [0, "1", 0]]}
    with pytest.raises(MalformedJsonError, match="every"):
        from_json(json.dumps(doc))


def test_dot_output_shape():
    one_state = Dfa(BIN, ((0, 0),), 0, frozenset({0}))
    dot = serialize(one_state, "dot")
    assert dot.count("circle") == 1  # exactly one state node
    assert "doublecircle" in dot
    assert "__start [shape=point]" in dot

    figure = build_comparison_dfa("01", "10", BIN, Relation.EQ)
    dot = serialize(figure, "dot")
    assert dot.count("circle]") == figure.state_count
    assert 'label="0,1"' in dot or 'label="0"' in dot
