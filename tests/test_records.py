"""The library's result records: immutable value types with validated DFAs."""

import pickle

import pytest

from occlang import (
    Dfa,
    Relation,
    bounded_census,
    build_comparison_dfa,
    complement,
    de_bruijn_word,
    decide_regularity,
    decompose_bordered,
    interlaced,
    matcher_automaton,
)

from helpers import BIN, TERN, UNARY


def _records():
    """One instance of every record type, built afresh on each call."""
    outcome = decide_regularity("0011", "1100", BIN)
    dec = decompose_bordered("01001", "01")
    return [
        dec,
        interlaced("01", "10", TERN),
        outcome,
        outcome.certificate,
        de_bruijn_word(3, BIN),
        bounded_census("01", "10", BIN, Relation.EQ, 4),
        # build_comparison_dfa may hand back the DFA it built for the same call
        # before, so copy it to get a distinct instance.
        Dfa(*build_comparison_dfa("01", "10", BIN, Relation.EQ)),
    ]


def test_records_compare_hash_and_stay_immutable():
    for first, again in zip(_records(), _records()):
        assert first is not again
        assert first == again and hash(first) == hash(again)
        assert type(first)(*first) == first
        for field in first._fields:
            with pytest.raises(AttributeError):
                setattr(first, field, None)
        with pytest.raises(AttributeError):
            first.extra = 1
    dec = decompose_bordered("01001", "01")
    assert tuple(dec) == ("01", "0", 0)
    assert dec != decompose_bordered("0101", "01")


def test_dfa_construction_validates():
    rows = ((1, 0), (1, 1))
    assert Dfa(BIN, rows, 0, frozenset({1})).state_count == 2
    bad = [
        (((1, 0), (1, 2)), 0, frozenset(), "transition table is not total over the state set"),
        (((1, 0), (1, -1)), 0, frozenset(), "transition table is not total over the state set"),
        (((1, 0), (1,)), 0, frozenset(), "transition table is not total over the state set"),
        ((), 0, frozenset(), "a DFA needs at least one state"),
        (rows, 2, frozenset(), "start state out of range"),
        (rows, -1, frozenset(), "start state out of range"),
        (rows, 0, frozenset({0, 2}), "accepting state out of range"),
        (rows, 0, frozenset({-1}), "accepting state out of range"),
    ]
    for table, start, accepting, message in bad:
        with pytest.raises(ValueError, match=message):
            Dfa(BIN, table, start, accepting)


def test_dfa_replace_validates():
    a = build_comparison_dfa("01", "10", BIN, Relation.EQ)
    moved = a._replace(start=1)
    assert type(moved) is Dfa and moved.start == 1 and moved.transitions == a.transitions
    n = a.state_count
    with pytest.raises(ValueError, match="transition table is not total"):
        a._replace(transitions=a.transitions + ((0, n + 1),))
    with pytest.raises(ValueError, match="start state out of range"):
        a._replace(start=n)
    with pytest.raises(ValueError, match="accepting state out of range"):
        a._replace(accepting=frozenset({n}))
    with pytest.raises(ValueError, match="Got unexpected field names"):
        a._replace(states=3)


def test_dfa_methods_and_round_trips():
    a = build_comparison_dfa("01", "10", BIN, Relation.EQ)
    t = a.transitions
    assert a.state_count == 5 and len(t) == 5
    assert a.accepts("0110") and not a.accepts("01")
    assert pickle.loads(pickle.dumps(a)) == a
    ends_aa = matcher_automaton("aa", UNARY)
    inverted = complement(ends_aa)
    assert type(inverted) is Dfa and inverted.transitions == ends_aa.transitions
    assert inverted.accepting == frozenset({0, 1})
