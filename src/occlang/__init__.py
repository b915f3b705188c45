"""Decide regularity of languages that compare subword occurrence counts.

Given two patterns x, y over an explicit finite alphabet, the languages of
words holding |z|_x < |z|_y, <=, or = (and their complements) are regular
exactly when one pattern is "interlaced" by the other, i.e. occurs in every
bordered extension of it.  This package decides the criterion, synthesizes
minimal DFAs in the regular case, emits machine-checkable certificates in the
non-regular case, and ships the brute-force oracles used to validate it all.
"""

from .words import (
    Alphabet,
    BorderDecomposition,
    PowerCountParams,
    Word,
    border_lengths,
    count_occurrences,
    decompose_bordered,
    is_bordered,
    power_count_params,
)
from .automata import (
    Dfa,
    combine,
    complement,
    from_json,
    grafted_bordered_automaton,
    matcher_automaton,
    minimize,
    serialize,
    shortest_accepted,
)
from .interlace import (
    InterlaceVerdict,
    Method,
    avoider_automaton,
    in_b_x,
    in_class_a,
    interlaced,
    is_interlaced_by,
)
from .regularity import (
    Direction,
    NonRegularityCertificate,
    Relation,
    RegularityOutcome,
    build_comparison_dfa,
    decide_regularity,
    non_regularity_certificate,
    straddle_count,
)
from .finiteness import (
    DeBruijnWord,
    de_bruijn_word,
    equal_length_family,
    finiteness_verdict,
    is_finite_pair,
)
from .oracle import (
    CensusReport,
    bounded_census,
    bounded_equal_census,
    bounded_equivalence,
    counter_membership,
    enumerate_bordered,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BorderDecomposition",
    "CensusReport",
    "DeBruijnWord",
    "Dfa",
    "Direction",
    "InterlaceVerdict",
    "Method",
    "NonRegularityCertificate",
    "PowerCountParams",
    "RegularityOutcome",
    "Relation",
    "Word",
    "avoider_automaton",
    "border_lengths",
    "bounded_census",
    "bounded_equal_census",
    "bounded_equivalence",
    "build_comparison_dfa",
    "combine",
    "complement",
    "count_occurrences",
    "counter_membership",
    "de_bruijn_word",
    "decide_regularity",
    "decompose_bordered",
    "enumerate_bordered",
    "equal_length_family",
    "finiteness_verdict",
    "from_json",
    "grafted_bordered_automaton",
    "in_b_x",
    "in_class_a",
    "interlaced",
    "is_bordered",
    "is_interlaced_by",
    "is_finite_pair",
    "matcher_automaton",
    "minimize",
    "non_regularity_certificate",
    "power_count_params",
    "serialize",
    "shortest_accepted",
    "straddle_count",
]
