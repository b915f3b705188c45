"""A committed digest of the library's observable outputs over fixed pair grids.

For every pair the digest records what a caller can see: the verdict, the
direction and the certificate; interlaced in both directions (holds, witness,
method); and the JSON and DOT of the minimal DFA for each of the six
relations, asked in a seeded shuffled order so that the shared synthesis is
exercised in many call orders.  Every record is hashed in its JSON form, so
the digest does not depend on the Python version.

A change that alters output on purpose updates DIGESTS and says in
CHANGES.md which grid changed, from what to what, and why; the failure
message prints the new entry.
"""

import hashlib
import json
import random
from itertools import product

import pytest

from occlang import (
    Relation,
    build_comparison_dfa,
    decide_regularity,
    interlaced,
    serialize,
)

from helpers import BIN, TERN, UNARY, nonempty_words_upto


def _square(alphabet, max_length):
    words = list(nonempty_words_upto(alphabet, max_length))
    return [(x, y, alphabet) for x, y in product(words, words)]


GRIDS = {
    "binary<=5": lambda: _square(BIN, 5),
    "ternary<=3": lambda: _square(TERN, 3),
    "unary<=6": lambda: _square(UNARY, 6),
    "0^k1/10^k,k<=60": lambda: [
        pair
        for k in range(1, 61)
        for pair in (("0" * k + "1", "1" + "0" * k, BIN), ("1" + "0" * k, "0" * k + "1", BIN))
    ],
    "0^2000/0^1999": lambda: [("0" * 2000, "0" * 1999, BIN)],
}

# grid -> (sha256 of the records, pairs, regular pairs, states over all six DFAs)
DIGESTS = {
    "binary<=5": ("7140eacc7344a46b679b104231efac685a2b1677e2aa0133b05a40d425d67dee", 3844, 1072, 27712),
    "ternary<=3": ("1dc91de6bf2ab69f129e2ce0dae09b1935083964833ce8358cb4563a9a5ae5f7", 1521, 285, 4158),
    "unary<=6": ("6c7e2263cf12da011ae2c7ac68a804febc5c53f6fa2538ae55eb2ded307be85b", 36, 36, 496),
    "0^k1/10^k,k<=60": ("3ba287eff5859d38640abc283f2754bcf09ca252ed6a01d7b8ae9091b3a67ceb", 120, 120, 52680),
    "0^2000/0^1999": ("54ff928b4c39c8525f8260d3a6d1a8b3745c8443bea89d08d707810a53725bac", 1, 1, 8002),
}


def _interlacing(x, y, alphabet):
    verdict = interlaced(x, y, alphabet)
    return [verdict.holds, verdict.witness, verdict.method.value]


def _record(x, y, alphabet, rng):
    outcome = decide_regularity(x, y, alphabet)
    record = {
        "x": x,
        "y": y,
        "alphabet": list(alphabet.symbols),
        "regular": outcome.regular,
        "direction": outcome.direction.value if outcome.direction else None,
        "certificate": outcome.certificate.to_json_dict() if outcome.certificate else None,
        "interlaced": [_interlacing(x, y, alphabet), _interlacing(y, x, alphabet)],
    }
    states = 0
    if outcome.regular:
        relations = list(Relation)
        rng.shuffle(relations)
        dfas = {}
        for rel in relations:
            dfa = build_comparison_dfa(x, y, alphabet, rel)
            dfas[rel.value] = [serialize(dfa, "json"), serialize(dfa, "dot")]
            states += dfa.state_count
        record["dfa"] = dfas
    return record, states


def grid_digest(name):
    """(sha256 hex digest, pairs, regular pairs, total DFA states) of one grid."""
    rng = random.Random(name)
    h = hashlib.sha256()
    pairs = regular = states = 0
    for x, y, alphabet in GRIDS[name]():
        record, n = _record(x, y, alphabet, rng)
        h.update(json.dumps(record, sort_keys=True).encode())
        h.update(b"\n")
        pairs += 1
        regular += record["regular"]
        states += n
    return h.hexdigest(), pairs, regular, states


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_outputs_match_the_committed_digest(name):
    got = grid_digest(name)
    assert got == DIGESTS[name], f"outputs changed on grid {name}: now {name!r}: {got!r},"
