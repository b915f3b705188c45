"""Complete DFAs over explicit alphabets: pattern matchers, bordered-word
recognizers, intersection products, minimization, emptiness with shortest witness,
and DOT/JSON serialization."""

from __future__ import annotations

import json
from collections import deque
from typing import NamedTuple

from .errors import (
    AlphabetMismatchError,
    AlphabetTooSmallError,
    EmptyPatternError,
    MalformedJsonError,
)
from .words import Alphabet, Word


class _DfaFields(NamedTuple):
    alphabet: Alphabet
    transitions: tuple[tuple[int, ...], ...]
    start: int
    accepting: frozenset[int]


def _out_of_range(states, n: int) -> bool:
    return bool(states) and (min(states) < 0 or max(states) >= n)


class Dfa(_DfaFields):
    """Complete deterministic automaton.

    transitions[state][symbol_index] gives the successor state; every state
    has a transition for every symbol.  Instances are immutable and safe to
    share between threads; construction and _replace validate the fields.
    """

    __slots__ = ()

    def __new__(cls, alphabet, transitions, start, accepting):
        n = len(transitions)
        if n < 1:
            raise ValueError("a DFA needs at least one state")
        if set(map(len, transitions)) != {len(alphabet)} or _out_of_range(
            set().union(*transitions), n
        ):
            raise ValueError("transition table is not total over the state set")
        if not 0 <= start < n:
            raise ValueError("start state out of range")
        if _out_of_range(accepting, n):
            raise ValueError("accepting state out of range")
        return super().__new__(cls, alphabet, transitions, start, accepting)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def _trusted(cls, alphabet, transitions, start, accepting):
        """A DFA from fields well formed by construction, left unvalidated."""
        return _DfaFields.__new__(cls, alphabet, transitions, start, accepting)

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def accepts(self, word: Word) -> bool:
        state = self.start
        index = self.alphabet.index
        for ch in word:
            state = self.transitions[state][index(ch)]
        return state in self.accepting


def matcher_automaton(p: Word, alphabet: Alphabet) -> Dfa:
    """Knuth-Morris-Pratt matcher for p: |p|+1 states, accepting the words ending in p.

    State i asserts that the longest suffix of the input matching a prefix of
    p has length i, so a run enters state |p| once per occurrence of p,
    overlapping occurrences included.  Row i is a copy of the row of the
    border state b, the state reached on p[1:i] (row 0 is all zeros), with
    the entry for p[i] patched to i + 1; b then moves on p[i].  The last row
    is row b unpatched.
    """
    if not p:
        raise EmptyPatternError("matcher pattern must be nonempty")
    alphabet.require(p)
    index = alphabet._index
    rows = [tuple(int(a == p[0]) for a in alphabet.symbols)]
    b = 0
    for i in range(1, len(p)):
        si = index[p[i]]
        row = list(rows[b])
        row[si] = i + 1
        rows.append(tuple(row))
        b = rows[b][si]
    rows.append(rows[b])
    return Dfa._trusted(alphabet, tuple(rows), 0, frozenset({len(p)}))


def grafted_bordered_automaton(y: Word, alphabet: Alphabet) -> Dfa:
    """DFA with exactly 2|y|+3 states accepting the y-bordered words.

    Built by grafting the recognizer for "starts with y, then at least one
    symbol" onto the suffix tracker for "ends with y": the strict-prefix
    states feed, after y is consumed, straight into the failure-function
    states of the suffix matcher, so the former final state and the latter
    initial state disappear from the construction.
    """
    if not y:
        raise EmptyPatternError("border must be nonempty")
    m = len(y)
    kmp = matcher_automaton(y, alphabet).transitions  # checks y against the alphabet
    dead = m + 1
    base = m + 2  # suffix-tracker states occupy base .. base+m
    rows: list[tuple[int, ...]] = []
    for i in range(m):
        rows.append(tuple(i + 1 if a == y[i] else dead for a in alphabet.symbols))
    # consumed exactly y: continue in the suffix tracker via y's border transition
    rows.append(tuple(base + t for t in kmp[m]))
    rows.append(tuple(dead for _ in alphabet.symbols))
    for j in range(m + 1):
        rows.append(tuple(base + t for t in kmp[j]))
    return Dfa._trusted(alphabet, tuple(rows), 0, frozenset({base + m}))


def combine(a: Dfa, b: Dfa) -> Dfa:
    """Intersection: the product automaton over the reachable state pairs.

    For a difference, combine a with complement(b).
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(f"cannot combine DFAs over {a.alphabet} and {b.alphabet}")
    k = len(a.alphabet)
    ta, tb = a.transitions, b.transitions
    nb = b.state_count
    index = {a.start * nb + b.start: 0}
    pairs = [(a.start, b.start)]
    rows: list[tuple[int, ...]] = []
    qi = 0
    while qi < len(pairs):
        sa, sb = pairs[qi]
        qi += 1
        ra, rb = ta[sa], tb[sb]
        row = []
        for si in range(k):
            na, nbb = ra[si], rb[si]
            key = na * nb + nbb
            t = index.get(key)
            if t is None:
                t = len(pairs)
                index[key] = t
                pairs.append((na, nbb))
            row.append(t)
        rows.append(tuple(row))
    acc = frozenset(
        i for i, (sa, sb) in enumerate(pairs) if sa in a.accepting and sb in b.accepting
    )
    return Dfa._trusted(a.alphabet, tuple(rows), 0, acc)


def complement(a: Dfa) -> Dfa:
    """Invert the accepting set; the DFA is complete, so this is exact."""
    inverted = frozenset(range(a.state_count)) - a.accepting
    return Dfa._trusted(a.alphabet, a.transitions, a.start, inverted)


def minimize(a: Dfa) -> Dfa:
    """Unique minimal complete DFA for L(a), states numbered by BFS in symbol order.

    Hopcroft partition refinement over all n states and k symbols on a
    refinable partition kept in flat lists: elems lists the states, with
    block b in elems[first[b]:past[b]]; loc and block give each state's index
    in elems and its block; marked[b] counts the states of b that the current
    splitter has swapped to the front of b.  preds[si][t] lists the states
    entering t on symbol si, and a worklist pair (b, preds[si]) is the
    splitter (block b, symbol si), which marks the states entering b on si.
    A block with marked and unmarked states splits, and its smaller part
    becomes the new block; the first split is that of the one block of all
    states, the accepting ones marked.  Queueing the new block alone
    suffices: a pending parent stays pending for the larger part, and a
    partition stable for the parent and for one part is stable for the other.
    The new block is queued only for the symbols on which one of its states
    has a predecessor.  On any other symbol its preimage is empty, so it would
    split nothing, and the larger part's preimage is the parent's, so the
    larger part keeps the parent's stability.  Only the smaller part is
    scanned and queued, so each state lies in O(log n) processed splitters per
    symbol and refinement takes O(k·n log n).  Refining unreachable states
    too is exact: equivalent states, reachable or not, agree on acceptance
    and on their successors' blocks, so a block's row is read from its first
    state and the renumbering from the start's block visits exactly the
    blocks of reachable states.
    """
    k = len(a.alphabet)
    n = a.state_count
    trans = a.transitions
    accepting = a.accepting
    elems = sorted(accepting)
    m = len(elems)
    elems += [s for s in range(n) if s not in accepting]
    loc = [0] * n
    for i, s in enumerate(elems):
        loc[s] = i
    block = [0] * n
    preds: list[list[list[int] | None]] = [[None] * n for _ in range(k)]
    for ps, column in zip(preds, zip(*trans)):
        for s, t in enumerate(column):
            lst = ps[t]
            if lst is None:
                ps[t] = [s]
            else:
                lst.append(s)
    first, past, marked = [0], [n], [m]
    touched = [0]
    work: list[tuple[int, list[list[int] | None]]] = []
    while True:
        for c in touched:
            mc = marked[c]
            marked[c] = 0
            f, p = first[c], past[c]
            if mc == p - f:
                continue
            mid = f + mc
            if mc <= p - mid:
                first[c] = mid
                lo, hi = f, mid
            else:
                past[c] = mid
                lo, hi = mid, p
            nb = len(first)
            first.append(lo)
            past.append(hi)
            marked.append(0)
            new = elems[lo:hi]
            for s in new:
                block[s] = nb
            for ps in preds:
                for s in new:
                    if ps[s] is not None:
                        work.append((nb, ps))
                        break
        if not work:
            break
        b, ps = work.pop()
        touched = []
        for t in elems[first[b] : past[b]]:
            lst = ps[t]
            if lst is None:
                continue
            for s in lst:
                c = block[s]
                mc = marked[c]
                if not mc:
                    touched.append(c)
                j = first[c] + mc
                i = loc[s]
                if i != j:
                    u = elems[j]
                    elems[i] = u
                    loc[u] = i
                    elems[j] = s
                    loc[s] = j
                marked[c] = mc + 1
    position = [-1] * len(first)
    b = block[a.start]
    position[b] = 0
    order = [b]
    rows = []
    for b in order:
        row = []
        for t in trans[elems[first[b]]]:
            c = block[t]
            j = position[c]
            if j < 0:
                j = position[c] = len(order)
                order.append(c)
            row.append(j)
        rows.append(tuple(row))
    acc = frozenset(i for i, b in enumerate(order) if elems[first[b]] in accepting)
    return Dfa._trusted(a.alphabet, tuple(rows), 0, acc)


def shortest_accepted(a: Dfa) -> Word | None:
    """The length-lexicographically smallest accepted word, or None if L(a) is empty.

    Breadth-first search trying symbols in alphabet order; any returned word
    has length at most state_count - 1.
    """
    if a.start in a.accepting:
        return ""
    syms = a.alphabet.symbols
    k = len(syms)
    trans = a.transitions
    parent: dict[int, tuple[int, int] | None] = {a.start: None}
    queue = deque([a.start])
    while queue:
        s = queue.popleft()
        row = trans[s]
        for si in range(k):
            t = row[si]
            if t in parent:
                continue
            parent[t] = (s, si)
            if t in a.accepting:
                out = []
                cur = t
                while parent[cur] is not None:
                    prev, pi = parent[cur]  # type: ignore[misc]
                    out.append(syms[pi])
                    cur = prev
                return "".join(reversed(out))
            queue.append(t)
    return None


def to_json(a: Dfa) -> str:
    """Schema-stable JSON with transitions sorted by (state, symbol order)."""
    doc: dict = {
        "alphabet": list(a.alphabet.symbols),
        "state_count": a.state_count,
        "start": a.start,
        "accepting": sorted(a.accepting),
        "transitions": [
            [s, sym, a.transitions[s][si]]
            for s in range(a.state_count)
            for si, sym in enumerate(a.alphabet.symbols)
        ],
    }
    return json.dumps(doc, indent=2)


def _is_int(value) -> bool:
    # JSON true/false parse to bool, an int subclass that must not pass as a number
    return isinstance(value, int) and not isinstance(value, bool)


def _state_set(items, key: str) -> frozenset[int]:
    if not isinstance(items, list) or not all(_is_int(s) for s in items):
        raise MalformedJsonError(f"{key} must be a list of integer states")
    if len(set(items)) != len(items):
        raise MalformedJsonError(f"{key} lists a state more than once")
    return frozenset(items)


_JSON_KEYS = frozenset({"alphabet", "state_count", "start", "accepting", "transitions"})


def from_json(text: str) -> Dfa:
    """Parse the JSON produced by to_json, validating the schema."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedJsonError("top-level JSON value must be an object")
    unknown = sorted(set(doc) - _JSON_KEYS)
    if unknown:
        raise MalformedJsonError(f"unknown DFA document key(s): {', '.join(map(repr, unknown))}")
    try:
        symbols = doc["alphabet"]
        if not isinstance(symbols, list):
            raise MalformedJsonError("alphabet must be a list of symbols")
        alphabet = Alphabet(symbols)
        n = doc["state_count"]
        start = doc["start"]
        accepting = _state_set(doc["accepting"], "accepting")
        triples = doc["transitions"]
    except (KeyError, TypeError, ValueError, AlphabetTooSmallError) as exc:
        raise MalformedJsonError(f"bad DFA document: {exc}") from None
    if not _is_int(n) or n < 1:
        raise MalformedJsonError("state_count must be a positive integer")
    if not _is_int(start):
        raise MalformedJsonError("start must be an integer state")
    k = len(alphabet)
    # checked before the table is allocated, so state_count cannot size it alone
    if not isinstance(triples, list) or len(triples) != n * k:
        raise MalformedJsonError("transitions must list every (state, symbol) pair exactly once")
    table: list[list[int | None]] = [[None] * k for _ in range(n)]
    for item in triples:
        if not (isinstance(item, list) and len(item) == 3):
            raise MalformedJsonError(f"bad transition entry: {item!r}")
        src, sym, dst = item
        if not (_is_int(src) and 0 <= src < n and _is_int(dst) and 0 <= dst < n):
            raise MalformedJsonError(f"transition state out of range: {item!r}")
        if not isinstance(sym, str) or sym not in alphabet:
            raise MalformedJsonError(f"transition symbol {sym!r} not in alphabet")
        si = alphabet.index(sym)
        if table[src][si] is not None:
            raise MalformedJsonError(f"duplicate transition for state {src}, symbol {sym!r}")
        table[src][si] = dst
    rows = tuple(tuple(row) for row in table)
    try:
        return Dfa(alphabet, rows, start, accepting)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise MalformedJsonError(f"bad DFA document: {exc}") from None


def to_dot(a: Dfa) -> str:
    """Graphviz rendering: doublecircle accepting states, edges merged per target."""
    lines = ["digraph dfa {", "  rankdir=LR;", "  __start [shape=point];", f"  __start -> {a.start};"]
    for s in range(a.state_count):
        shape = "doublecircle" if s in a.accepting else "circle"
        lines.append(f"  {s} [shape={shape}];")
    for s in range(a.state_count):
        by_target: dict[int, list[str]] = {}
        for si, sym in enumerate(a.alphabet.symbols):
            by_target.setdefault(a.transitions[s][si], []).append(sym)
        for t in sorted(by_target):
            label = ",".join(by_target[t])
            lines.append(f'  {s} -> {t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize(a: Dfa, fmt: str) -> str:
    """Render the DFA as "dot" or "json" text."""
    if fmt == "dot":
        return to_dot(a)
    if fmt == "json":
        return to_json(a)
    raise ValueError(f"unknown serialization format {fmt!r}")
