"""Span tracing of the occlang layers, installed from outside the library.

Every public function defined in an ``occlang`` module is replaced, at every
module-global binding that refers to it (``automata.minimize`` and the
``minimize`` that ``regularity`` imported are the same function), by a
wrapper that records one span per call.  Calls made from inside the library
therefore show up too.  Spans stay in memory until the caller drains them;
:func:`dump` writes them out once the run is over.
"""

from __future__ import annotations

import json
import sys
import time
import types

PACKAGE = "occlang"

# span tuple fields
NAME, START, END, PARENT, QID, STATES_IN, STATES_OUT, FOUND, RAISED = range(9)


def layer_name(fn: types.FunctionType) -> str:
    """``automata.combine`` for occlang.automata.combine."""
    return fn.__module__.rpartition(".")[2] + "." + fn.__name__


def _state_count(value) -> int | None:
    count = getattr(value, "state_count", None)
    return count if isinstance(count, int) else None


def _package_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _is_public_library_function(value) -> bool:
    return (
        isinstance(value, types.FunctionType)
        and value.__module__.startswith(PACKAGE + ".")
        and not value.__name__.startswith("_")
    )


def bound_layers() -> set[str]:
    """Names of the public occlang functions loaded right now."""
    return {
        layer_name(value)
        for mod in _package_modules()
        for value in vars(mod).values()
        if _is_public_library_function(value)
    }


class Tracer:
    """Records spans (name, start, end, parent, query id, sizes) for wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.query_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn: types.FunctionType):
        name = layer_name(fn)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (
                    name,
                    start,
                    end,
                    parent,
                    self.query_id,
                    _state_count(args[0]) if args else None,
                    _state_count(out),
                    out is not None,
                    raised,
                )

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if not _is_public_library_function(value):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(value)
                setattr(mod, attr, wrapper)
                self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def drain(self) -> list[tuple]:
        """Hand over the spans recorded so far and start an empty list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def dump(path, spans: list[tuple], meta: dict) -> None:
    """Write spans as one JSON document: field names, then one row per span."""
    doc = {
        "meta": meta,
        "fields": ["name", "start_ns", "end_ns", "parent", "query", "states_in",
                   "states_out", "returned_value", "raised"],
        "spans": spans,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def self_times(spans: list[tuple]) -> list[int]:
    """Per span: its duration minus the durations of its direct child spans."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class LayerStats:
    """Aggregates of one layer's spans over a traced run."""

    __slots__ = ("calls", "self_ns", "total_ns", "states_in", "states_out", "sized_in",
                 "sized_out", "found")

    def __init__(self) -> None:
        self.calls = self.self_ns = self.total_ns = 0
        self.states_in = self.states_out = self.sized_in = self.sized_out = self.found = 0


def aggregate(spans: list[tuple], stats: dict[str, LayerStats]) -> None:
    """Add the spans of one traced pass to per-layer totals."""
    for s, own in zip(spans, self_times(spans)):
        st = stats.get(s[NAME])
        if st is None:
            st = stats[s[NAME]] = LayerStats()
        st.calls += 1
        st.self_ns += own
        st.total_ns += s[END] - s[START]
        if s[STATES_IN] is not None:
            st.states_in += s[STATES_IN]
            st.sized_in += 1
        if s[STATES_OUT] is not None:
            st.states_out += s[STATES_OUT]
            st.sized_out += 1
        st.found += s[FOUND]


def layer_metric(stats: dict[str, LayerStats], layer: str, stat: str, queries: int) -> float:
    """One per-layer figure: counts and times per query, sizes per call.

    calls and self_ms are per query; states / states_out and states_in are the
    mean state count of the returned / first-argument DFA per call;
    found_ratio is the share of calls that returned a value (not None).
    """
    st = stats.get(layer) or LayerStats()
    if stat == "calls":
        return st.calls / queries
    if stat == "self_ms":
        return st.self_ns / queries / 1e6
    if stat in ("states", "states_out"):
        return st.states_out / st.sized_out if st.sized_out else 0.0
    if stat == "states_in":
        return st.states_in / st.sized_in if st.sized_in else 0.0
    if stat == "found_ratio":
        return st.found / st.calls if st.calls else 0.0
    raise ValueError(f"unknown per-layer statistic {stat!r} for {layer}")
