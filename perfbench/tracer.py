"""Spans and counts at the public boundaries of selfsim's modules.

The library is not edited: the tracer replaces each listed function or
method, in every selfsim namespace that holds it (modules that imported it
by name included), with a wrapper that records a span (name, start, end,
parent, request) and the counts of that call. A span's self time is its
duration minus the time covered by its child spans. Spans stay in memory
and are written out as JSON when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

from selfsim import cli, core, engine, exports, limits, schreier, spectra


def _kept(args, result) -> tuple:
    # elements the closure kept: the nucleus, or the members seen when a bound tripped
    return (len(result.elements) if result.elements is not None else result.witness_count,)


# (layer name, owner, attribute, counts besides calls, their values from (args, result))
TARGETS = (
    ("engine.mul", engine.CanonicalElement, "__mul__", (), None),
    ("engine.state_element", engine.CanonicalElement, "state_element", (), None),
    ("engine.inverse", engine.CanonicalElement, "inverse", (), None),
    ("engine.recurrent_sections", engine, "recurrent_sections", ("returned",), lambda a, r: (len(r),)),
    ("engine.compute_nucleus", engine, "compute_nucleus", ("kept",), _kept),
    ("engine.canonicalize", engine, "canonicalize", (), None),
    ("engine.moore_automaton", engine.NucleusResult, "moore_automaton", (), None),
    ("core.refine_partition", core, "refine_partition", ("states_in", "classes_out"),
     lambda a, r: (len(a[0]), r[1])),
    ("schreier.build_schreier", schreier, "build_schreier", ("vertices",), lambda a, r: (r.vertex_count,)),
    ("schreier.connected_components", schreier, "connected_components", ("components",),
     lambda a, r: (len(r),)),
    ("schreier.simplicial", schreier, "simplicial", ("edges",), lambda a, r: (len(r.edges),)),
    ("schreier.pointed_component", schreier, "pointed_component", (), None),
    ("limits.self_similarity_graph", limits, "self_similarity_graph", (), None),
    ("limits.asymptotic_equivalent", limits, "asymptotic_equivalent", (), None),
    ("exports.export_graph", exports, "export_graph", ("bytes",), lambda a, r: (len(r.encode()),)),
    ("spectra.markov_operator", spectra, "markov_operator", (), None),
    ("spectra.spectrum", spectra, "spectrum", (), None),
    ("cli.cli_main", cli, "cli_main", (), None),
)


def count_names() -> list[str]:
    """Every count the tracer keeps, by metric name."""
    return [f"{name}.{stat}" for name, _, _, stats, _ in TARGETS for stat in ("calls", *stats)]


class Tracer:
    """Records spans and per-request counts while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[list] = [[-1, 0.0]]
        self._request = [-1]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {name: self._wrap(name, getattr(owner, attr), stats, extract)
                          for name, owner, attr, stats, extract in TARGETS}
        self._origin = time.perf_counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, stats: tuple[str, ...], extract):
        nid = self._name_id(name)
        spans, stack, request = self.spans, self._stack, self._request
        self_s, counts = self.self_s, self.counts
        calls = name + ".calls"
        stat_keys = [f"{name}.{stat}" for stat in stats]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                parent[1] += duration
                spans[idx] = (nid, t0, t1, parent[0], request[0])
                self_s[name] += duration - frame[1]
                counts[calls] += 1
            if extract is not None:
                for key, value in zip(stat_keys, extract(args, result)):
                    counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "selfsim" or key.startswith("selfsim.")]
        for name, owner, attr, _, _ in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrappers[name]
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def begin(self, request: str) -> None:
        """Open the root span of one request and reset the per-request tallies."""
        self.self_s.clear()
        self.counts.clear()
        rid = self._request[0] = len(self.spans)
        self.spans.append((self._name_id(request), time.perf_counter(), None, -1, rid))
        self._stack.append([rid, 0.0])

    def end(self) -> tuple[dict[str, float], dict[str, int]]:
        """Close the request's root span; returns its self times and counts."""
        t1 = time.perf_counter()
        idx, _ = self._stack.pop()
        nid, t0, _, parent, req = self.spans[idx]
        self.spans[idx] = (nid, t0, t1, parent, req)
        self._request[0] = -1
        return dict(self.self_s), dict(self.counts)

    def write(self, path) -> None:
        origin = self._origin
        rows = [(n, round(t0 - origin, 9), round(t1 - origin, 9), p, r) for n, t0, t1, p, r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"],
                       "names": self.names, "spans": rows}, fh, separators=(",", ":"))
