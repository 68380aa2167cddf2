"""Asymptotic equivalence of boundary points and limit-space approximations.

A boundary point is a left-infinite eventually periodic word ...x2 x1, stored
as x1, x2, ... (preperiod + period + period + ...). pointed_component puts x1
at tree level 1, so the length-n prefix is the level-n vertex under the
point; equivalence reads x1 deepest, so a nucleus element maps the reversed
prefix xn ... x1 of p to the reversed prefix of an equivalent point.

Two points ...x2 x1 and ...y2 y1 are equivalent when the nucleus Moore
diagram carries a left-infinite path whose i-th edge from the end is
labeled (x_i | y_i). For eventually periodic points the path is a lasso:
past level m, the longest preperiod, a state at a given period phase reads
one letter and so has at most one arrow down, and a path that goes up
forever lies on a cycle of these arrows from level m + 1 on. One phase-0
cycle state therefore fixes the whole path, the preperiod states below it
included. Deciding p ~ q keeps the arrows that write q and takes the least
such state's lasso as the witness; the class of p keeps every arrow and
collects what each lasso writes. Both read NucleusResult.moore_tables, the
Moore table that the engine derives once per nucleus result.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from math import lcm

import numpy as np

from .core import _automaton_of, _recurrent, word, word_str
from .engine import CanonicalElement, NucleusResult
from .schreier import SimplicialGraph, _check_cap, _simple_edges, _vertex_labels, build_schreier
from .schreier import pointed_component

_POINT = re.compile(r"^\s*(\S+)\^w(?:\s+(\S+))?\s*$")


@dataclass(frozen=True)
class BoundaryPoint:
    """Eventually periodic left-infinite word, canonicalized on construction.

    preperiod lists x1, x2, ... (index 0 = x1, level 1 as pointed reads it);
    period repeats leftward after it. Canonical form: the period is
    primitive and cannot be rotated into the preperiod.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        pre = word(self.preperiod)
        per = word(self.period)
        if not per:
            raise ValueError("period must be nonempty")
        for d in range(1, len(per)):
            if len(per) % d == 0 and per == per[:d] * (len(per) // d):
                per = per[:d]
                break
        while pre and pre[-1] == per[-1]:
            per = per[-1:] + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def parse(cls, text: str) -> "BoundaryPoint":
        """Read the "PERIOD^w PREPERIOD" syntax, e.g. "10^w 0" for ...1010 0; words as in word()."""
        m = _POINT.match(text)
        if not m:
            raise ValueError(f"boundary point must look like PERIOD^w [PREPERIOD], got {text!r}")
        per = tuple(reversed(word(m.group(1))))
        pre = tuple(reversed(word(m.group(2)))) if m.group(2) else ()
        return cls(pre, per)

    def __str__(self) -> str:
        head = word_str(tuple(reversed(self.period))) + "^w"
        if self.preperiod:
            return head + " " + word_str(tuple(reversed(self.preperiod)))
        return head

    def letter(self, i: int) -> int:
        """Letter x_i (i >= 1), at tree level i as pointed reads the point."""
        if i < 1:
            raise ValueError("levels start at 1")
        j = i - 1
        if j < len(self.preperiod):
            return self.preperiod[j]
        return self.period[(j - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> tuple[int, ...]:
        """Level-n vertex under the point; prefixes are nested as n grows."""
        return tuple(self.letter(i) for i in range(1, n + 1))


def _check_point(p: BoundaryPoint, k: int) -> None:
    if not all(0 <= x < k for x in p.preperiod + p.period):
        raise ValueError(f"boundary point {p} uses letters outside a {k}-letter alphabet")


@dataclass(frozen=True)
class EquivalenceWitness:
    """Eventually periodic state sequence s_0, s_1, ... along the certifying path.

    tail holds s_0 .. s_{len(tail)-1} (s_0 at the path's end, by the root);
    cycle repeats leftward forever after the tail. Reading letter x_i at
    state s_i must output y_i and move to s_{i-1}.
    """

    tail: tuple[CanonicalElement, ...]
    cycle: tuple[CanonicalElement, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("a witness needs a nonempty cycle")

    def state(self, i: int) -> CanonicalElement:
        if i < len(self.tail):
            return self.tail[i]
        return self.cycle[(i - len(self.tail)) % len(self.cycle)]

    def validate(self, p: BoundaryPoint, q: BoundaryPoint) -> bool:
        """Re-check every Moore transition, over a window periodicity makes finite."""
        horizon = max(len(self.tail), len(p.preperiod), len(q.preperiod)) + 2 * lcm(
            len(self.cycle), len(p.period), len(q.period)
        )
        for i in range(1, horizon + 1):
            s = self.state(i)
            x, y = p.letter(i), q.letter(i)
            if s.act((x,)) != (y,):
                return False
            if s.section((x,)) != self.state(i - 1):
                return False
        return True


def _lassos(nucleus: NucleusResult, p: BoundaryPoint, q: BoundaryPoint | None = None):
    """The state paths that read p and write q (anything, when q is None), as lassos.

    A lasso is (the states at levels 0..m, the states up the cycle from level
    m + 1), m the longest preperiod. Past level m, node s + j * n, state s at
    a level of phase j, has one arrow down to its section at p's letter, kept
    when it writes q's letter there. A path that goes up forever lies on a
    cycle of these arrows from level m + 1 on, so each phase-0 cycle node
    fixes one path; they come least first. The arrows form a functional
    graph, so its cycle nodes are the nodes core._recurrent keeps, with -1
    for no arrow.
    """
    out, sec = nucleus.moore_tables
    points = (p,) if q is None else (p, q)
    for point in points:
        _check_point(point, out.shape[1])
    n = len(out)
    m = max(len(point.preperiod) for point in points)
    period = lcm(*(len(point.period) for point in points))

    levels = range(m + 1, m + 1 + period)
    x = [p.letter(i) for i in levels]
    arrows = sec[:, x] + (np.arange(period) - 1) % period * n
    if q is not None:
        arrows[out[:, x] != [q.letter(i) for i in levels]] = -1
    arrows = arrows.T.ravel()

    # the anchors: phase-0 nodes, the first n, that lie on a cycle
    for anchor in [v for v in _recurrent(arrows[:, None]) if v < n]:
        # the cycle read downward from the anchor, then upward
        cycle = [anchor]
        while (below := int(arrows[cycle[-1]])) != anchor:
            cycle.append(below)
        tail = [int(sec[anchor, x[0]])]
        for i in range(m, 0, -1):
            if q is not None and out[tail[-1], p.letter(i)] != q.letter(i):
                break
            tail.append(int(sec[tail[-1], p.letter(i)]))
        else:
            yield tail[::-1], [v % n for v in cycle[:1] + cycle[:0:-1]]


def asymptotic_equivalent(
    nucleus: NucleusResult, p: BoundaryPoint, q: BoundaryPoint
) -> tuple[bool, EquivalenceWitness | None]:
    """Decide p ~ q through the nucleus Moore diagram; the witness is the least anchor's lasso."""
    lasso = next(_lassos(nucleus, p, q), None)
    if lasso is None:
        return False, None
    tail, cycle = (tuple(nucleus.elements[s] for s in states) for states in lasso)
    return True, EquivalenceWitness(tail, cycle)


def equivalence_class(nucleus: NucleusResult, p: BoundaryPoint) -> set[BoundaryPoint]:
    """All eventually periodic points equivalent to p: what each lasso reading p writes."""
    out, _ = nucleus.moore_tables
    m = len(p.preperiod)
    results = set()
    for tail, cycle in _lassos(nucleus, p):
        written = [out[s, p.letter(i)] for i, s in enumerate(tail[1:] + cycle, 1)]
        results.add(BoundaryPoint(tuple(written[:m]), tuple(written[m:])))
    if p not in results:
        raise RuntimeError("no infinite path for the point itself; nucleus data inconsistent")
    return results


def self_similarity_graph(gens: Sequence, depth: int, vertex_cap: int | None = None) -> SimplicialGraph:
    """Words of length <= depth with vertical (drop the first letter) and
    horizontal (generator action within a level) edges."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    aut = _automaton_of(gens)
    k = aut.alphabet.size
    _check_cap(k, range(depth + 1), vertex_cap)

    labels, levels, arrows = [], [], []
    for n in range(depth + 1):
        base = len(labels)
        labels.extend(_vertex_labels(k, n))
        levels.extend([n] * k**n)
        if n:
            # vertical: v at level n hangs from v without its first letter
            child = np.arange(k**n)
            arrows.append((base + child, base - k ** (n - 1) + child % k ** (n - 1)))
            # horizontal: the generators' arrows within the level
            level = build_schreier(gens, n, vertex_cap)
            arrows.extend((base + child, base + img) for img in level.images)
    return SimplicialGraph(tuple(labels), _simple_edges(arrows, len(labels)), tuple(levels))


def gh_sequence(
    gens: Sequence, xi: BoundaryPoint, n_max: int, vertex_cap: int | None = None
) -> list[tuple[SimplicialGraph, int]]:
    """Rooted components (component of the xi-prefix, root position) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [pointed_component(gens, xi, n, vertex_cap) for n in range(1, n_max + 1)]
