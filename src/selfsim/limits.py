"""Asymptotic equivalence of boundary points and limit-space approximations.

A boundary point is a left-infinite eventually periodic word; by convention
its rightmost letter sits at tree level 1, so the stored sequence
preperiod + period + period + ... lists the letters from the root outward
and its length-n prefix is the level-n vertex under the point.

Two points ...x2 x1 and ...y2 y1 are equivalent when the nucleus Moore
diagram carries a left-infinite path whose i-th edge from the end is
labeled (x_i | y_i). For eventually periodic points this is decided
exactly on a finite product graph (nucleus state, period phase).
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass
from math import lcm

import numpy as np

from .core import _automaton_of, _reachable, _recurrent, _tables, word, word_str
from .engine import CanonicalElement, NucleusResult
from .schreier import SimplicialGraph, _check_cap, _simple_edges, _vertex_labels, build_schreier
from .schreier import pointed_component

_POINT = re.compile(r"^\s*(\S+)\^w(?:\s+(\S+))?\s*$")


@dataclass(frozen=True)
class BoundaryPoint:
    """Eventually periodic left-infinite word, canonicalized on construction.

    preperiod lists the letters nearest the root (index 0 = level 1);
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
        """Letter at tree level i (i >= 1)."""
        if i < 1:
            raise ValueError("levels start at 1")
        j = i - 1
        if j < len(self.preperiod):
            return self.preperiod[j]
        return self.period[(j - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> tuple[int, ...]:
        """Level-n vertex under the point; prefixes are nested as n grows."""
        return tuple(self.letter(i) for i in range(1, n + 1))

    def max_letter(self) -> int:
        return max(self.preperiod + self.period)


def _check_point(p: BoundaryPoint, k: int) -> None:
    if p.max_letter() >= k:
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

    def state(self, i: int) -> CanonicalElement:
        if i < len(self.tail):
            return self.tail[i]
        return self.cycle[(i - len(self.tail)) % len(self.cycle)]

    def validate(self, p: BoundaryPoint, q: BoundaryPoint) -> bool:
        """Re-check every Moore transition; periodicity makes a finite window sufficient."""
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


def _moore_tables(nucleus: NucleusResult):
    """(k, outputs, sections, elements) of the nucleus Moore diagram, built once per nucleus."""
    tables = vars(nucleus).get("_moore_tables")
    if tables is None:
        aut, index = nucleus.moore_automaton()
        tables = aut.alphabet.size, *_tables(aut), tuple(sorted(index, key=index.get))
        # the result is frozen; the tables are derived data, not a field
        object.__setattr__(nucleus, "_moore_tables", tables)
    return tables


def asymptotic_equivalent(
    nucleus: NucleusResult, p: BoundaryPoint, q: BoundaryPoint
) -> tuple[bool, EquivalenceWitness | None]:
    """Decide p ~ q through the nucleus Moore diagram; return a witness when true."""
    k, out, sec, elements = _moore_tables(nucleus)
    _check_point(p, k)
    _check_point(q, k)
    nstates = len(elements)

    m = max(len(p.preperiod), len(q.preperiod))
    period = lcm(len(p.period), len(q.period))

    # Valid-state sets walking out from the root through the preperiods.
    levels = [set(range(nstates))]
    for i in range(1, m + 1):
        x, y = p.letter(i), q.letter(i)
        cur = {s for s in range(nstates) if out[s][x] == y and sec[s][x] in levels[i - 1]}
        if not cur:
            return False, None
        levels.append(cur)

    # Product graph over the periodic zone: node s + j * nstates means state s
    # at a level with phase j; when s outputs that level's letter it has one
    # arrow down to its section. Live nodes lie behind a cycle, so they admit
    # an infinite extension upward; with one arrow per node they are the cycle
    # nodes, all of which output their letters.
    pairs = [(p.letter(m + 1 + j), q.letter(m + 1 + j)) for j in range(period)]
    below = [[] for _ in range(nstates * period)]
    for j, (x, y) in enumerate(pairs):
        for s in range(nstates):
            if out[s][x] == y:
                below[s + j * nstates].append(sec[s][x] + (j - 1) % period * nstates)
    live = {(v % nstates, v // nstates) for v in _recurrent(below)}

    anchors = sorted(s for s, j in live if j == 0 and sec[s][pairs[0][0]] in levels[m])
    if not anchors:
        return False, None

    # Deterministic witness: minimal anchor, then minimal live parent at each
    # step upward until the (state, phase) pair repeats.
    node = (anchors[0], 0)
    seq = [node]
    seen = {node: 0}
    while True:
        s, j = node
        jp = (j + 1) % period
        xp = pairs[jp][0]
        parent = min(sp for sp in range(nstates) if (sp, jp) in live and sec[sp][xp] == s)
        node = (parent, jp)
        if node in seen:
            entry = seen[node]
            break
        seen[node] = len(seq)
        seq.append(node)

    down = [None] * (m + 1)
    state = sec[anchors[0]][pairs[0][0]]
    for i in range(m, 0, -1):
        down[i] = state
        state = sec[state][p.letter(i)]
    down[0] = state

    tail_ids = down + [s for s, _ in seq[:entry]]
    cycle_ids = [s for s, _ in seq[entry:]]
    witness = EquivalenceWitness(
        tuple(elements[s] for s in tail_ids), tuple(elements[s] for s in cycle_ids)
    )
    return True, witness


def equivalence_class(nucleus: NucleusResult, p: BoundaryPoint) -> set[BoundaryPoint]:
    """All eventually periodic points equivalent to p.

    Along p's letters, the sets of nucleus states compatible with each output
    choice form a finite deterministic graph; members of the class are the
    label sequences of its infinite paths. The live nodes, those starting an
    infinite path, and the nodes behind a cycle both come from one in-degree
    peel. Finiteness of the class makes every node behind a cycle have a
    single live continuation, which a structure check asserts before
    enumerating the lasso-shaped paths.
    """
    k, out, sec, _ = _moore_tables(nucleus)
    _check_point(p, k)
    nstates = len(out)
    m = len(p.preperiod)
    period = len(p.period)

    # Node (i, A): A is the valid-state set after tree level i. Levels past the
    # preperiod only matter by phase, so level m + period is followed by m + 1.
    # The downward constraint is membership of the section in the previous set,
    # so the recurrence threads one state set forward at a time.
    @functools.cache
    def arrows(node) -> dict:
        i, states = node
        x = p.letter(i + 1)
        nxt = i + 1 if i < m + period else m + 1
        sets = [frozenset(s for s in range(nstates) if out[s][x] == y and sec[s][x] in states) for y in range(k)]
        return {y: (nxt, a) for y, a in enumerate(sets) if a}

    # Nodes are numbered in discovery order; edges[i] lists (label, successor).
    nodes, number = _reachable(lambda node: arrows(node).values(), [(0, frozenset(range(nstates)))])
    edges = [[(y, number[nxt]) for y, nxt in arrows(node).items()] for node in nodes]

    # Live nodes start an infinite path: they lie behind a cycle of the
    # reversed graph.
    back = [[] for _ in nodes]
    for i, succs in enumerate(edges):
        for _, j in succs:
            back[j].append(i)
    live = set(_recurrent(back))
    if 0 not in live:
        raise RuntimeError("no infinite path for the point itself; nucleus data inconsistent")

    live_edges = [[(y, j) for y, j in succs if j in live] for succs in edges]
    # A branching node behind a cycle forces one on the cycle, where the path leaves it.
    for i in _recurrent([[j for _, j in succs] for succs in edges]):
        if len(live_edges[i]) > 1:
            raise RuntimeError(
                "equivalence class enumeration found a branching cycle; class not finite"
            )

    results: set[BoundaryPoint] = set()

    def walk(node, labels, entered):
        while True:
            if node in entered:
                idx = entered[node]
                results.add(BoundaryPoint(tuple(labels[:idx]), tuple(labels[idx:])))
                return
            entered[node] = len(labels)
            succs = live_edges[node]
            if len(succs) == 1:
                labels.append(succs[0][0])
                node = succs[0][1]
                continue
            for y, nxt in succs:
                walk(nxt, labels + [y], dict(entered))
            return

    walk(0, [], {})
    return results


def self_similarity_graph(gens: Sequence, depth: int, vertex_cap: int | None = None) -> SimplicialGraph:
    """Words of length <= depth with vertical (drop the first letter) and
    horizontal (generator action within a level) edges."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    aut = _automaton_of(gens)
    k = aut.alphabet.size
    total = sum(k**n for n in range(depth + 1))
    _check_cap(total, vertex_cap)

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
    return SimplicialGraph(tuple(labels), _simple_edges(arrows, total), tuple(levels))


def gh_sequence(
    gens: Sequence, xi: BoundaryPoint, n_max: int, vertex_cap: int | None = None
) -> list[tuple[SimplicialGraph, int]]:
    """Rooted components (component of the xi-prefix, root position) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [pointed_component(gens, xi, n, vertex_cap) for n in range(1, n_max + 1)]
