"""Level-n graphs of the tree action.

Vertices of the level-n graph are the words of length n in lexicographic
order, the leftmost letter most significant, labelled "011" (or "0.10.3",
dots throughout, over more than 10 letters; a level-1 letter above 9 is
"10.", as word_str writes it, so that it does not read back as two
letters). Each generator s contributes one arrow v -> s(v) per vertex.
Images are computed level by level as permutation arrays, so building a
level is linear in |A|^n per state.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .core import Alphabet, Arrays, StateRef, _automaton_of, _distinct, _restrict, _stable_order, word, word_str

DEFAULT_VERTEX_CAP = 2**24


class ResourceCapError(RuntimeError):
    """A requested structure exceeds the configured vertex cap."""


def _check_cap(count: int, vertex_cap: int | None) -> None:
    cap = DEFAULT_VERTEX_CAP if vertex_cap is None else vertex_cap
    if count > cap:
        raise ResourceCapError(
            f"{count} vertices exceed the cap of {cap}; raise it with vertex_cap or --vertex-cap"
        )


def _level_tables(tables: Arrays, rows: Sequence[int], n: int) -> list[np.ndarray]:
    """Image arrays on level n of the table's given rows: rows of the part of the table they reach, grown by level.

    The top level is grown for the given rows only, so a graph keeps no other state's row.
    """
    number, (images, sections) = _restrict(tables, rows)
    k = images.shape[1]
    dtype = np.int32 if k**n <= 2**31 - 1 else np.int64
    images, rows = images.astype(dtype), number[rows]
    table = np.zeros((len(images), 1), dtype=dtype)
    for level in range(n):
        at = rows if level == n - 1 else slice(None)
        table = table[sections[at]]
        table += images[at, :, None] * k**level
        table = table.reshape(len(table), -1)
    return list(table if n else table[rows])


def _vertex_labels(k: int, n: int, vertices: Sequence[int] | None = None) -> tuple[str, ...]:
    """Labels of the level-n words in index order, or of the given vertices only.

    Letters are dot separated throughout when k > 10, and on level 1 a letter
    above 9 keeps word_str's trailing dot ("10."), so no label reads back as
    two letters. Labels of given vertices are joined from two half-length
    tables, so no more than k^ceil(n/2) words are labelled in full.
    """
    sep = "." if k > 10 else ""
    letters = [str(x) for x in range(k)]
    if vertices is not None and n > 1:
        half = k ** (n // 2)
        hi, lo = (tuple(map(sep.join, product(letters, repeat=m))) for m in (n - n // 2, n // 2))
        return tuple(hi[v // half] + sep + lo[v % half] for v in vertices)
    if n == 1:
        labels = tuple(word_str((x,)) for x in range(k))
    else:
        labels = tuple(map(sep.join, product(letters, repeat=n)))
    return labels if vertices is None else tuple(labels[v] for v in vertices)


def _simple_edges(arrows, total: int) -> tuple[tuple[int, int], ...]:
    """Sorted edges (lo, hi), lo < hi, of the arrows in the (src, dst) array pairs.

    Loops are dropped and parallel arrows merged on the keys lo * total + hi.
    """
    keys = [np.empty(0, dtype=np.int64)]
    for src, dst in arrows:
        lo = np.minimum(src, dst).astype(np.int64)
        hi = np.maximum(src, dst).astype(np.int64)
        keep = lo != hi
        keys.append(lo[keep] * total + hi[keep])
    lo, hi = np.divmod(_distinct(np.concatenate(keys)), total)
    return tuple(zip(lo.tolist(), hi.tolist()))


def _component_roots(images: Sequence[np.ndarray], total: int) -> np.ndarray:
    """Least vertex of each vertex's component under the arrows v -> img[v].

    Hook and jump (Shiloach-Vishkin): each root hooks onto the least root
    across its arrows, then parents jump to roots, until a round changes
    nothing. Parents never exceed their vertex, and the rounds grow with
    log |V|, not with the diameter.
    """
    parent = np.arange(total)
    while True:
        before = parent.copy()
        for img in images:
            ends = parent[img]
            np.minimum.at(parent, np.maximum(parent, ends), np.minimum(parent, ends))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        if np.array_equal(parent, before):
            return parent


@dataclass
class LabeledSchreierGraph:
    """Arrows v -> s(v) on level `level`, one per generator and vertex."""

    alphabet_size: int
    level: int
    gen_labels: tuple[str, ...]
    images: list[np.ndarray]

    @property
    def vertex_count(self) -> int:
        return self.alphabet_size**self.level

    @property
    def arrow_count(self) -> int:
        return len(self.gen_labels) * self.vertex_count

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return _vertex_labels(self.alphabet_size, self.level)

    def vertex_label(self, i: int) -> str:
        return self.labels[i]


def build_schreier(
    gens: Sequence[StateRef], n: int, vertex_cap: int | None = None
) -> LabeledSchreierGraph:
    """Level-n graph of the generators' action."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    aut = _automaton_of(gens)
    k, tables = aut.alphabet.size, aut.tables
    _check_cap(k**n, vertex_cap)
    return LabeledSchreierGraph(k, n, tuple(g.name for g in gens), _level_tables(tables, [g.index for g in gens], n))


@dataclass
class SimplicialGraph:
    """Undirected graph: loops dropped, multiple arrows collapsed to one edge."""

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    levels: tuple[int, ...] | None = None

    @property
    def vertex_count(self) -> int:
        return len(self.labels)


def simplicial(graph: LabeledSchreierGraph) -> SimplicialGraph:
    src = np.arange(graph.vertex_count)
    edges = _simple_edges(((src, img) for img in graph.images), graph.vertex_count)
    return SimplicialGraph(graph.labels, edges)


def connected_components(graph: LabeledSchreierGraph) -> list[np.ndarray]:
    """Partition of the vertices, each component sorted, ordered by least vertex."""
    roots = _component_roots(graph.images, graph.vertex_count)
    order, roots = _stable_order(roots)
    # plain slices at the component starts: np.split costs several times more per piece
    cuts = [0, *(np.flatnonzero(np.diff(roots)) + 1).tolist(), len(order)]
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def pointed_component(
    gens: Sequence[StateRef], xi, n: int, vertex_cap: int | None = None
) -> tuple[SimplicialGraph, int]:
    """Component of the level-n graph containing the length-n prefix of xi.

    xi may be a boundary point (anything with a prefix method) or a word.
    Returns the component as a simplicial graph plus the root's position in it.
    """
    graph = build_schreier(gens, n, vertex_cap)
    if hasattr(xi, "prefix"):
        root_word = xi.prefix(n)
    else:
        root_word = word(xi)
        if len(root_word) != n:
            raise ValueError(f"root word must have length {n}")
    root = Alphabet(graph.alphabet_size).index_of(root_word)
    roots = _component_roots(graph.images, graph.vertex_count)
    members = np.flatnonzero(roots == roots[root])
    position = np.zeros(graph.vertex_count, dtype=np.int64)
    position[members] = np.arange(len(members))
    src = np.arange(len(members))
    edges = _simple_edges(((src, position[img[members]]) for img in graph.images), len(members))
    labels = _vertex_labels(graph.alphabet_size, n, members.tolist())
    return SimplicialGraph(labels, edges), int(position[root])
