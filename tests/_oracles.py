"""Independent reference implementations the tests check the library against.

Everything here is deliberately naive: direct interpretation of recursion
documents, union-find over explicit edge lists, path search by plain
memoized recursion, partition refinement by one tuple signature per state
and round ranked in a dict, canonical elements built one tuple state and one
letter at a time, the nucleus closure as one canonical product per pair of
elements, and the recurrence test over a ball of canonical products. No code
is shared with the library's vectorized, peeled or pooled implementations.
"""

import functools
import itertools
from itertools import product

import numpy as np

from selfsim import (
    CanonicalElement,
    NucleusResult,
    RecurrenceVerdict,
    RecursionDocument,
    canonical_state,
)


def doc_act(doc: RecursionDocument, state: str, letters) -> tuple[int, ...]:
    """Act on a word by walking the document's state definitions."""
    by_name = {st.name: st for st in doc.states}
    out = []
    cur = state
    for x in letters:
        st = by_name[cur]
        out.append(st.perm.images[x])
        cur = st.sections[x]
    return tuple(out)


def word_act(doc: RecursionDocument, factors, letters) -> tuple[int, ...]:
    """Act by a product of (state name, +-1) factors; rightmost acts first."""
    by_name = {st.name: st for st in doc.states}

    def one(name, exp, w):
        if exp == 1:
            return doc_act(doc, name, w)
        out = []
        cur = name
        for y in w:
            st = by_name[cur]
            x = st.perm.images.index(y)
            out.append(x)
            cur = st.sections[x]
        return tuple(out)

    w = tuple(letters)
    for name, exp in reversed(factors):
        w = one(name, exp, w)
    return w


def _dense_rank(keys: list) -> tuple[list[int], int]:
    seen: dict = {}
    out = []
    for key in keys:
        if key not in seen:
            seen[key] = len(seen)
        out.append(seen[key])
    return out, len(seen)


def refine_by_signatures(perm_keys, sections) -> tuple[list[int], int]:
    """Moore refinement by signatures: each round ranks (color, section colors) per state.

    Classes are numbered by first occurrence of their signature, so the
    final numbering is by first occurrence of the class.
    """
    color, count = _dense_rank(perm_keys)
    while True:
        sigs = [(color[i], tuple(color[j] for j in sections[i])) for i in range(len(color))]
        color2, count2 = _dense_rank(sigs)
        if count2 == count:
            return color2, count2
        color, count = color2, count2


def product_by_tuples(factors, root):
    """Tables of the state tuples reachable from root, one tuple and one letter at a time.

    Position i of a tuple holds a state of factors[i]; the last position
    reads the input first. Tuples are numbered in discovery order, root first.
    """
    # tuples are keyed last position first, the order in which the action reads them
    back = factors[::-1]
    order = [root[::-1]]
    number = {order[0]: 0}
    images = []
    sections = []
    for t in order:
        rows = [(imgs[q], secs[q]) for (imgs, secs), q in zip(back, t)]
        image_row = []
        section_row = []
        for x in range(len(rows[0][0])):
            y = x
            sec = []
            for img, row in rows:
                sec.append(row[y])
                y = img[y]
            nxt = tuple(sec)
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
            image_row.append(y)
            section_row.append(number[nxt])
        images.append(tuple(image_row))
        sections.append(tuple(section_row))
    return tuple(images), tuple(sections)


def quotient_by_tuples(tables):
    """Quotient by refine_by_signatures: each state's class, each class's first member, class tables."""
    images, sections = tables
    color, _ = refine_by_signatures(images, sections)
    # classes are numbered by first occurrence: class c appears after classes 0..c-1
    reps = []
    for i, c in enumerate(color):
        if c == len(reps):
            reps.append(i)
    class_images = tuple(images[r] for r in reps)
    class_sections = tuple(tuple(color[j] for j in sections[r]) for r in reps)
    return color, reps, (class_images, class_sections)


def inverse_rows_by_tuples(tables):
    """Inverse rows: state i of the result is q_i^-1; section indices name the inverses."""
    images, sections = tables
    inv_images = []
    inv_sections = []
    for img, row in zip(images, sections):
        inv = [0] * len(img)
        for x, y in enumerate(img):
            inv[y] = x
        inv_images.append(tuple(inv))
        inv_sections.append(tuple(row[x] for x in inv))
    return tuple(inv_images), tuple(inv_sections)


def bfs_root_by_tuples(tables, root) -> CanonicalElement:
    """Renumber the part reachable from root in breadth-first order, one queue entry at a time."""
    images, sections = tables
    order = [root]
    number = {root: 0}
    for q in order:
        for j in sections[q]:
            if j not in number:
                number[j] = len(order)
                order.append(j)
    return CanonicalElement(
        len(images[0]),
        np.array([images[i] for i in order], dtype=np.int64).tobytes(),
        np.array([tuple(number[j] for j in sections[i]) for i in order], dtype=np.int64).tobytes(),
    )


def canonical_by_tuples(tables, root) -> CanonicalElement:
    color, _, quotient = quotient_by_tuples(tables)
    return bfs_root_by_tuples(quotient, color[root])


def canonicalize_by_tuples(gw) -> CanonicalElement:
    """Canonical element of a group word over the states of an automaton without inverses."""
    aut = gw.generators[0].automaton
    assert not aut.inverse_closed
    if not gw.factors:
        return CanonicalElement.identity(aut.alphabet.size)
    # the inverse of state i is state i + m
    m = len(aut)
    images = tuple(p.images for p in aut.perms)
    inv_images, inv_sections = inverse_rows_by_tuples((images, aut.sections))
    tables = (images + inv_images, aut.sections + tuple(tuple(j + m for j in row) for row in inv_sections))
    root = tuple(gw.generators[pos].index + (0 if exp == 1 else m) for pos, exp in gw.factors)
    return canonical_by_tuples(product_by_tuples([tables] * len(root), root), 0)


def _lists(a: CanonicalElement):
    """An element's tables as lists of rows of Python ints."""
    return a.perms.tolist(), a.sections.tolist()


def mul_by_tuples(a: CanonicalElement, b: CanonicalElement) -> CanonicalElement:
    return canonical_by_tuples(product_by_tuples([_lists(a), _lists(b)], (0, 0)), 0)


def inverse_by_tuples(a: CanonicalElement) -> CanonicalElement:
    return bfs_root_by_tuples(inverse_rows_by_tuples(_lists(a)), 0)


def state_element_by_tuples(a: CanonicalElement, i: int) -> CanonicalElement:
    return bfs_root_by_tuples(_lists(a), i)


def words_upto(k: int, n: int):
    for length in range(n + 1):
        yield from product(range(k), repeat=length)


def level_images(doc: RecursionDocument, n: int) -> list[list[int]]:
    """Per state of the document, the index of each level-n word's image, words in index order."""
    words = list(product(range(doc.alphabet_size), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    return [[index[doc_act(doc, st.name, w)] for w in words] for st in doc.states]


def arrow_rows(graph) -> list[tuple[int, int, str]]:
    """(src, dst, generator) of a labeled graph's arrows, generator by generator,
    each generator's arrows in vertex order, read entry by entry from its images."""
    rows = []
    for label, img in zip(graph.gen_labels, graph.images):
        for v in range(graph.vertex_count):
            rows.append((v, int(img[v]), label))
    return rows


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def component_count(n_vertices: int, edges) -> int:
    uf = UnionFind(n_vertices)
    for a, b in edges:
        uf.union(a, b)
    return len({uf.find(v) for v in range(n_vertices)})


def component_sets(n_vertices: int, edges) -> set[frozenset]:
    uf = UnionFind(n_vertices)
    for a, b in edges:
        uf.union(a, b)
    groups: dict[int, set] = {}
    for v in range(n_vertices):
        groups.setdefault(uf.find(v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


def equivalent_points(out, sec, p, q, nstates: int) -> bool:
    """Path-search oracle for asymptotic equivalence.

    Points are equivalent iff there is a backward-infinite chain of states
    s_0 <- s_1 <- s_2 <- ... with out[s_i][x_i] == y_i and
    sec[s_i][x_i] == s_{i-1} for all i >= 1. Beyond the preperiods the
    letter pair at level i depends only on i mod lcm of the period lengths,
    so the chain exists iff in the finite graph on (state, phase) nodes some
    node reachable from a valid start lies in the largest subgraph where
    every node keeps a successor.
    """
    from math import lcm

    m = max(len(p.preperiod), len(q.preperiod))
    period = lcm(len(p.period), len(q.period))

    def down_ok(s, i):
        # can s sit at level i and chain down to the root through level 1?
        while i >= 1:
            x, y = p.letter(i), q.letter(i)
            if out[s][x] != y:
                return False
            s = sec[s][x]
            i -= 1
        return True

    stems = [s for s in range(nstates) if down_ok(s, m)]
    if not stems:
        return False

    # node (s, ph) stands for state s at any level i > m with
    # i == m + 1 + ph (mod period); letters there are fixed by ph.
    X = [p.letter(m + 1 + ph) for ph in range(period)]
    Y = [q.letter(m + 1 + ph) for ph in range(period)]
    valid = {(s, ph) for s in range(nstates) for ph in range(period)
             if out[s][X[ph]] == Y[ph]}
    succ = {
        node: [(t, (node[1] + 1) % period) for t in range(nstates)
               if (t, (node[1] + 1) % period) in valid
               and sec[t][X[(node[1] + 1) % period]] == node[0]]
        for node in valid
    }

    starts = [(t, 0) for t in range(nstates)
              if (t, 0) in valid and sec[t][X[0]] in stems]
    reach = set()
    stack = list(starts)
    while stack:
        node = stack.pop()
        if node in reach:
            continue
        reach.add(node)
        stack.extend(succ[node])

    core = set(valid)
    while True:
        dead = {node for node in core if not any(nxt in core for nxt in succ[node])}
        if not dead:
            break
        core -= dead
    return bool(reach & core)


def recurrent_nodes(successors) -> list[int]:
    """Nodes that end some walk with a length in [N, 2N), N the node count.

    A walk of N or more steps repeats a node, so its end lies behind a
    cycle. Conversely, walks into a node d steps behind a cycle of length
    c <= N come in every length d + t*c, and one of them falls in [N, 2N).
    """
    n = len(successors)
    ends = set(range(n))
    found = set()
    for length in range(1, 2 * n):
        ends = {j for i in ends for j in successors[i]}
        if length >= n:
            found |= ends
    return sorted(found)


def nucleus_by_products(gens, max_elements: int = 10000, max_depth: int = 20) -> NucleusResult:
    """The nucleus closure and its depth certificate, one canonical product per pair.

    Seeds are the recurrent sections of the identity, the generators and
    their inverses; every round folds in the recurrent sections of all
    products of two members until nothing new appears or max_elements is
    passed. The certificate multiplies every pair of S u N and walks each
    product level by level until all its states are inside N.
    """
    if not gens:
        raise ValueError("need at least one generator")
    k = gens[0].automaton.alphabet.size
    named = [(g.name, canonical_state(g)) for g in gens]
    seeds: dict[CanonicalElement, None] = {CanonicalElement.identity(k): None}
    symmetric: dict[CanonicalElement, None] = {CanonicalElement.identity(k): None}
    for _, el in named:
        symmetric.setdefault(el)
        symmetric.setdefault(el.inverse())
    for el in symmetric:
        for j in recurrent_nodes(el.sections):
            seeds.setdefault(el.state_element(j))

    members: dict[CanonicalElement, None] = dict(seeds)
    frontier = list(members)
    gen_elements = tuple(named)
    while frontier:
        new: list[CanonicalElement] = []
        existing = list(members)
        frontier_set = set(frontier)
        pair_iter = itertools.chain(
            itertools.product(existing, frontier),
            itertools.product(frontier, [e for e in existing if e not in frontier_set]),
        )
        for left, right in pair_iter:
            prod = left * right
            for s in map(prod.state_element, recurrent_nodes(prod.sections)):
                if s not in members:
                    members[s] = None
                    new.append(s)
                    if len(members) > max_elements:
                        return NucleusResult(
                            "bound-exceeded", None, None, max_elements, max_depth,
                            witness_count=len(members), reason="elements",
                            gen_elements=gen_elements,
                        )
        frontier = new

    elements = tuple(sorted(members, key=lambda e: e.sort_key))
    element_set = set(elements)

    # least k with (S u N)^2 restricted to words of length k inside N
    pool: dict[CanonicalElement, None] = {}
    for el in symmetric:
        pool.setdefault(el)
    for el in elements:
        pool.setdefault(el)
    depth = 1
    for left, right in itertools.product(pool, repeat=2):
        prod = left * right
        # membership only of the states the walk reaches, each tested once
        inside = functools.cache(lambda i: prod.state_element(i) in element_set)
        level = {0}
        d = 0
        while True:
            level = {prod.sections[i][x] for i in level for x in range(prod.k)}
            d += 1
            if all(inside(i) for i in level):
                break
            if d >= max_depth:
                return NucleusResult(
                    "bound-exceeded", None, None, max_elements, max_depth,
                    witness_count=len(elements), reason="depth",
                    gen_elements=gen_elements,
                )
        depth = max(depth, d)
    return NucleusResult(
        "contracting", elements, depth, max_elements, max_depth,
        gen_elements=gen_elements,
    )


def recurrence_by_products(gens, max_word_length: int = 8) -> RecurrenceVerdict:
    """The recurrence test with one canonical product per element of the word ball.

    Level-1 transitivity by union-find; then the words of length up to
    max_word_length, formed one product at a time, are searched for elements
    that fix letter 0 and whose sections at 0 hit every generator.
    """
    if not gens:
        raise ValueError("need at least one generator")
    aut = gens[0].automaton
    k = aut.alphabet.size
    perms = [aut.perms[g.index] for g in gens]
    if component_count(k, [(x, p(x)) for p in perms for x in range(k)]) > 1:
        return RecurrenceVerdict("false")

    targets = {canonical_state(g) for g in gens}
    found: set[CanonicalElement] = set()
    step: list[CanonicalElement] = []
    for g in gens:
        el = canonical_state(g)
        step.extend([el, el.inverse()])
    ball: dict[CanonicalElement, None] = {CanonicalElement.identity(k): None}
    frontier_elems = [CanonicalElement.identity(k)]
    for _ in range(max_word_length):
        new_elems: list[CanonicalElement] = []
        for e in frontier_elems:
            for s in step:
                prod = e * s
                if prod in ball:
                    continue
                ball[prod] = None
                new_elems.append(prod)
                if prod.act((0,)) == (0,):
                    sec = prod.section((0,))
                    if sec in targets:
                        found.add(sec)
                        if found == targets:
                            return RecurrenceVerdict("true")
        frontier_elems = new_elems
    return RecurrenceVerdict("inconclusive", max_word_length)
