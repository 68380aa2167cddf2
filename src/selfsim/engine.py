"""Group elements generated by automaton states, with decidable equality.

A group word over the states is canonicalized by building the Mealy
automaton of all its sections, minimizing it, and renumbering the part
reachable from the word breadth first. Minimal reachable rooted automata
are unique per action, so two words are equal in the group exactly when
their canonical tables coincide; CanonicalElement instances therefore
hash and compare by value.

The nucleus of the generated group is the set of sections that keep
recurring arbitrarily deep in products, computed as a closure: seed with
the recurrent sections of the generators and their inverses, then fold in
the recurrent sections of all pairwise products until stable or a bound
trips. Recurrent sections of a finite-state element are the states
reachable through a cycle of its automaton. The closure keeps every
element it meets as one state of a pool, a single table of pairwise
distinct elements, so an element is an int and a product of two is a node
of the pool's pair graph. Recurrent sections of products are the pairs
behind a cycle of that graph, and each pair is interned once, by one
quotient of the pool with the new pairs; the depth certificate walks the
pool states below the interned root pairs. The recurrence test searches its
ball of words on a pool too, so every search over products of elements runs
on pool states and none canonicalizes a product on its own.

The table operations behind canonical elements run on numpy tables: product,
quotient and inverse rows in selfsim.core, the breadth-first renumbering here,
a frontier at a time. A CanonicalElement's tuples are built once, when it is
made; the pool keeps tuple tables.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Alphabet,
    Arrays,
    MealyAutomaton,
    Permutation,
    StateRef,
    Tables,
    _array,
    _inverse_rows,
    _product_tables,
    _quotient,
    _reachable,
    _recurrent,
    _tables,
    _tuples,
    _walk,
    invert,
)


def _bfs_root(tables: Tables | Arrays, root: int) -> "CanonicalElement":
    """Renumber the part reachable from root in breadth-first order.

    Frontier by frontier: new states are numbered by first occurrence in the
    frontier's flattened section rows, the order a queue meets them in.
    """
    images, sections = map(_array, tables)
    seen = np.zeros(len(images), dtype=bool)
    seen[root] = True
    order = [np.array([root])]
    while len(order[-1]):
        met = sections[order[-1]].ravel()
        order.append(np.fromiter(dict.fromkeys(met[~seen[met]].tolist()), np.int64))
        seen[order[-1]] = True
    order = np.concatenate(order)
    number = np.empty(len(images), dtype=np.int64)
    number[order] = np.arange(len(order))
    return CanonicalElement(images.shape[1], _tuples(images[order]), _tuples(number[sections[order]]))


def _stack(elements: Sequence["CanonicalElement"]) -> tuple[Arrays, np.ndarray]:
    """One table of the elements' states, each element's after the one before, and where each starts."""
    starts = np.cumsum([0, *(el.size for el in elements)])[:-1]
    images = np.concatenate([_array(el.perms) for el in elements])
    sections = np.concatenate([_array(el.sections) + start for el, start in zip(elements, starts)])
    return (images, sections), starts


def _canonical(tables: Tables | Arrays, root: int) -> "CanonicalElement":
    """Minimize raw action tables and canonicalize the state at root."""
    color, _, quotient = _quotient(tables)
    return _bfs_root(quotient, color[root])


@dataclass(frozen=True)
class CanonicalElement:
    """A tree automorphism in canonical form: root is state 0 of a minimal automaton.

    perms[i] is the output image row of state i and sections[i][x] the state
    below letter x. Equality of instances is equality in the group.
    """

    k: int
    perms: tuple[tuple[int, ...], ...]
    sections: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # hashed constantly by closure sets; the tables never change
        object.__setattr__(self, "_hash", hash((self.k, self.perms, self.sections)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def identity(cls, k: int) -> "CanonicalElement":
        return cls(k, (tuple(range(k)),), ((0,) * k,))

    @property
    def size(self) -> int:
        return len(self.perms)

    @property
    def is_identity(self) -> bool:
        return self.size == 1 and self.perms[0] == tuple(range(self.k)) and self.sections[0] == (0,) * self.k

    @property
    def sort_key(self):
        return (self.size, self.perms, self.sections)

    def act(self, letters: Sequence[int] | str) -> tuple[int, ...]:
        return _walk((self.perms, self.sections), 0, Alphabet(self.k).check_word(letters))[0]

    def section(self, letters: Sequence[int] | str) -> "CanonicalElement":
        tables = (self.perms, self.sections)
        return _bfs_root(tables, _walk(tables, 0, Alphabet(self.k).check_word(letters))[1])

    def state_element(self, i: int) -> "CanonicalElement":
        """The element represented by internal state i."""
        return _bfs_root((self.perms, self.sections), i)

    def __mul__(self, other: "CanonicalElement") -> "CanonicalElement":
        if not isinstance(other, CanonicalElement):
            return NotImplemented
        if self.k != other.k:
            raise ValueError("elements act on different alphabets")
        return _canonical(_product_tables(*_stack([self, other])), 0)

    def inverse(self) -> "CanonicalElement":
        # the inverse rows of a minimal reachable table are minimal and reachable too
        return _bfs_root(_inverse_rows((self.perms, self.sections)), 0)

    def __pow__(self, n: int) -> "CanonicalElement":
        if n == 0:
            return CanonicalElement.identity(self.k)
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def __repr__(self) -> str:
        return f"CanonicalElement(k={self.k}, states={self.size})"


@dataclass(frozen=True)
class GroupWord:
    """Product of generators and inverses; the rightmost factor acts first."""

    generators: tuple[StateRef, ...]
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("a word needs a generator basis")
        aut = self.generators[0].automaton
        if any(g.automaton is not aut and g.automaton != aut for g in self.generators):
            raise ValueError("all generators must come from one automaton")
        for pos, exp in self.factors:
            if not 0 <= pos < len(self.generators):
                raise ValueError(f"factor index {pos} out of range")
            if exp not in (1, -1):
                raise ValueError("exponents must be +1 or -1")

    def reduce(self) -> "GroupWord":
        """Free reduction: cancel adjacent g g^-1 pairs."""
        stack: list[tuple[int, int]] = []
        for f in self.factors:
            if stack and stack[-1][0] == f[0] and stack[-1][1] == -f[1]:
                stack.pop()
            else:
                stack.append(f)
        return GroupWord(self.generators, tuple(stack))

    def inverse(self) -> "GroupWord":
        return GroupWord(self.generators, tuple((p, -e) for p, e in reversed(self.factors)))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.generators != other.generators:
            raise ValueError("words must share a generator basis")
        return GroupWord(self.generators, self.factors + other.factors)


def canonical_state(state: StateRef) -> CanonicalElement:
    """Canonical element acting like a single automaton state."""
    return _canonical(_tables(state.automaton), state.index)


def canonicalize(gw: GroupWord) -> CanonicalElement:
    """Canonical element of a group word; decides the word problem."""
    base = gw.generators[0].automaton
    aut = invert(base)
    assert aut.inverse_index is not None
    if not gw.factors:
        return CanonicalElement.identity(aut.alphabet.size)
    factor_states = tuple(
        gw.generators[pos].index if exp == 1 else aut.inverse_index[gw.generators[pos].index]
        for pos, exp in gw.factors
    )
    return _canonical(_product_tables(_tables(aut), factor_states), 0)


def canonical_generators(gens: Sequence[StateRef]) -> list[tuple[str, CanonicalElement]]:
    return [(g.name, canonical_state(g)) for g in gens]


def recurrent_sections(e: CanonicalElement) -> list[CanonicalElement]:
    """Sections of e occurring at arbitrarily deep words.

    These are the states of e's automaton reachable from a cycle: any
    sufficiently long path revisits a state, and any state behind a cycle is
    hit at unboundedly many depths. They are what is left after peeling off
    states no remaining section points to, listed in ascending state order.
    """
    uniq: dict[CanonicalElement, None] = {}
    for j in _recurrent(e.sections):
        uniq.setdefault(e.state_element(j))
    return list(uniq)


@dataclass(frozen=True)
class NucleusResult:
    """Outcome of a nucleus computation.

    verdict is "contracting" with the nucleus elements and the least depth k
    at which every product of two elements of S union N has all its sections
    back inside N, or "bound-exceeded" when the closure passed max_elements
    (reason "elements") or no such depth was certified within max_depth
    (reason "depth").
    """

    verdict: str
    elements: tuple[CanonicalElement, ...] | None
    depth: int | None
    max_elements: int
    max_depth: int
    witness_count: int | None = None
    reason: str | None = None
    gen_elements: tuple[tuple[str, CanonicalElement], ...] = field(default=(), compare=False)

    @property
    def is_contracting(self) -> bool:
        return self.verdict == "contracting"

    def element_names(self) -> list[str]:
        """Deterministic printable names: id, generator names, then n<i>."""
        assert self.elements is not None
        named: dict[CanonicalElement, str] = {CanonicalElement.identity(self.elements[0].k if self.elements else 2): "id"}
        for name, el in self.gen_elements:
            named.setdefault(el, name)
            named.setdefault(el.inverse(), name + "^-1")
        out = []
        for i, el in enumerate(self.elements):
            out.append(named.get(el, f"n{i}"))
        return out

    def moore_automaton(self) -> tuple[MealyAutomaton, dict[CanonicalElement, int]]:
        """The nucleus as a Mealy automaton; the nucleus is closed under sections."""
        if not self.is_contracting:
            raise NotContractingError("no nucleus: verdict is bound-exceeded")
        assert self.elements is not None
        index = {el: i for i, el in enumerate(self.elements)}
        k = self.elements[0].k
        names = tuple(self.element_names())
        perms = tuple(Permutation(el.perms[0]) for el in self.elements)
        sections = []
        for el in self.elements:
            row = []
            for x in range(k):
                sec = el.section((x,))
                row.append(index[sec])
            sections.append(tuple(row))
        aut = MealyAutomaton(Alphabet(k), names, perms, tuple(sections))
        return aut, index


class NotContractingError(RuntimeError):
    """The operation needs a contracting nucleus but none was certified."""


class _Pool:
    """Pairwise distinct elements as the states of one (images, sections) table.

    The pair (p, q) of pool states stands for the product p q; in the pair
    graph its successors are (p|_{q(x)}, q|_x), one per letter x. cls maps
    every pair met to its pool state once intern() has placed it, and to -1
    before.
    """

    def __init__(self, elements: Sequence[CanonicalElement]) -> None:
        tables, starts = _stack(elements)
        color, _, tables = _quotient(tables)
        self.tables = tuple(map(_tuples, tables))
        self.ids = color[starts].tolist()
        self.cls: dict[tuple[int, int], int] = {}

    def successors(self, pair: tuple[int, int]) -> list[tuple[int, int]]:
        images, sections = self.tables
        p, q = pair
        return [(sections[p][y], sections[q][x]) for x, y in enumerate(images[q])]

    @classmethod
    def seeded(cls, named: Sequence[tuple[str, CanonicalElement]], k: int) -> "_Pool":
        """The pool of the identity, then each generator and its inverse: ids in that order."""
        return cls([CanonicalElement.identity(k), *(g for _, el in named for g in (el, el.inverse()))])

    def explore(self, roots: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """The pairs reachable from roots that were not met before, breadth first."""
        new, _ = _reachable(
            lambda pair: [s for s in self.successors(pair) if s not in self.cls],
            [root for root in roots if root not in self.cls],
        )
        self.cls.update(dict.fromkeys(new, -1))
        return new

    def intern(self, pairs: Sequence[tuple[int, int]]) -> None:
        """Place pairs in the pool; every successor of one is placed or among them.

        Classes of the quotient are numbered by first occurrence, so pool
        states keep their numbers and each new class is the next state.
        """
        if not pairs:
            return
        images, sections = self.tables
        local = {pair: len(images) + i for i, pair in enumerate(pairs)}
        new_images = tuple(tuple(images[p][y] for y in images[q]) for p, q in pairs)
        new_sections = tuple(
            tuple(local[s] if self.cls[s] < 0 else self.cls[s] for s in self.successors(pair)) for pair in pairs
        )
        color, _, tables = _quotient((images + new_images, sections + new_sections))
        self.tables, color = tuple(map(_tuples, tables)), color.tolist()
        for pair in pairs:
            self.cls[pair] = color[local[pair]]

    def add(self, roots: Iterable[tuple[int, int]]) -> None:
        """Explore from roots, then place every pair met and not placed yet."""
        self.explore(roots)
        self.intern([pair for pair, c in self.cls.items() if c < 0])


def compute_nucleus(
    gens: Sequence[StateRef], max_elements: int = 10000, max_depth: int = 20
) -> NucleusResult:
    """The nucleus of the generated group, bounded by max_elements and max_depth.

    Members start as the recurrent sections of S: the identity, the
    generators and their inverses. The recurrent sections of a product l r
    of members are the pairs behind a cycle of the pair graph below (l, r),
    so the closure explores pairs of members in the order the members
    joined, about one pool's worth of new pairs per batch, interns the
    batch's newly recurrent pairs as members, and stops as soon as there are
    more than max_elements. The certificate interns every pair below
    (S u N)^2 and walks the pool states below them: a state in N needs
    level 0, any other state and every root one level more than its
    sections need. A need above max_depth, or a cycle of states outside N,
    is bound-exceeded.
    """
    if not gens:
        raise ValueError("need at least one generator")
    k = gens[0].automaton.alphabet.size
    named = canonical_generators(gens)
    gen_elements = tuple(named)
    pool = _Pool.seeded(named, k)
    # every pool state is a section of S, so the recurrent ones are S's recurrent sections
    members = _recurrent(pool.tables[1])
    member_set = set(members)

    todo: list[tuple[int, int]] = []
    batch: list[tuple[int, int]] = []
    i = 0
    while todo or i < len(members):
        if not todo:
            c = members[i]
            todo = [*((d, c) for d in members[:i]), *((c, d) for d in members[:i]), (c, c)]
            i += 1
        batch += pool.explore([todo.pop()])
        if len(batch) < len(pool.tables[0]) and (todo or i < len(members)):
            continue
        # older pairs never lead to new ones, so a cycle through a new pair lies in
        # the batch, and what newly lies behind a cycle is reachable from those
        number = {pair: n for n, pair in enumerate(batch)}
        cycles = _recurrent([[number[s] for s in pool.successors(pair) if s in number] for pair in batch])
        fresh, _ = _reachable(
            lambda pair: [s for s in pool.successors(pair) if pool.cls[s] < 0], [batch[n] for n in cycles]
        )
        pool.intern(fresh)
        batch = []
        # members join one at a time, and the one that passes the bound is the witness
        bound = max(len(members), max_elements)
        for pair in fresh:
            if pool.cls[pair] not in member_set:
                member_set.add(pool.cls[pair])
                members.append(pool.cls[pair])
        if len(members) > bound:
            return NucleusResult(
                "bound-exceeded", None, None, max_elements, max_depth,
                witness_count=bound + 1, reason="elements",
                gen_elements=gen_elements,
            )

    tables = tuple(map(_array, pool.tables))
    elements = tuple(sorted((_bfs_root(tables, m) for m in members), key=lambda e: e.sort_key))

    ids = list(dict.fromkeys([*pool.ids, *members]))
    roots = [(p, q) for p in ids for q in ids]
    pool.add(roots)
    sections = pool.tables[1]
    tops = list(dict.fromkeys(pool.cls[root] for root in roots))
    states, _ = _reachable(sections.__getitem__, tops)
    # need[s]: the least level below state s at which every section is in N
    need = {s: 0 for s in states if s in member_set}
    rest = [s for s in states if s not in need]
    for level in range(1, max_depth):
        done = [s for s in rest if all(t in need for t in sections[s])]
        if not done:
            break
        need.update(dict.fromkeys(done, level))
        rest = [s for s in rest if s not in need]
    depth = 1
    for top in tops:
        below = [need.get(t) for t in sections[top]]
        if None in below:
            return NucleusResult(
                "bound-exceeded", None, None, max_elements, max_depth,
                witness_count=len(elements), reason="depth",
                gen_elements=gen_elements,
            )
        depth = max(depth, 1 + max(below))
    return NucleusResult(
        "contracting", elements, depth, max_elements, max_depth,
        gen_elements=gen_elements,
    )


@dataclass(frozen=True)
class RecurrenceVerdict:
    """Three-valued outcome: kind is "true", "false" or "inconclusive"."""

    kind: str
    word_length_bound: int | None = None

    def __bool__(self) -> bool:
        return self.kind == "true"


def is_recurrent(gens: Sequence[StateRef], max_word_length: int = 8) -> RecurrenceVerdict:
    """Bounded test that the action is recurrent (self-replicating).

    Checks level-1 transitivity, then looks for words that stabilize letter 0
    whose sections at 0 hit every generator class. Finding all of them proves
    recurrence; a nontransitive level-1 action refutes it; otherwise the
    verdict is inconclusive at the given word length bound. The ball of words
    is a set of pool states, grown one word length at a time: the pairs of
    the last length's new states with the generators and their inverses are
    added to the pool at once, so no product is canonicalized on its own.
    """
    if not gens:
        raise ValueError("need at least one generator")
    aut = gens[0].automaton
    k = aut.alphabet.size
    perms = [aut.perms[g.index] for g in gens]
    moves = [[p(x) for p in perms] + [p.inverse()(x) for p in perms] for x in range(k)]
    if len(_reachable(moves.__getitem__, [0])[0]) < k:
        return RecurrenceVerdict("false")

    pool = _Pool.seeded(canonical_generators(gens), k)
    steps = pool.ids[1:]
    targets = set(pool.ids[1::2])
    found: set[int] = set()
    frontier = [pool.ids[0]]
    ball = set(frontier)
    # its own loop, not _reachable: the ball stops at max_word_length and the search at the first proof,
    # checked once per word length
    for _ in range(max_word_length):
        pool.add([(e, s) for e in frontier for s in steps])
        images, sections = pool.tables
        frontier = [c for c in dict.fromkeys(pool.cls[e, s] for e in frontier for s in steps) if c not in ball]
        ball.update(frontier)
        found.update(sections[c][0] for c in frontier if images[c][0] == 0)
        if targets <= found:
            return RecurrenceVerdict("true")
    return RecurrenceVerdict("inconclusive", max_word_length)
