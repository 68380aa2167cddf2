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
element it meets as one state of a pool, a single numpy table of pairwise
distinct elements that starts as the automaton's own inverse-closed table,
root by root. So an element is an int and a product of two is a node of the
pool's pair graph, kept in arrays: sorted pair keys, successor pairs and
pool states. The closure, its depth certificate and the recurrence test
explore it a frontier of pairs at a time and place new pairs with one
quotient of the pool per batch. The closure's batches double, so there are
logarithmically many quotients. No product is canonicalized on its own.

The table operations behind canonical elements run on numpy tables: product,
quotient and inverse rows in selfsim.core, the breadth-first renumbering here,
a frontier at a time. A CanonicalElement holds its two tables as the bytes of
(n, k) int64 arrays, so the kernel reads them back without a conversion.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
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
    _automaton_of,
    _distinct,
    _inverse_rows,
    _product_tables,
    _quotient,
    _reachable,
    _recurrent,
    _tables,
    _walk,
    invert,
)


def _frontiers(roots: np.ndarray, meet: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """roots, then breadth first what meet returns: meet maps a frontier to the nodes it meets first."""
    order = [roots]
    while len(order[-1]):
        order.append(meet(order[-1]))
    return np.concatenate(order)


def _unseen(met: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The nodes of met that seen does not mark, in order of first occurrence; marks them."""
    new = np.fromiter(dict.fromkeys(met[~seen[met]].tolist()), np.int64)
    seen[new] = True
    return new


def _bfs_root(tables: Arrays, root: int) -> "CanonicalElement":
    """Renumber the part reachable from root in breadth-first order.

    Frontier by frontier: new states are numbered by first occurrence in the
    frontier's flattened section rows, the order a queue meets them in.
    """
    images, sections = tables
    seen = np.zeros(len(images), dtype=bool)
    seen[root] = True
    order = _frontiers(np.array([root]), lambda frontier: _unseen(sections[frontier].ravel(), seen))
    number = np.empty(len(images), dtype=np.int64)
    number[order] = np.arange(len(order))
    return CanonicalElement(images.shape[1], images[order].tobytes(), number[sections[order]].tobytes())


def _canonical(tables: Tables | Arrays, root: int) -> "CanonicalElement":
    """Minimize raw action tables and canonicalize the state at root."""
    color, _, quotient = _quotient(tables)
    return _bfs_root(quotient, color[root])


@dataclass(frozen=True)
class CanonicalElement:
    """A tree automorphism in canonical form: root is state 0 of a minimal automaton.

    perms[i] is the output image row of state i and sections[i][x] the state
    below letter x: read-only (n, k) int64 views of the bytes it compares and
    hashes by. Equality of instances is equality in the group.
    """

    k: int
    image_bytes: bytes
    section_bytes: bytes

    @classmethod
    def identity(cls, k: int) -> "CanonicalElement":
        return cls(k, np.arange(k, dtype=np.int64).tobytes(), np.zeros(k, dtype=np.int64).tobytes())

    @property
    def perms(self) -> np.ndarray:
        return np.frombuffer(self.image_bytes, np.int64).reshape(-1, self.k)

    @property
    def sections(self) -> np.ndarray:
        return np.frombuffer(self.section_bytes, np.int64).reshape(-1, self.k)

    @property
    def size(self) -> int:
        return len(self.perms)

    @property
    def is_identity(self) -> bool:
        return self == CanonicalElement.identity(self.k)

    @property
    def sort_key(self):
        return (self.size, self.perms.tolist(), self.sections.tolist())

    def act(self, letters: Sequence[int] | str) -> tuple[int, ...]:
        return tuple(map(int, _walk((self.perms, self.sections), 0, Alphabet(self.k).check_word(letters))[0]))

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
        # one table of both elements' states, other's after self's
        images = np.concatenate((self.perms, other.perms))
        sections = np.concatenate((self.sections, other.sections + self.size))
        return _canonical(_product_tables((images, sections), [0, self.size]), 0)

    def inverse(self) -> "CanonicalElement":
        # the inverse rows of a minimal reachable table are minimal and reachable too
        return _bfs_root(_inverse_rows((self.perms, self.sections)), 0)

    def __pow__(self, n: int) -> "CanonicalElement":
        if n == 0:
            return CanonicalElement.identity(self.k)
        base = self if n > 0 else self.inverse()
        return _canonical(_product_tables((base.perms, base.sections), [0] * abs(n)), 0)

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
        _automaton_of(self.generators)
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
        perms = tuple(Permutation(tuple(el.perms[0].tolist())) for el in self.elements)
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


# a pair (p, q) of pool states is keyed p << 32 | q; a sorted index ends in a sentinel above every key
_LOW = (1 << 32) - 1
_SENTINEL = np.iinfo(np.int64).max


def _find(keys: np.ndarray, at: np.ndarray, query: np.ndarray) -> np.ndarray:
    """at[i] where keys[i] equals the query key, element by element, or -1; keys sorted."""
    pos = np.searchsorted(keys, query)
    found = at[pos]
    found[keys[pos] != query] = -1
    return found


def _merge(keys: np.ndarray, at: np.ndarray, new: np.ndarray, number: np.ndarray) -> Arrays:
    """The sorted index keys/at with the sorted keys new joined, numbered number."""
    slot = np.searchsorted(keys, new)
    slot += np.arange(len(new))
    old = np.ones(len(keys) + len(new), dtype=bool)
    old[slot] = False
    merged = np.empty(len(old), dtype=keys.dtype), np.empty(len(old), dtype=at.dtype)
    merged[0][slot], merged[0][old] = new, keys
    merged[1][slot], merged[1][old] = number, at
    return merged


class _Pool:
    """Pairwise distinct elements as the states of one (images, sections) table.

    It starts as the inverse closure's rows each root reaches, root after
    root, minimized; ids holds the roots' states: identity, g1, g1^-1, ....
    The pair (p, q) of pool states stands for the product p q and is keyed
    p << 32 | q; in the pair graph its successors are (p|_{q(x)}, q|_x), one
    per letter x. Pairs are numbered as they are met. succ holds each pair's
    successor numbers and cls its pool state, -1 until place() puts it
    there; keys holds the keys in sorted order and at the number of each.
    """

    def __init__(self, gens: Sequence[StateRef]) -> None:
        aut = invert(_automaton_of(gens))
        assert aut.inverse_index is not None
        images, sections = map(_array, _tables(aut))
        e, k = images.shape
        # row e is the identity
        images, sections = np.vstack((images, np.arange(k))), np.vstack((sections, np.full(k, e)))
        roots = [e, *(i for g in gens for i in (g.index, aut.inverse_index[g.index]))]
        below = sections.tolist().__getitem__
        order = np.concatenate([_reachable(below, [r])[0] for r in roots])
        # a state met by several roots has a row in each; sections point at its first
        row = np.full(e + 1, len(order))
        np.minimum.at(row, order, np.arange(len(order)))
        color, _, (self.images, self.sections) = _quotient((images[order], row[sections[order]]))
        self.ids = color[row[roots]]
        # pair numbers and pool states fit in int32, which halves most of the pair store
        self.cls = np.empty(0, dtype=np.int32)
        self.succ = np.empty((0, self.images.shape[1]), dtype=np.int32)
        self.keys, self.at = np.array([_SENTINEL]), np.array([-1], dtype=np.int32)

    def explore(self, roots: np.ndarray) -> int:
        """Meet the pairs reachable from the root keys; those not met before are numbered from the result on.

        Each frontier's new pairs are numbered in key order, in an index of the
        batch's own that joins the pool's at the end.
        """
        start, k = len(self.cls), self.images.shape[1]
        keys, at, rows = self.keys[-1:], self.at[-1:], []

        def meet(met: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # the number of each key met, and the keys not met before, sorted
            nonlocal keys, at
            number = _find(self.keys, self.at, met)
            miss = number < 0
            number[miss] = _find(keys, at, met[miss])
            miss = number < 0
            new, base = _distinct(met[miss]), start + len(keys) - 1
            number[miss] = np.searchsorted(new, met[miss]) + base
            keys, at = _merge(keys, at, new, np.arange(base, base + len(new)))
            return number, new

        def successors(pairs: np.ndarray) -> np.ndarray:
            # a letter at a time, which keeps the temporaries to the frontier's size
            q = pairs & _LOW
            met = [meet(self.sections[pairs >> 32, self.images[q, x]] << 32 | self.sections[q, x]) for x in range(k)]
            rows.append(np.stack([number for number, _ in met], axis=1))
            return np.concatenate([new for _, new in met])

        _frontiers(meet(roots)[1], successors)
        self.succ = np.concatenate((self.succ, *rows))
        rows.clear()
        self.cls = np.concatenate((self.cls, np.full(len(keys) - 1, -1, dtype=np.int32)))
        self.keys, self.at = _merge(self.keys, self.at, keys[:-1], at[:-1])
        return start

    def place(self, placing: np.ndarray) -> None:
        """Place the pairs that the mask placing marks; every successor of one is placed or marked.

        Classes of the quotient are numbered by first occurrence, so pool
        states keep their numbers and each new class is the next state.
        """
        if not placing.any():
            return
        # the pairs placed in key order: their numbers and keys
        pick = placing[self.at[:-1]]
        n, new, pairs = len(self.images), self.at[:-1][pick], self.keys[:-1][pick]
        self.cls[new] = np.arange(n, n + len(new))
        color, _, (self.images, self.sections) = _quotient((
            np.concatenate((self.images, self.images[(pairs >> 32)[:, None], self.images[pairs & _LOW]])),
            np.concatenate((self.sections, self.cls[self.succ[new]])),
        ))
        self.cls[new] = color[n:]

    def add(self, roots: np.ndarray) -> np.ndarray:
        """Explore from the root keys, place every pair met and not placed yet; the roots' pool states."""
        self.explore(roots)
        self.place(self.cls < 0)
        return self.cls[_find(self.keys, self.at, roots)]


def compute_nucleus(
    gens: Sequence[StateRef], max_elements: int = 10000, max_depth: int = 20
) -> NucleusResult:
    """The nucleus of the generated group, bounded by max_elements and max_depth.

    Members start as the recurrent sections of S: the identity, the
    generators and their inverses. The recurrent sections of a product l r
    of members are the pairs behind a cycle of the pair graph below (l, r).
    The closure takes the root pairs of the next members in the order they
    joined, every pair of members with one of them among those, until there
    are as many roots as pool states or pairs met so far, so batches double.
    It explores them, places the pairs behind the batch's cycles in the pool
    as members, and stops as soon as there are more than max_elements. The
    certificate places every pair below (S u N)^2 and gives each pool state
    a need: a state in N needs level 0, any other state and every root one
    level more than its sections need. A need above max_depth, or a cycle of
    states outside N, is bound-exceeded.
    """
    if max_elements < 0 or max_depth < 0:
        raise ValueError("max_elements and max_depth must not be negative")
    pool = _Pool(gens)
    tables = pool.images, pool.sections
    gen_elements = tuple((g.name, _bfs_root(tables, i)) for g, i in zip(gens, pool.ids[1::2].tolist()))
    # every pool state is a section of S, so the recurrent ones are S's recurrent sections
    members = _recurrent(pool.sections)
    member_set = set(members)
    # members join a batch at a time, and the one that passes the bound is the witness
    bound = max(len(members), max_elements)
    done = 0
    while done < len(members):
        # the least end with end^2 - done^2 roots at least the pool states and the pairs met
        end = min(len(members), math.isqrt(done * done + max(len(pool.images), len(pool.cls)) - 1) + 1)
        ids = np.array(members[:end], dtype=np.int64)
        start = pool.explore(np.concatenate([(ids[done:, None] << 32 | ids).ravel(),
                                             (ids[:done, None] << 32 | ids[done:]).ravel()]))
        done = end
        # older pairs never lead to new ones, so a cycle through a new pair lies among
        # them, and what newly lies behind a cycle is reachable from those
        cycles = np.array(_recurrent(pool.succ[start:] - start), dtype=np.int64) + start
        seen = pool.cls >= 0
        seen[cycles] = True
        fresh = _frontiers(cycles, lambda frontier: _unseen(pool.succ[frontier].ravel(), seen))
        pool.place(np.logical_and(seen, pool.cls < 0, out=seen))
        members += [s for s in dict.fromkeys(pool.cls[fresh].tolist()) if s not in member_set]
        member_set.update(members)
        if len(members) > bound:
            return NucleusResult(
                "bound-exceeded", None, None, max_elements, max_depth,
                witness_count=bound + 1, reason="elements",
                gen_elements=gen_elements,
            )

    elements = tuple(sorted((_bfs_root((pool.images, pool.sections), m) for m in members), key=lambda e: e.sort_key))

    ids = np.array(list(dict.fromkeys([*pool.ids.tolist(), *members])), dtype=np.int64)
    tops = pool.add((ids[:, None] << 32 | ids).ravel())
    # need[s]: the least level below state s at which every section is in N, -1 while unknown
    need = np.full(len(pool.images), -1)
    need[members] = 0
    for level in range(1, max_depth):
        rest = np.flatnonzero(need < 0)
        ready = rest[(need[pool.sections[rest]] >= 0).all(axis=1)]
        if not len(ready):
            break
        need[ready] = level
    below = need[pool.sections[tops]]
    if (below < 0).any():
        return NucleusResult(
            "bound-exceeded", None, None, max_elements, max_depth,
            witness_count=len(elements), reason="depth",
            gen_elements=gen_elements,
        )
    return NucleusResult(
        "contracting", elements, max(1, 1 + int(below.max())), max_elements, max_depth,
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
    if max_word_length < 0:
        raise ValueError("max_word_length must not be negative")
    pool = _Pool(gens)
    steps = pool.ids[1:]
    moves = pool.images[steps].T.tolist()
    if len(_reachable(moves.__getitem__, [0])[0]) < len(moves):
        return RecurrenceVerdict("false")

    targets = set(pool.ids[1::2].tolist())
    found: set[int] = set()
    frontier = pool.ids[:1]
    ball = np.zeros(len(pool.images), dtype=bool)
    ball[frontier] = True
    # its own loop, not _frontiers: the ball stops at max_word_length and the search at the first proof,
    # checked once per word length
    for _ in range(max_word_length):
        met = pool.add((frontier[:, None] << 32 | steps).ravel())
        ball = np.concatenate((ball, np.zeros(len(pool.images) - len(ball), dtype=bool)))
        frontier = _unseen(met, ball)
        found.update(pool.sections[frontier[pool.images[frontier, 0] == 0], 0].tolist())
        if targets <= found:
            return RecurrenceVerdict("true")
    return RecurrenceVerdict("inconclusive", max_word_length)
