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
distinct elements that starts as one quotient (_seeded) of the part of the
automaton's inverse-closed table the generators reach, walked root after
root. So an element is an int and a product of two is a node of the pool's
pair graph, kept in arrays: one sorted index of pair keys, in which each met
key is searched once, successor pairs and pool states.
The closure, its depth certificate and the word ball around the identity,
whose spheres the recurrence test searches, explore it a frontier of pairs
at a time, all letters of a frontier met as one array of keys, and place
new pairs with one quotient of the pool per batch.
The closure's first batch pairs the seeds, the recurrent sections of the
generators, up to twice the end the doubling rule would take; after it the
batches double, so there are logarithmically many quotients. No product is
canonicalized on its own.

The table operations behind canonical elements run on numpy tables in
selfsim.core: product, quotient, inverse rows and the breadth-first
renumbering, core._restrict. A product is numbered once: its tuples come
breadth first from the root and the quotient numbers classes by first
occurrence, which is breadth-first order on the classes, so canonicalize,
canonical_state, products and powers take the quotient's tables as they are.
A product's tuples are as wide as its root, so canonicalize multiplies a
word in blocks of two factors: states of the inverse closure's _pair_tables,
the ordered pairs of its states and an identity state, cached on the closure
and freed with it, the identity padding a word of odd length. Pair
tuples correspond one to one with the word's tuples, in the same
breadth-first order, so the answer is the same at half the width.
Tables not built breadth first from their root are renumbered by _restrict:
section, state_element, inverse and the pool's members. A CanonicalElement
holds its two tables as the bytes of (n, k) int64 arrays, so the kernel reads
them back without a conversion.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .core import (
    Alphabet,
    Arrays,
    MealyAutomaton,
    Permutation,
    StateRef,
    _automaton_of,
    _inverse_rows,
    _product_tables,
    _quotient,
    _reachable,
    _recurrent,
    _restrict,
    _starts,
    _tuples,
    _unseen,
    _walk,
    _with_identity,
    invert,
)


def _bfs_root(tables: Arrays, root: int) -> "CanonicalElement":
    """The part reachable from root as a canonical element, renumbered breadth first."""
    images, sections = _restrict(tables, [root])[1]
    return CanonicalElement(images.shape[1], images.tobytes(), sections.tobytes())


def _product(tables: Arrays, root: Sequence[int]) -> "CanonicalElement":
    """The product of root's states as a canonical element: its quotient is already breadth first."""
    images, sections = _quotient(_product_tables(tables, root))[2]
    return CanonicalElement(images.shape[1], images.tobytes(), sections.tobytes())


def _seeded(tables: Arrays, roots: Sequence[int]) -> tuple[np.ndarray, Arrays]:
    """One quotient of the part of a table that roots reach, walked root after root: the roots' classes, and the class tables."""
    # a state seen reaches only seen states, so the walks list each root's copy of what it reaches without repeats
    seen = np.zeros(len(tables[0]), dtype=bool)
    number, walked = _restrict(tables, np.concatenate([_reachable(tables[1], [r], seen) for r in roots]))
    color, _, classes = _quotient(walked)
    return color[number[roots]], classes


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
        return _walk((self.perms, self.sections), 0, Alphabet(self.k).check_word(letters))[0]

    def section(self, letters: Sequence[int] | str) -> "CanonicalElement":
        tables = (self.perms, self.sections)
        return _bfs_root(tables, _walk(tables, 0, Alphabet(self.k).check_word(letters))[1])

    def state_element(self, i: int) -> "CanonicalElement":
        """The element represented by internal state i, for 0 <= i < size."""
        # a negative i would alias a state counted from the end
        if not 0 <= i < self.size:
            raise IndexError(f"state index {i} out of range 0..{self.size - 1}")
        return _bfs_root((self.perms, self.sections), i)

    def __mul__(self, other: "CanonicalElement") -> "CanonicalElement":
        if not isinstance(other, CanonicalElement):
            return NotImplemented
        if self.k != other.k:
            raise ValueError("elements act on different alphabets")
        # one table of both elements' states, other's after self's
        images = np.concatenate((self.perms, other.perms))
        sections = np.concatenate((self.sections, other.sections + self.size))
        return _product((images, sections), [0, self.size])

    def inverse(self) -> "CanonicalElement":
        # the inverse rows of a minimal reachable table are minimal and reachable too
        return _bfs_root(_inverse_rows((self.perms, self.sections)), 0)

    def __pow__(self, n: int) -> "CanonicalElement":
        # by squaring: about 2 log2 |n| products of two
        n = operator.index(n)
        if n < 0:
            return self.inverse() ** -n
        if n < 2:
            return self if n else CanonicalElement.identity(self.k)
        half = self ** (n // 2)
        return half * half * self if n % 2 else half * half

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

    def inverse(self) -> "GroupWord":
        return GroupWord(self.generators, tuple((p, -e) for p, e in reversed(self.factors)))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.generators != other.generators:
            raise ValueError("words must share a generator basis")
        return GroupWord(self.generators, self.factors + other.factors)


def canonical_state(state: StateRef) -> CanonicalElement:
    """Canonical element acting like a single automaton state."""
    return _product(state.automaton.tables, [state.index])


def canonicalize(gw: GroupWord) -> CanonicalElement:
    """Canonical element of a group word; decides the word problem.

    The word is multiplied in blocks of two factors, as one product over the
    inverse closure's pair table, a word of odd length padded with the identity.
    """
    aut = invert(gw.generators[0].automaton)
    assert aut.inverse_index is not None
    if not gw.factors:
        return CanonicalElement.identity(aut.alphabet.size)
    e = len(aut)
    states = [gw.generators[pos].index if exp == 1 else aut.inverse_index[gw.generators[pos].index]
              for pos, exp in gw.factors]
    blocks = np.array(states + [e] * (len(states) % 2)).reshape(-1, 2)
    return _product(aut._pair_tables, blocks[:, 0] * (e + 1) + blocks[:, 1])


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
    (reason "depth"). The nucleus Moore table, moore_tables, and the element
    names are derived here from elements, once per result.
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

    @cached_property
    def _names(self) -> tuple[str, ...]:
        if not self.is_contracting:
            raise NotContractingError("no nucleus: verdict is bound-exceeded")
        assert self.elements is not None
        claims = [(CanonicalElement.identity(self.elements[0].k if self.elements else 2), "id")]
        for name, el in self.gen_elements:
            claims += [(el, name), (el.inverse(), name + "^-1")]
        # each element takes the first name it claims, n<i> last, with underscores appended while it is taken
        named: dict[CanonicalElement, str] = {}
        taken: set[str] = set()
        for el, name in [*claims, *((el, f"n{i}") for i, el in enumerate(self.elements))]:
            if el not in named:
                while name in taken:
                    name += "_"
                named[el] = name
                taken.add(name)
        return tuple(map(named.__getitem__, self.elements))

    def element_names(self) -> list[str]:
        """Distinct printable names: id, generator names and their inverses, then n<i>."""
        return list(self._names)

    @cached_property
    def moore_tables(self) -> Arrays:
        """(outputs, sections) of the nucleus Moore diagram: read-only (n, k) int64 arrays, row i for elements[i]."""
        if not self.is_contracting:
            raise NotContractingError("no nucleus: verdict is bound-exceeded")
        assert self.elements is not None
        starts = np.cumsum([0, *(el.size for el in self.elements)])[:-1]
        roots, (images, below) = _seeded((
            np.concatenate([el.perms for el in self.elements]),
            np.concatenate([el.sections + start for el, start in zip(self.elements, starts)]),
        ), starts)
        element_of = dict(zip(roots.tolist(), range(len(roots))))
        sections = np.array([[element_of.get(c, -1) for c in row] for row in below[roots].tolist()], dtype=np.int64)
        if missing := np.argwhere(sections < 0).tolist():
            i, x = missing[0]
            raise ValueError(f"elements are not closed under sections: element {i}'s section at letter {x} is not among them")
        outputs = images[roots]
        outputs.flags.writeable = sections.flags.writeable = False
        return outputs, sections

    def moore_automaton(self) -> tuple[MealyAutomaton, dict[CanonicalElement, int]]:
        """The nucleus as a Mealy automaton on moore_tables; the nucleus is closed under sections."""
        outputs, sections = self.moore_tables
        index = {el: i for i, el in enumerate(self.elements)}
        perms = tuple(map(Permutation, _tuples(outputs)))
        return MealyAutomaton(Alphabet(outputs.shape[1]), self._names, perms, _tuples(sections)), index


class NotContractingError(RuntimeError):
    """The operation needs a contracting nucleus but none was certified."""


# a pair (p, q) of pool states is keyed p << 32 | q; a sorted index ends in a sentinel above every key
_LOW = (1 << 32) - 1
_SENTINEL = np.iinfo(np.int64).max


def _find(keys: np.ndarray, at: np.ndarray, query: np.ndarray) -> np.ndarray:
    """at[i] where keys[i] equals the query key, element by element, or -1; keys sorted."""
    pos = np.searchsorted(keys, query)
    # the gathered keys are freed before the numbers are gathered
    miss = keys[pos] != query
    found = at[pos]
    found[miss] = -1
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

    It starts as _seeded's one quotient of the part of the inverse closure
    the roots reach, walked root after root: the classes, and the roots'
    classes, of one copy per root of what it reaches, without the repeats.
    ids holds the roots' states: identity, g1, g1^-1, ....
    The pair (p, q) of pool states stands for the product p q and is keyed
    p << 32 | q; in the pair graph its successors are (p|_{q(x)}, q|_x), one
    per letter x. Pairs are numbered as they are met: frontier by frontier,
    by the first letter that meets them, then by key. succ holds each pair's
    successor numbers and cls its pool state, -1 until place() puts it
    there; keys holds the keys in sorted order and at the number of each,
    the one index of pairs met, which explore searches once per met key.
    """

    def __init__(self, gens: Sequence[StateRef]) -> None:
        aut = invert(_automaton_of(gens))
        assert aut.inverse_index is not None
        # row len(aut) is the identity
        roots = [len(aut), *(i for g in gens for i in (g.index, aut.inverse_index[g.index]))]
        self.ids, (self.images, self.sections) = _seeded(_with_identity(aut.tables), roots)
        # pair numbers and pool states fit in int32, which halves most of the pair store
        self.cls = np.empty(0, dtype=np.int32)
        self.succ = np.empty((0, self.images.shape[1]), dtype=np.int32)
        self.keys, self.at = np.array([_SENTINEL]), np.array([-1], dtype=np.int32)

    def explore(self, roots: np.ndarray) -> int:
        """Meet the pairs reachable from the root keys; those not met before are numbered from the result on.

        Each frontier, the roots first, is met as one (k, n) array of keys, a
        row per letter, each key searched once in the pool's index. New keys
        are numbered by the first letter that meets them, then by key, and
        join the index at once; the next frontier lists them in that order.
        """
        start, rows, met = len(self.cls), None, roots[None]
        while True:
            number = _find(self.keys, self.at, met)
            miss = number < 0
            missed, letters = met[miss], miss.sum(axis=1)
            del met
            # one stable sort of the misses: each new key is a run, led by its earliest miss; missed
            # lists the misses letter by letter, so a leader's position gives the first letter meeting its key
            by_key = np.argsort(missed, kind="stable")
            runs = _starts(missed[by_key])
            lead = by_key[runs]
            new, base = missed[lead], len(self.keys) - 1
            first = np.searchsorted(np.cumsum(letters), lead, side="right")
            del missed, lead
            # order the new keys by the first letter that meets each, then by key
            order = np.argsort(first, kind="stable")
            numbers = np.empty(len(new), dtype=np.int32)
            numbers[order] = np.arange(base, base + len(new))
            # each miss takes its run's number, scattered from key order back to miss order
            taken = np.cumsum(runs, dtype=np.int32)
            taken -= 1
            taken[by_key] = numbers[taken]
            number[miss] = taken
            # the first pass numbers the roots, which are no pair's successors
            rows = [] if rows is None else rows + [number.T]
            # the merge holds the old index and the new at once: free the frontier's temporaries first
            del number, miss, runs, by_key, taken, first
            if len(new):
                self.keys, self.at = _merge(self.keys, self.at, new, numbers)
            frontier = new[order]
            del new, numbers, order
            if not len(frontier):
                break
            # the successors (p|_{q(x)}, q|_x) in place in one key array: take writes it row by row, as masks read it
            p, q = frontier >> 32, frontier & _LOW
            del frontier
            met = self.sections[p, np.take(self.images.T, q, axis=1)]
            del p
            met <<= 32
            met |= np.take(self.sections.T, q, axis=1)
            del q
        self.succ = np.concatenate((self.succ, *rows))
        self.cls = np.concatenate((self.cls, np.full(len(self.keys) - 1 - start, -1, dtype=np.int32)))
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

    def spheres(self, radius: int) -> Iterator[np.ndarray]:
        """Spheres 1 .. radius of the word ball around the identity over ids[1:], lazily.

        Each is one add, of the last sphere's states times ids[1:], and holds
        the new pool states in order of first occurrence. Pool states are
        pairwise distinct elements, so the sizes are the group's growth.
        """
        sphere = self.ids[:1]
        ball = np.zeros(len(self.images), dtype=bool)
        ball[sphere] = True
        for _ in range(radius):
            met = self.add((sphere[:, None] << 32 | self.ids[1:]).ravel())
            ball = np.concatenate((ball, np.zeros(len(self.images) - len(ball), dtype=bool)))
            sphere = _unseen(met, ball)
            yield sphere


def compute_nucleus(
    gens: Sequence[StateRef], max_elements: int = 10000, max_depth: int = 20
) -> NucleusResult:
    """The nucleus of the generated group, bounded by max_elements and max_depth.

    Members start as the seeds, the recurrent sections of S: the identity,
    the generators and their inverses. The recurrent sections of a product
    l r of members are the pairs behind a cycle of the pair graph below
    (l, r). A batch takes the root pairs of the next members in the order
    they joined, every pair of members with one of them among those, until
    there are as many roots as pool states or pairs met so far, so batches
    double. The first batch takes every pair of seeds instead, but ends at
    most at twice the end that rule gives, so it holds at most four times
    the roots the rule would take first. Each batch explores its roots and
    places the pairs behind its cycles in the pool as members; the closure
    stops as soon as there are more than max_elements, seeds included. The
    certificate places every pair below (S u N)^2 and gives each pool state
    a need: a state in N needs level 0, any other state and every root one
    level more than its sections need. A need above max_depth, or a cycle
    of states outside N, is bound-exceeded.
    """
    if max_elements < 0 or max_depth < 0:
        raise ValueError("max_elements and max_depth must not be negative")
    pool = _Pool(gens)
    tables = pool.images, pool.sections
    gen_elements = tuple((g.name, _bfs_root(tables, i)) for g, i in zip(gens, pool.ids[1::2].tolist()))
    result = partial(NucleusResult, max_elements=max_elements, max_depth=max_depth, gen_elements=gen_elements)
    # every pool state is a section of S, so the recurrent ones are S's recurrent sections
    members = _recurrent(pool.sections)
    member_set = set(members)

    def doubled(done: int) -> int:
        # the least end with end^2 - done^2 roots at least the pool states and the pairs met
        return min(len(members), math.isqrt(done * done + max(len(pool.images), len(pool.cls)) - 1) + 1)

    # the first batch pairs the seeds: a few seeds take one round, many at most four times the rule's roots
    done, end = 0, min(len(members), 2 * doubled(0))
    while done < len(members):
        # members join a batch at a time, the seeds first, and the one that passes the bound is the witness
        if len(members) > max_elements:
            return result("bound-exceeded", None, None, witness_count=max_elements + 1, reason="elements")
        ids = np.array(members[:end], dtype=np.int64)
        start = pool.explore(np.concatenate([(ids[done:, None] << 32 | ids).ravel(),
                                             (ids[:done, None] << 32 | ids[done:]).ravel()]))
        done = end
        # older pairs never lead to new ones, so a cycle through a new pair lies among
        # them, and what newly lies behind a cycle is reachable from those
        cycles = np.array(_recurrent(pool.succ[start:] - start), dtype=np.int64) + start
        seen = pool.cls >= 0
        fresh = _reachable(pool.succ, cycles, seen)
        pool.place(np.logical_and(seen, pool.cls < 0, out=seen))
        members += [s for s in dict.fromkeys(pool.cls[fresh].tolist()) if s not in member_set]
        member_set.update(members)
        end = doubled(done)

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
    # every root needs one level more than its sections, so depth 0 certifies nothing
    if (below < 0).any() or 1 + below.max() > max_depth:
        return result("bound-exceeded", None, None, witness_count=len(elements), reason="depth")
    return result("contracting", elements, 1 + int(below.max()))


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
    verdict is inconclusive at the given word length bound. The words are the
    pool's spheres, searched one word length at a time.
    """
    if max_word_length < 0:
        raise ValueError("max_word_length must not be negative")
    pool = _Pool(gens)
    if len(_reachable(pool.images[pool.ids[1:]].T, [0])) < pool.images.shape[1]:
        return RecurrenceVerdict("false")

    targets = set(pool.ids[1::2].tolist())
    found: set[int] = set()
    # sphere 0 is the empty word: it fixes letter 0 with the identity below, so an identity generator is found
    for sphere in itertools.chain([pool.ids[:1]], pool.spheres(max_word_length)):
        found.update(pool.sections[sphere[pool.images[sphere, 0] == 0], 0].tolist())
        if targets <= found:
            return RecurrenceVerdict("true")
    return RecurrenceVerdict("inconclusive", max_word_length)
