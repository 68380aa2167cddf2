"""Mealy automata acting on the regular rooted tree.

A state q of an invertible Mealy automaton acts on finite words over the
alphabet {0, ..., k-1} by

    q(empty) = empty,    q(x v) = q(x) . q|x(v),

where q(x) is the output permutation applied to the first letter and q|x
is the section of q at x, the state that takes over below that letter.
Words are tuples of letters; the first letter is the top tree level.

Elements compose as functions: (g h)(w) = g(h(w)), so in a written
product the rightmost factor acts first, and sections obey
(g h)|_v = g|_{h(v)} . h|_v.

The operations on raw automaton tables (product, quotient, inverse rows,
breadth-first reachability and the recurrent-node peel) are written once
here and shared with the engine's canonical elements, the Schreier level
tables and the boundary-point equivalence arrows. Breadth-first
reachability is one walk over rows of successors, with a seen mask: table
states through their section rows, pairs of pool states through the pair
graph, or letters through the generators' images.

Product, quotient and inverse rows compute on (n, k) int64 numpy tables
only. A MealyAutomaton reads its rows into such arrays once, its tables
field, and canonical elements and the pool hold theirs as arrays already. A
product of L factors finds its state tuples, one state per factor, a
frontier at a time: one gather of the positions' output rows, their prefix
compositions by a doubling scan of ceil(log2 L) steps, one flat gather of
the sections in the scan's layout (the first position reads the input
letter, each other the letter the positions before it wrote), and new
tuples numbered by first occurrence: through a dense index of their
mixed-radix keys when those are few, by a dict on their bytes otherwise.
The cost grows with L, so the engine passes a word as blocks of factors,
states of the _pair_tables an automaton caches. A quotient of a large table
is Moore refinement in numpy rounds, one int64 key ranked by one argsort per
round until the partition is discrete or stable, classes numbered by first
occurrence, class tables fancy-indexed. The recurrent peel of a large graph
is numpy rounds too.

The walk, the peel and the refinement also run as plain Python loops over
.tolist() rows: a queue, a peel, and Moore rounds that number signatures
through a dict. They take the inputs of fewer entries (.size) than
_WALK_LIMIT, _PEEL_LIMIT and _REFINE_LIMIT, where numpy's fixed cost per
call, not the entries, is the work, as on the few-state tables of a catalog
closure. Both forms return the same arrays, bit for bit.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# (images, sections) as (n, k) int64 arrays, the form the kernel computes in: images[i] is
# the output image row of state i and sections[i, x] the index of its section at letter x
Arrays = tuple[np.ndarray, np.ndarray]


def word(letters: Sequence[int] | str) -> tuple[int, ...]:
    """Coerce a word given as text or an int sequence to a tuple.

    Text is one digit per letter ("011"), or with any dot, dot-separated
    letters with empty pieces ignored ("1.10", "10.").
    """
    if isinstance(letters, str):
        pieces = [x for x in letters.split(".") if x] if "." in letters else letters
        for x in pieces:
            if not x.isdigit():
                raise ValueError(f"not a letter: {x!r}")
        return tuple(int(x) for x in pieces)
    return tuple(int(x) for x in letters)


def word_str(w: Sequence[int]) -> str:
    """Render a word as word() reads it: digits, or dot separated once a letter exceeds 9.

    A lone letter above 9 keeps a trailing dot ("10.") so that it does not read as two.
    """
    if any(x > 9 for x in w):
        return ".".join(str(x) for x in w) + ("." if len(w) == 1 else "")
    return "".join(str(x) for x in w)


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet {0, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("alphabet size must be at least 1")

    def check_word(self, letters: Sequence[int] | str) -> tuple[int, ...]:
        w = word(letters)
        for x in w:
            if not 0 <= x < self.size:
                raise ValueError(f"letter {x} out of range for alphabet of size {self.size}")
        return w

    def index_of(self, w: Sequence[int] | str) -> int:
        """Rank of a word among all words of its length, leftmost letter most significant."""
        i = 0
        for x in self.check_word(w):
            i = i * self.size + x
        return i

    def word_at(self, index: int, n: int) -> tuple[int, ...]:
        """Inverse of index_of for words of length n."""
        if n < 0 or not 0 <= index < self.size**n:
            raise ValueError(f"index {index} out of range for words of length {n} over {self.size} letters")
        out = [0] * n
        for pos in range(n - 1, -1, -1):
            index, out[pos] = divmod(index, self.size)
        return tuple(out)


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., k-1} stored by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.images)
        if sorted(self.images) != list(range(k)):
            raise ValueError(f"not a permutation: {self.images}")

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(k)))

    @classmethod
    def from_cycles(cls, cycles: Sequence[Sequence[int]], k: int) -> "Permutation":
        images = list(range(k))
        seen: set[int] = set()
        for cyc in cycles:
            for x in cyc:
                if not 0 <= x < k:
                    raise ValueError(f"cycle letter {x} out of range for alphabet of size {k}")
                if x in seen:
                    raise ValueError(f"letter {x} repeated in cycle notation")
                seen.add(x)
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    @property
    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its least element, sorted, fixed points omitted."""
        out = []
        seen: set[int] = set()
        for start in range(len(self.images)):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)


@dataclass(frozen=True)
class MealyAutomaton:
    """Invertible Mealy automaton: per state an output permutation and a section row.

    sections[i][x] is the index of the state q_i|x, and tables holds both
    as the arrays the kernel reads. An automaton with an inverse_index is
    inverse-closed: it contains a formal inverse for every state, and
    inverse_index[i], checked here, is its index; inverting twice resolves to
    the original state.
    Derived tables are cached properties, freed with the automaton.
    """

    alphabet: Alphabet
    names: tuple[str, ...]
    perms: tuple[Permutation, ...]
    sections: tuple[tuple[int, ...], ...]
    inverse_index: tuple[int, ...] | None = None
    # (images, sections) as read-only (n, k) int64 arrays, read from perms and sections once
    tables: Arrays = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.names)
        k = self.alphabet.size
        if len(set(self.names)) != n:
            raise ValueError("state names must be unique")
        if len(self.perms) != n or len(self.sections) != n:
            raise ValueError("perms and sections must match the state count")
        if any(p.degree != k for p in self.perms):
            raise ValueError("permutation degree must equal the alphabet size")
        # before the flat read: ragged rows of n * k entries in all would reshape silently
        if any(len(row) != k for row in self.sections):
            raise ValueError("each state needs one section per letter")
        # read flat: np.array on a tuple of tuples is several times slower
        images, sections = tables = tuple(
            np.fromiter(itertools.chain.from_iterable(rows), np.int64, n * k).reshape(n, k)
            for rows in ((p.images for p in self.perms), self.sections)
        )
        outside = (sections < 0) | (sections >= n)
        if outside.any():
            raise ValueError(f"section index {sections[outside][0]} out of range")
        images.flags.writeable = sections.flags.writeable = False
        object.__setattr__(self, "tables", tables)
        if self.inverse_index is not None:
            if len(self.inverse_index) != n:
                raise ValueError("inverse_index needs one entry per state")
            inv = np.array(self.inverse_index, dtype=np.int64)
            if not ((0 <= inv) & (inv < n)).all():
                raise ValueError("inverse_index entries must be state indices")
            # state inv[i] must act as q_i^-1: the inverse output row, and sections the inverses of q_i's
            inv_images, inv_sections = _inverse_rows(tables)
            if not ((images[inv] == inv_images).all() and (sections[inv] == inv[inv_sections]).all()):
                raise ValueError("inverse_index must name a state acting as each state's inverse")

    @property
    def inverse_closed(self) -> bool:
        return self.inverse_index is not None

    def __len__(self) -> int:
        return len(self.names)

    def state(self, key: str | int) -> "StateRef":
        if isinstance(key, str):
            try:
                key = self.names.index(key)
            except ValueError:
                raise KeyError(f"no state named {key!r}") from None
        return StateRef(self, key)

    def states(self) -> list["StateRef"]:
        return [StateRef(self, i) for i in range(len(self.names))]

    @cached_property
    def _inverse_closure(self) -> "MealyAutomaton":
        """This automaton with a formal inverse adjoined for every state, as invert returns it."""
        m = len(self)
        inv_images, inv_sections = _inverse_rows(self.tables)
        names = self.names + tuple(n + "^-1" for n in self.names)
        perms = self.perms + tuple(Permutation(img) for img in _tuples(inv_images))
        sections = self.sections + _tuples(inv_sections + m)
        inverse_index = tuple(range(m, 2 * m)) + tuple(range(m))
        return MealyAutomaton(self.alphabet, names, perms, sections, inverse_index)

    @cached_property
    def _pair_tables(self) -> Arrays:
        """Ordered pairs of the states and the identity e = len(self): pair (a, b) is state a (e + 1) + b, a after b."""
        images, sections = _with_identity(self.tables)
        k = images.shape[1]
        # b reads the letter x first and writes images[b, x], which a reads
        pairs = images[:, images].reshape(-1, k), (sections[:, images] * len(images) + sections).reshape(-1, k)
        for table in pairs:
            table.flags.writeable = False
        return pairs


@dataclass(frozen=True)
class StateRef:
    """A state of a specific automaton."""

    automaton: MealyAutomaton
    index: int

    def __post_init__(self) -> None:
        # a negative index would alias a state counted from the end
        if not 0 <= self.index < len(self.automaton):
            raise IndexError(f"state index {self.index} out of range 0..{len(self.automaton) - 1}")

    @property
    def name(self) -> str:
        return self.automaton.names[self.index]

    def __repr__(self) -> str:
        return f"StateRef({self.name!r})"


def _automaton_of(gens: Sequence[StateRef]) -> MealyAutomaton:
    """The one automaton that all the generators come from."""
    if not gens:
        raise ValueError("need at least one generator")
    aut = gens[0].automaton
    if any(g.automaton is not aut and g.automaton != aut for g in gens):
        raise ValueError("all generators must come from one automaton")
    return aut


def act_word(state: StateRef, letters: Sequence[int] | str) -> tuple[int, ...]:
    """Image of a word under the state's tree action."""
    aut = state.automaton
    return _walk(aut.tables, state.index, aut.alphabet.check_word(letters))[0]


def section_word(state: StateRef, letters: Sequence[int] | str) -> StateRef:
    """Section of the state at a word: q|_(x v) = (q|_x)|_v."""
    aut = state.automaton
    return StateRef(aut, _walk(aut.tables, state.index, aut.alphabet.check_word(letters))[1])


def _walk(tables: Arrays, i: int, w: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """The image of the word w under state i, and the state below it: i's section at w, as Python ints."""
    images, sections = tables
    out = []
    for x in w:
        out.append(images.item(i, x))
        i = sections.item(i, x)
    return tuple(out), i


def _tuples(rows: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """An (n, k) array as n row tuples of Python ints."""
    # zipping the k columns builds no list per row
    return tuple(zip(*rows.T.tolist()))


def _starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal neighbours in a 1-D array starts, as a mask: np.diff(prepend=) != 0 without its wrapper."""
    start = np.empty(len(keys), dtype=bool)
    start[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    return start


def _stable_order(keys: np.ndarray) -> Arrays:
    """np.argsort(keys, kind="stable") and keys in that order, for int keys in [0, n) of n: one sort of key * n + index.

    numpy's stable argsort runs several times slower than its sort on such
    keys; the packed values fit int64 for n below 3 * 10^9.
    """
    n = len(keys)
    key, order = np.divmod(np.sort(keys * n + np.arange(n)), n)
    return order, key


def _distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array, by a sort and a neighbour compare: numpy 2.3 on hashes there, many times slower."""
    keys = np.sort(keys)
    return keys[_starts(keys)]


def _inverse_rows(tables: Arrays) -> Arrays:
    """Inverse rows: state i of the result is q_i^-1, with q^-1|_y = (q|_{sigma_q^-1(y)})^-1.

    Section indices keep their meaning: they name the inverses of the states.
    """
    images, sections = tables
    inverse = np.argsort(images, axis=1)
    return inverse, np.take_along_axis(sections, inverse, axis=1)


def _with_identity(tables: Arrays) -> Arrays:
    """The tables with one more state, the identity, numbered after the others."""
    images, sections = tables
    e, k = images.shape
    return np.vstack((images, np.arange(k))), np.vstack((sections, np.full(k, e)))


# A product numbers its tuples through a dense index of all r^n keys (_indexed) when
# _INDEX_FLOOR < r^n <= _INDEX_CAP, and through a dict on their bytes (_keyed) otherwise.
# Below the floor the dict's fewer numpy calls per frontier round win: with no floor, 3,000
# products of nucleus elements of at most 7 states ran 5-14% slower, and 1,000 products of
# 13-21-state virtually-z3 elements about 20% slower.
_INDEX_FLOOR = 1 << 11
# Above the cap the index would pass 4 MB of int32. Wide tuples keep the dict: a 100-letter
# word has 50 positions.
_INDEX_CAP = 1 << 20

# Inputs of fewer entries (.size) than these limits take the list forms of _reachable, _recurrent
# and refine_partition; a numpy round costs a fixed 5-20 us of calls whatever its size. Each limit is
# where the numpy form started to win on random tables of 2-4 columns (2-core Xeon, Python 3.11,
# numpy 2.4; median us per call, numpy / lists, BENCH_small_tables.json):
# walk 84 / 52 at 512 entries, 99 / 81 at 768, 112 / 113 at 1,024;
_WALK_LIMIT = 1024
# peel 42 / 17 at 128 entries, 34 / 25 and 15 / 16 at 192 (2 and 4 columns), 46 / 50 at 384;
_PEEL_LIMIT = 192
# refinement 65 / 36 at 64 entries, 81 / 61 at 96, 81 / 79 and 62 / 43 at 128 (2 and 3 columns).
_REFINE_LIMIT = 128


def _product_tables(tables: Arrays, root: Sequence[int]) -> Arrays:
    """Tables of the tuples of states of one table reachable from a nonempty root.

    Factors from several tables are one table with offset state ids. A tuple
    acts as its first component after the second after ... after the last,
    so the last component touches the input word first, and sections follow
    the product rule componentwise. A tuple has one position per root state
    and no other: position 0 is the last component and reads the input
    letter, position j > 0 reads what position j - 1 wrote. Tuples are
    numbered in breadth-first order, root first: a frontier's successors in
    (tuple, letter) order, as a queue meets them. Every tuple is reachable
    from the root, so the classes of _quotient of the result, numbered by
    first occurrence, are numbered breadth first from class 0 too: a class's
    first member is met at the first member of the earliest class leading to
    it, at its least letter into it. Engine products and canonical_state rely
    on this; section, state_element, inverse and pool members are built
    otherwise and renumbered by _restrict.

    The numbers come from a dense index on the tuples' positions in mixed
    radix r, r the states a position can hold, when r^n, n the positions,
    lies between _INDEX_FLOOR and _INDEX_CAP; r is every state of the table,
    or when that is too many, the states the root reaches, which hold every
    position of every tuple. Other products number tuples by a dict on their
    bytes. Both number alike, so the tables are the same either way.
    """
    images, sections = tables
    k = images.shape[1]
    n = len(root)
    # one walk renumbers the states the root reaches 0..r-1; it can put r^n in the band only when
    # 2^n is under the cap, as r = 1 leaves r^n below the floor
    if len(images) ** n > _INDEX_CAP >= 2**n:
        number, (images, sections) = _restrict(tables, root)
        root = number[root]
    # position major: frontier[j] holds position j of every tuple, position 0 the last component
    frontier = np.array(root[::-1], dtype=np.int64).reshape(n, 1)
    numbering = _indexed if _INDEX_FLOOR < len(images) ** n <= _INDEX_CAP else _keyed
    fresh = numbering(len(images), frontier)
    rounds = []
    while frontier.shape[1]:
        # perms[j, t] starts at (j * m + t) * k for m tuples, so a shift is a slice
        starts = np.arange(0, frontier.size * k, k).reshape(n, -1, 1)
        # doubling scan: afterwards perms[j, t] is the output row of positions 0..j in turn
        perms = np.take(images, frontier, axis=0)
        shift = 1
        while shift < n:
            perms[shift:] = perms[shift:].reshape(-1)[perms[:-shift] + starts[: n - shift]]
            shift *= 2
        # the sections in the scan's (position, tuple, letter) layout, in one flat gather: position 0
        # reads the input letter, position j > 0 the letter that positions 0..j-1 wrote
        at = np.empty_like(perms)
        at[0] = np.arange(k)
        at[1:] = perms[:-1]
        at += frontier[..., None] * k
        met, frontier = fresh(sections.ravel()[at].reshape(n, -1))
        rounds.append((perms[-1], met.reshape(-1, k)))
    return tuple(map(np.concatenate, zip(*rounds)))


def _keyed(states: int, root: np.ndarray) -> Callable[[np.ndarray], Arrays]:
    """Numbering of tuples from root, number 0, by a dict on their bytes, in the narrowest dtype that holds a state.

    Tuples come as an (n, m) array, position major. The returned function
    takes the tuples a frontier meets and returns their numbers and the
    tuples not met before, which take the next numbers in order of first
    occurrence.
    """
    n = len(root)
    narrow = np.min_scalar_type(states - 1)
    key = np.dtype((np.void, narrow.itemsize * n))
    number = {root.astype(narrow).tobytes(): 0}

    def fresh(met: np.ndarray) -> Arrays:
        keys = met.T.astype(narrow, order="C").view(key).ravel().tolist()
        new = dict.fromkeys(itertools.filterfalse(number.__contains__, keys))
        number.update(zip(new, itertools.count(len(number))))
        found = np.fromiter(map(number.__getitem__, keys), np.int64, len(keys))
        return found, np.frombuffer(b"".join(new), narrow).reshape(-1, n).T.astype(np.int64)

    return fresh


def _indexed(states: int, root: np.ndarray) -> Callable[[np.ndarray], Arrays]:
    """Numbering of tuples from root by a dense int32 index of all states^n of them, keyed in mixed radix; as _keyed.

    Entry 0 is a tuple not met yet and entry i > 0 the tuple numbered i - 1,
    so the index starts as np.zeros, with no fill pass.
    """

    def keys(met: np.ndarray) -> np.ndarray:
        # Horner over the positions, position 0 most significant
        key = met[0]
        for row in met[1:]:
            key = key * states + row
        return key

    index = np.zeros(states ** len(root), np.int32)
    index[keys(root)] = 1
    count = 1

    def fresh(met: np.ndarray) -> Arrays:
        nonlocal count
        key = keys(met)
        miss = (index.take(key) == 0).nonzero()[0]
        missed = key[miss]
        # each missed key goes to its first occurrence: claims lie below 0 and grow with the
        # occurrence, and ufunc.at applies all of them where a plain assignment keeps an unspecified one
        claim = (miss - len(key)).astype(np.int32)
        np.minimum.at(index, missed, claim)
        won = (index.take(missed) == claim).nonzero()[0]
        count += len(won)
        index[missed[won]] = np.arange(count - len(won) + 1, count + 1, dtype=np.int32)
        found = index.take(key).astype(np.int64)
        found -= 1
        return found, met.take(miss[won], axis=1)

    return fresh


def _quotient(tables: Arrays) -> tuple[np.ndarray, np.ndarray, Arrays]:
    """Quotient by refine_partition: each state's class, each class's first member, class tables."""
    images, sections = tables
    color = refine_partition(images, sections)[0]
    # classes are numbered by first occurrence: a class's first member is where the running maximum grows
    reps = np.flatnonzero(_starts(np.maximum.accumulate(color)))
    return color, reps, (images[reps], color[sections[reps]])


def _unseen(met: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The nodes of met that seen does not mark, in order of first occurrence; marks them."""
    new = np.fromiter(dict.fromkeys(met[~seen[met]].tolist()), np.int64)
    seen[new] = True
    return new


def _reachable(successors: np.ndarray, roots: Sequence[int], seen: np.ndarray | None = None) -> np.ndarray:
    """The nodes reachable from roots that seen does not mark, in the order a queue meets them; marks them.

    Row i of the (n, width) int array lists node i's successors. A walk does
    not pass a node that seen marks. Below _WALK_LIMIT entries it is a queue
    over the rows as lists; above, it goes a frontier at a time in numpy, each
    frontier's new nodes by first occurrence in its flattened rows, which is
    the order the queue meets them in too.
    """
    if seen is None:
        seen = np.zeros(len(successors), dtype=bool)
    if successors.size < _WALK_LIMIT:
        rows, marked, order = successors.tolist(), seen.tolist(), []
        for i in np.asarray(roots, dtype=np.int64).tolist():
            if not marked[i]:
                marked[i] = True
                order.append(i)
        # the queue: the loop reads order as it grows
        for i in order:
            for j in rows[i]:
                if not marked[j]:
                    marked[j] = True
                    order.append(j)
        seen[order] = True
        return np.array(order, dtype=np.int64)
    order = [_unseen(np.asarray(roots, dtype=np.int64), seen)]
    while len(order[-1]):
        order.append(_unseen(successors[order[-1]].ravel(), seen))
    return np.concatenate(order)


def _restrict(tables: Arrays, roots: Sequence[int]) -> tuple[np.ndarray, Arrays]:
    """The part of a table that roots reach, numbered breadth first: each state's number, -1 unreached, and tables."""
    images, sections = tables
    order = _reachable(sections, roots)
    number = np.full(len(images), -1)
    number[order] = np.arange(len(order))
    return number, (images[order], number[sections[order]])


def _recurrent(successors: np.ndarray) -> list[int]:
    """Nodes reachable from a cycle, self-loops included, in ascending order.

    Kahn's peel: drop the nodes that no remaining node points to, counting
    repeated edges with multiplicity, until none is left to drop. The nodes
    left are exactly those that end arbitrarily long paths. Row i of the
    (n, width) int array lists node i's successors; entries below 0 are no
    edge. Below _PEEL_LIMIT entries the peel is a loop over the rows as
    lists; above, it runs in numpy rounds, each costing the edges of the
    nodes it drops.
    """
    n = len(successors)
    if successors.size < _PEEL_LIMIT:
        rows, indegree = successors.tolist(), [0] * n
        for row in rows:
            for j in row:
                if j >= 0:
                    indegree[j] += 1
        drop = [i for i, d in enumerate(indegree) if not d]
        # the loop reads drop as it grows
        for i in drop:
            for j in rows[i]:
                if j >= 0:
                    indegree[j] -= 1
                    if not indegree[j]:
                        drop.append(j)
        return [i for i, d in enumerate(indegree) if d]
    indegree = np.bincount(successors[successors >= 0], minlength=n)
    drop = np.flatnonzero(indegree == 0)
    while len(drop):
        heads = successors[drop].ravel()
        heads = heads[heads >= 0]
        np.subtract.at(indegree, heads, 1)
        drop = _distinct(heads[indegree[heads] == 0])
    return np.flatnonzero(indegree).tolist()


def invert(aut: MealyAutomaton) -> MealyAutomaton:
    """Inverse closure: adjoins a formal inverse state for every state.

    On an already inverse-closed automaton this returns the automaton itself,
    so the inverse of an inverse resolves to the original state.
    """
    return aut if aut.inverse_closed else aut._inverse_closure


def inverse_state(state: StateRef) -> StateRef:
    """State acting as the inverse, inside the inverse closure of its automaton."""
    aut = invert(state.automaton)
    assert aut.inverse_index is not None
    return StateRef(aut, aut.inverse_index[state.index])


def _rank(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of a nonempty 1-D int64 array in sorted order, equal entries one rank; and the rank count."""
    order = np.argsort(key)
    key = key[order]
    rank = np.empty_like(order)
    rank[order[0]] = 0
    rank[order[1:]] = (key[1:] != key[:-1]).cumsum()
    return rank, int(rank[order[-1]]) + 1


def refine_partition(images: np.ndarray, sections: np.ndarray) -> tuple[np.ndarray, int]:
    """Coarsest partition where classes share output rows and map sections to classes.

    Moore rounds on (n, k) int arrays until the class count stops growing or
    reaches n, classing the states by their output rows, then by the rows
    (color[i], color[sections[i, 0]], ...). Below _REFINE_LIMIT entries a
    round numbers these signatures by first occurrence through a dict. Above,
    a round folds them a column at a time into one int64 key per state, each
    column a digit in radix max(count, k) (output entries are below k), and
    ranks the keys by one argsort; a key that would reach 2^62 is ranked
    first. Both forms pass through the same partitions and stop at the same
    round. Classes come as an int64 array, numbered by first occurrence (in
    numpy, renumbered from one sort); two states share one iff they act alike.
    """
    n, k = images.shape
    if images.size < _REFINE_LIMIT:
        columns, color, count = sections.T.tolist(), [0] * n, min(n, 1)
        signatures = zip(*images.T.tolist())
        while count < n:
            number: dict[tuple[int, ...], int] = {}
            color = [number.setdefault(s, len(number)) for s in signatures]
            previous, count = count, len(number)
            if count == previous:
                break
            signatures = zip(color, *(map(color.__getitem__, col) for col in columns))
        return np.array(color, dtype=np.int64), count
    color, count, columns = np.zeros(n, dtype=np.int64), min(n, 1), images.T
    while count < n:
        radix, key, span = max(count, k), color, count
        for col in columns:
            if span * radix > 1 << 62:
                key, span = _rank(key)
            key, span = key * radix, span * radix
            key += col
        previous, (color, count) = count, _rank(key)
        if count == previous:
            break
        columns = (color[col] for col in sections.T)
    order, ordered = _stable_order(color)
    first = order[_starts(ordered)]
    return (np.bincount(first, minlength=n).cumsum() - 1)[first][color], count


def minimize(aut: MealyAutomaton) -> tuple[MealyAutomaton, tuple[int, ...]]:
    """Merge states with identical actions; returns the quotient and the class map.

    Classes are ordered by first occurrence and keep the name of their least
    member, so minimizing twice returns an identical automaton.
    """
    color, reps, (_, sections) = _quotient(aut.tables)
    color, reps = color.tolist(), reps.tolist()
    names = tuple(aut.names[r] for r in reps)
    perms = tuple(aut.perms[r] for r in reps)
    inverse_index = None
    if aut.inverse_index is not None:
        inverse_index = tuple(color[aut.inverse_index[r]] for r in reps)
    quotient = MealyAutomaton(aut.alphabet, names, perms, _tuples(sections), inverse_index)
    return quotient, tuple(color)
