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
tables and the boundary-point equivalence graphs. Breadth-first
reachability takes any hashable node: table states, state sets.

Product, quotient and inverse rows compute on (n, k) int64 numpy tables and
take tuple tables too. A product finds its state tuples a frontier at a time:
one gather of the positions' output rows, their prefix compositions by a
doubling scan of ceil(log2 L) steps, one gather of the sections, and new
tuples numbered by first occurrence of their bytes. A quotient is Moore
refinement in numpy rounds, one int64 key and one rank per round, classes
numbered by first occurrence, its class tables fancy-indexed. The recurrent
peel drops nodes in numpy rounds too.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

# (images, sections): images[i] is the output image row of state i and
# sections[i][x] the index of its section at letter x.
Tables = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]
# the same pair as (n, k) int64 arrays, the form the kernel computes in
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

    @property
    def letters(self) -> range:
        return range(self.size)

    def check_word(self, letters: Sequence[int] | str) -> tuple[int, ...]:
        w = word(letters)
        for x in w:
            if not 0 <= x < self.size:
                raise ValueError(f"letter {x} out of range for alphabet of size {self.size}")
        return w

    def index_of(self, w: Sequence[int]) -> int:
        """Rank of a word among all words of its length, leftmost letter most significant."""
        i = 0
        for x in w:
            i = i * self.size + x
        return i

    def word_at(self, index: int, n: int) -> tuple[int, ...]:
        """Inverse of index_of for words of length n."""
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

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(x) = self(other(x))."""
        return Permutation(tuple(self.images[y] for y in other.images))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(tuple(inv))

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

    sections[i][x] is the index of the state q_i|x. When inverse_closed is
    true the automaton contains a formal inverse for every state and
    inverse_index[i] is its index; inverting twice resolves to the original
    state.
    """

    alphabet: Alphabet
    names: tuple[str, ...]
    perms: tuple[Permutation, ...]
    sections: tuple[tuple[int, ...], ...]
    inverse_closed: bool = False
    inverse_index: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.names)
        k = self.alphabet.size
        if len(set(self.names)) != n:
            raise ValueError("state names must be unique")
        if len(self.perms) != n or len(self.sections) != n:
            raise ValueError("perms and sections must match the state count")
        for p in self.perms:
            if p.degree != k:
                raise ValueError("permutation degree must equal the alphabet size")
        for row in self.sections:
            if len(row) != k:
                raise ValueError("each state needs one section per letter")
            for j in row:
                if not 0 <= j < n:
                    raise ValueError(f"section index {j} out of range")
        if self.inverse_closed:
            if self.inverse_index is None or len(self.inverse_index) != n:
                raise ValueError("inverse_closed automaton needs a full inverse_index")

    @property
    def size(self) -> int:
        return len(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def state(self, key: str | int) -> "StateRef":
        if isinstance(key, str):
            try:
                key = self.names.index(key)
            except ValueError:
                raise KeyError(f"no state named {key!r}") from None
        if not 0 <= key < len(self.names):
            raise IndexError(f"state index {key} out of range")
        return StateRef(self, key)

    def states(self) -> list["StateRef"]:
        return [StateRef(self, i) for i in range(len(self.names))]


@dataclass(frozen=True)
class StateRef:
    """A state of a specific automaton."""

    automaton: MealyAutomaton
    index: int

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
    return _walk(_tables(aut), state.index, aut.alphabet.check_word(letters))[0]


def section_word(state: StateRef, letters: Sequence[int] | str) -> StateRef:
    """Section of the state at a word: q|_(x v) = (q|_x)|_v."""
    aut = state.automaton
    return StateRef(aut, _walk(_tables(aut), state.index, aut.alphabet.check_word(letters))[1])


def _tables(aut: MealyAutomaton) -> Tables:
    return tuple(p.images for p in aut.perms), aut.sections


def _walk(tables: Tables, i: int, w: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """The image of the word w under state i, and the state below it: i's section at w."""
    images, sections = tables
    out = []
    for x in w:
        out.append(images[i][x])
        i = sections[i][x]
    return tuple(out), i


def _array(rows: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Rows of ints as one (n, k) int64 array; an array passes through."""
    if isinstance(rows, np.ndarray):
        return rows
    # read flat: np.array on a tuple of tuples is several times slower
    n, k = len(rows), len(rows[0]) if rows else 0
    return np.fromiter(itertools.chain.from_iterable(rows), np.int64, n * k).reshape(n, k)


def _tuples(rows: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """An (n, k) array as n row tuples of Python ints."""
    # zipping the k columns builds no list per row
    return tuple(zip(*rows.T.tolist()))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array, by a sort and a neighbour compare: numpy 2.3 on hashes there, many times slower."""
    keys = np.sort(keys)
    return np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))


def _inverse_rows(tables: Tables | Arrays) -> Arrays:
    """Inverse rows: state i of the result is q_i^-1, with q^-1|_y = (q|_{sigma_q^-1(y)})^-1.

    Section indices keep their meaning: they name the inverses of the states.
    """
    images, sections = map(_array, tables)
    inverse = np.argsort(images, axis=1)
    return inverse, np.take_along_axis(sections, inverse, axis=1)


def _product_tables(tables: Tables | Arrays, root: Sequence[int]) -> Arrays:
    """Tables of the tuples of states of one table reachable from root.

    Factors from several tables are one table with offset state ids. A tuple
    acts as its first component after the second after ... after the last,
    so the last component touches the input word first, and sections follow
    the product rule componentwise. Tuples are numbered in breadth-first
    order, root first: a frontier's successors in (tuple, letter) order, as a
    queue meets them.
    """
    images, sections = map(_array, tables)
    k, e = images.shape[1], len(images)
    # state e is the identity, put first in every tuple: it reads the input letter and hands it on
    images = np.concatenate((images, [np.arange(k)]))
    sections = np.concatenate((sections, np.full((1, k), e)))
    # tuples are keyed last position first, the order in which the action reads them, by the
    # bytes of their states in the narrowest dtype that holds them
    frontier = np.array([e, *root[::-1]])[None]
    n = frontier.shape[1]
    narrow = np.min_scalar_type(e)
    key = np.dtype((np.void, narrow.itemsize * n))
    number = {frontier.astype(narrow).tobytes(): 0}
    # position j reads the letter that positions 0..j-1 wrote, position 0 the input letter
    before = np.maximum(np.arange(n) - 1, 0)
    rounds = []
    while len(frontier):
        # position major, so a shift is a slice; perms[j, t] starts at (j * len(frontier) + t) * k
        starts = np.arange(0, frontier.size * k, k).reshape(n, -1, 1)
        # doubling scan: afterwards perms[j, t] is the output row of positions 0..j in turn
        perms = np.take(images, frontier.T, axis=0)
        shift = 1
        while shift < n - 1:
            perms[1 + shift :] = perms[1 + shift :].reshape(-1)[perms[1:-shift] + starts[: n - 1 - shift]]
            shift *= 2
        rows = sections[frontier[:, None], perms[before].transpose(1, 2, 0)].reshape(-1, n)
        met = rows.astype(narrow, order="C").view(key).ravel().tolist()
        # tuples not met before take the next numbers in order of first occurrence
        fresh = dict.fromkeys(itertools.filterfalse(number.__contains__, met))
        number.update(zip(fresh, itertools.count(len(number))))
        rounds.append((perms[-1], np.fromiter(map(number.__getitem__, met), np.int64, len(met)).reshape(-1, k)))
        frontier = np.frombuffer(b"".join(fresh), narrow).reshape(-1, n).astype(np.int64)
    return tuple(map(np.concatenate, zip(*rounds)))


def _quotient(tables: Tables | Arrays) -> tuple[np.ndarray, np.ndarray, Arrays]:
    """Quotient by refine_partition: each state's class, each class's first member, class tables."""
    images, sections = map(_array, tables)
    color = refine_partition(images, sections)[0]
    # classes are numbered by first occurrence, so first members come in class order
    _, reps = np.unique(color, return_index=True)
    return color, reps, (images[reps], color[sections[reps]])


def _reachable(
    successors: Callable[[Hashable], Iterable[Hashable]], roots: Iterable[Hashable]
) -> tuple[list, dict]:
    """Nodes reachable from roots in breadth-first order, and each node's place in it.

    On a table, successors is sections.__getitem__.
    """
    order = list(dict.fromkeys(roots))
    number = {q: i for i, q in enumerate(order)}
    for q in order:
        for j in successors(q):
            if j not in number:
                number[j] = len(order)
                order.append(j)
    return order, number


def _recurrent(successors: Sequence[Sequence[int]] | np.ndarray) -> list[int]:
    """Nodes reachable from a cycle, self-loops included, in ascending order.

    Kahn's peel in numpy rounds: drop the nodes that no remaining node points
    to, counting repeated edges with multiplicity, until none is left to drop;
    a round costs the edges of the nodes it drops. The nodes left are exactly
    those that end arbitrarily long paths. Rows are lists or the rows of an
    array, where entries below 0 are no edge.
    """
    n = len(successors)
    if not isinstance(successors, np.ndarray):
        width = np.fromiter(map(len, successors), np.int64, n)
        rows = np.full((n, width.max(initial=0)), -1)
        rows[np.arange(rows.shape[1]) < width[:, None]] = list(itertools.chain.from_iterable(successors))
        successors = rows
    indegree = np.bincount(successors[successors >= 0], minlength=n)
    drop = np.flatnonzero(indegree == 0)
    while len(drop):
        heads = successors[drop].ravel()
        hit, times = np.unique(heads[heads >= 0], return_counts=True)
        indegree[hit] -= times
        drop = hit[indegree[hit] == 0]
    return np.flatnonzero(indegree).tolist()


@functools.cache
def invert(aut: MealyAutomaton) -> MealyAutomaton:
    """Inverse closure: adjoins a formal inverse state for every state.

    On an already inverse-closed automaton this returns the automaton itself,
    so the inverse of an inverse resolves to the original state.
    """
    if aut.inverse_closed:
        return aut
    m = len(aut)
    inv_images, inv_sections = _inverse_rows(_tables(aut))
    names = aut.names + tuple(n + "^-1" for n in aut.names)
    perms = aut.perms + tuple(Permutation(img) for img in _tuples(inv_images))
    sections = aut.sections + _tuples(inv_sections + m)
    inverse_index = tuple(range(m, 2 * m)) + tuple(range(m))
    return MealyAutomaton(aut.alphabet, names, perms, sections, True, inverse_index)


def inverse_state(state: StateRef) -> StateRef:
    """State acting as the inverse, inside the inverse closure of its automaton."""
    aut = invert(state.automaton)
    assert aut.inverse_index is not None
    return StateRef(aut, aut.inverse_index[state.index])


def refine_partition(
    perm_keys: Sequence[tuple[int, ...]] | np.ndarray, sections: Sequence[tuple[int, ...]] | np.ndarray
) -> tuple[np.ndarray, int]:
    """Coarsest partition where classes share output rows and map sections to classes.

    Moore rounds until the class count stops growing: the output rows (entries
    below k), then the rows (color[i], color[sections[i][0]], ...), are folded
    into one int64 key per state, each column one more digit in radix
    max(count, k), and ranked by np.unique. A key that would reach 2^62 is
    ranked first, which compresses it below n. Classes come as an int64 array,
    numbered by first occurrence; two states share one iff they act alike.
    """
    if not len(perm_keys):
        return np.empty(0, dtype=np.int64), 0
    images, successors = _array(perm_keys), _array(sections)
    n, k = images.shape
    color, count, columns = np.zeros(n, dtype=np.int64), 0, images.T
    while True:
        radix, key, span = max(count, k), color, max(count, 1)
        for col in columns:
            if span * radix > 1 << 62:
                classes, key = np.unique(key, return_inverse=True)
                span = len(classes)
            key, span = key * radix, span * radix
            key += col
        classes, refined = np.unique(key, return_inverse=True)
        if len(classes) == count:
            _, first = np.unique(color, return_index=True)
            return np.argsort(np.argsort(first))[color], count
        color, count = refined, len(classes)
        columns = (color[col] for col in successors.T)


def minimize(aut: MealyAutomaton) -> tuple[MealyAutomaton, tuple[int, ...]]:
    """Merge states with identical actions; returns the quotient and the class map.

    Classes are ordered by first occurrence and keep the name of their least
    member, so minimizing twice returns an identical automaton.
    """
    color, reps, (_, sections) = _quotient(_tables(aut))
    color, reps = color.tolist(), reps.tolist()
    names = tuple(aut.names[r] for r in reps)
    perms = tuple(aut.perms[r] for r in reps)
    inverse_index = None
    if aut.inverse_closed:
        assert aut.inverse_index is not None
        inverse_index = tuple(color[aut.inverse_index[r]] for r in reps)
    quotient = MealyAutomaton(aut.alphabet, names, perms, _tuples(sections), aut.inverse_closed, inverse_index)
    return quotient, tuple(color)
