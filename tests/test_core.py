"""Words, permutations, automata, actions, inversion, products, minimization."""

import random
from itertools import product

import numpy as np
import pytest

from selfsim import (
    Alphabet,
    GroupWord,
    MealyAutomaton,
    Permutation,
    StateRef,
    act_word,
    canonicalize,
    catalog_get,
    catalog_list,
    compute_nucleus,
    invert,
    inverse_state,
    minimize,
    parse,
    section_word,
    to_automaton,
    word,
    word_str,
)
from selfsim import core
from selfsim.core import _quotient, _reachable, _recurrent, refine_partition

from ._oracles import doc_act, quotient_by_tuples, reachable_by_queue, recurrent_nodes, refine_by_signatures, words_upto


def _basilica():
    doc = catalog_get("basilica").document()
    aut, gens = to_automaton(doc)
    return doc, aut, gens


def test_word_accepts_strings_and_sequences():
    assert word("011") == (0, 1, 1)
    assert word([0, 1, 1]) == (0, 1, 1)
    assert word(()) == ()
    assert word_str((0, 1, 1)) == "011"
    assert word_str(()) == ""


def test_word_dotted_notation_round_trips():
    assert word("1.10") == (1, 10)
    assert word("10.") == (10,)
    assert word("0..3.") == (0, 3)
    assert word_str((10,)) == "10."
    assert word_str((1, 10)) == "1.10"
    rng = random.Random(9)
    for k in (11, 16):
        for n in range(5):
            w = tuple(rng.randrange(k) for _ in range(n))
            assert word(word_str(w)) == w
    with pytest.raises(ValueError):
        word("1.a")


def test_word_rejects_non_digits():
    with pytest.raises(ValueError):
        word("0a1")


def test_alphabet_check_word():
    a = Alphabet(2)
    assert a.check_word("0110") == (0, 1, 1, 0)
    with pytest.raises(ValueError):
        a.check_word((0, 2))
    with pytest.raises(ValueError):
        Alphabet(0)


def test_alphabet_index_word_round_trip():
    for k in (2, 3):
        a = Alphabet(k)
        for n in range(4):
            seen = []
            for w in product(range(k), repeat=n):
                i = a.index_of(w)
                assert a.word_at(i, n) == w
                seen.append(i)
            assert seen == list(range(k**n))


def test_alphabet_index_is_first_letter_major():
    a = Alphabet(2)
    assert a.index_of((0, 1)) == 1
    assert a.index_of((1, 0)) == 2
    assert a.word_at(2, 2) == (1, 0)


def test_alphabet_index_rejects_out_of_range_input():
    a = Alphabet(2)
    for index, n in ((5, 2), (4, 2), (-1, 3), (1, 0), (0, -1)):
        with pytest.raises(ValueError):
            a.word_at(index, n)
    assert a.word_at(3, 2) == (1, 1) and a.word_at(0, 0) == ()
    for w in ((0, 2), (-1,), "02"):
        with pytest.raises(ValueError):
            a.index_of(w)
    assert a.index_of("10") == 2


def test_permutation_identity():
    p = Permutation((2, 0, 1))
    assert Permutation.identity(3).is_identity
    assert not p.is_identity


def test_permutation_from_cycles_round_trip():
    p = Permutation.from_cycles([(0, 1)], 3)
    assert p.images == (1, 0, 2)
    assert p.cycles() == ((0, 1),)
    q = Permutation.from_cycles([(0, 2, 1)], 3)
    assert q.images == (2, 0, 1)
    assert Permutation.from_cycles(q.cycles(), 3) == q


def test_permutation_from_cycles_rejects_repeats_and_range():
    with pytest.raises(ValueError):
        Permutation.from_cycles([(0, 1), (1, 2)], 3)
    with pytest.raises(ValueError):
        Permutation.from_cycles([(0, 3)], 3)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((0, 0))


def test_automaton_validates_shapes():
    a = Alphabet(2)
    pid = Permutation.identity(2)
    with pytest.raises(ValueError):
        MealyAutomaton(a, ("p", "p"), (pid, pid), ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        MealyAutomaton(a, ("p",), (pid,), ((0, 2),))
    with pytest.raises(ValueError):
        MealyAutomaton(a, ("p",), (Permutation.identity(3),), ((0, 0),))
    # ragged rows with n * k entries in all would reshape into a table if read flat first
    with pytest.raises(ValueError, match="one section per letter"):
        MealyAutomaton(a, ("p", "q"), (pid, pid), ((0,), (1, 1, 0)))
    with pytest.raises(ValueError, match="section index -1 out of range"):
        MealyAutomaton(a, ("p", "q"), (pid, pid), ((0, 1), (-1, 0)))
    with pytest.raises(ValueError, match="match the state count"):
        MealyAutomaton(a, ("p", "q"), (pid,), ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="match the state count"):
        MealyAutomaton(a, ("p", "q"), (pid, pid), ((0, 1),))


def test_automaton_validates_inverse_index():
    _, aut, _ = _basilica()
    fields = (aut.alphabet, aut.names, aut.perms, aut.sections)
    # each state its own inverse: a a^-1 would not be the identity
    with pytest.raises(ValueError, match="inverse"):
        MealyAutomaton(*fields, (0, 1, 2))
    with pytest.raises(ValueError, match="state indices"):
        MealyAutomaton(*fields, (7, 0, 1))
    # the closure and its quotient name true inverses, so both still build
    closed = invert(aut)
    small, assignment = minimize(closed)
    assert small.inverse_closed and len(small) == len(closed) - 1
    for name in closed.names:
        i = assignment[closed.state(name).index]
        j = small.inverse_index[i]
        for w in words_upto(2, 6):
            assert act_word(small.state(j), act_word(small.state(i), w)) == w


def test_state_lookup_by_name_and_index():
    _, aut, gens = _basilica()
    assert aut.state("a") == aut.state(aut.state("a").index)
    assert {g.name for g in gens} == {"a", "b"}
    assert len(aut.states()) == len(aut)
    with pytest.raises(KeyError):
        aut.state("missing")


def test_state_index_outside_the_automaton_is_refused():
    # a negative index once aliased a state counted from the end: StateRef(basilica, -1) was id
    _, aut, _ = _basilica()
    for index in (-1, -len(aut), len(aut), 99):
        with pytest.raises(IndexError, match=rf"state index {index} out of range 0\.\.2"):
            StateRef(aut, index)
        with pytest.raises(IndexError, match="out of range"):
            aut.state(index)
    assert [StateRef(aut, i) for i in range(len(aut))] == aut.states()


def test_act_letter_matches_definitions():
    _, aut, _ = _basilica()
    a, b = aut.state("a"), aut.state("b")
    e = aut.state("id")
    # a = (0 1)(b, id): swaps, sections b then id
    assert (act_word(a, (0,)), section_word(a, (0,))) == ((1,), b)
    assert (act_word(a, (1,)), section_word(a, (1,))) == ((0,), e)
    # b = id(a, id): trivial root action
    assert (act_word(b, (0,)), section_word(b, (0,))) == ((0,), a)
    assert (act_word(b, (1,)), section_word(b, (1,))) == ((1,), e)


def test_act_word_matches_document_oracle():
    doc, aut, _ = _basilica()
    for st in doc.states:
        ref = aut.state(st.name)
        for w in words_upto(2, 6):
            assert act_word(ref, w) == doc_act(doc, st.name, w)


def test_act_word_preserves_prefixes():
    _, aut, _ = _basilica()
    a = aut.state("a")
    w = word("011010")
    img = act_word(a, w)
    for n in range(len(w)):
        assert act_word(a, w[:n]) == img[:n]


def test_section_word_composes():
    _, aut, _ = _basilica()
    a = aut.state("a")
    for w in words_upto(2, 5):
        ref = a
        for x in w:
            ref = section_word(ref, (x,))
        assert section_word(a, w) == ref


def test_invert_swaps_action():
    _, aut, _ = _basilica()
    closed = invert(aut)
    for name in aut.names:
        fwd = closed.state(name)
        bwd = inverse_state(fwd)
        for w in words_upto(2, 6):
            assert act_word(bwd, act_word(fwd, w)) == w


def test_invert_is_idempotent_on_closed_automata():
    _, aut, _ = _basilica()
    closed = invert(aut)
    assert invert(closed) is closed
    assert len(closed) == 2 * len(aut)  # one formal inverse per state


def test_inverse_state_resolves_double_inverses():
    _, aut, _ = _basilica()
    a = invert(aut).state("a")
    assert inverse_state(a).name == "a^-1"
    assert inverse_state(inverse_state(a)) == a
    # works from the unclosed automaton too, landing in the closure
    assert inverse_state(aut.state("a")).name == "a^-1"


def test_table_operations_accept_the_empty_automaton():
    empty = MealyAutomaton(Alphabet(2), (), (), ())
    assert len(minimize(empty)[0]) == 0
    assert len(invert(empty)) == 0


def test_minimize_collapses_duplicate_states():
    text = "alphabet 2\na = (0 1)(b, c)\nb = id(e, e)\nc = id(e, e)\ne = id(e, e)\ngens a\n"
    aut, _ = to_automaton(parse(text))
    small, assignment = minimize(aut)
    # b, c, e all act trivially everywhere, so they fall together
    assert len(small) == 2
    assert len({assignment[aut.state(n).index] for n in ("b", "c", "e")}) == 1


def test_minimize_preserves_action():
    _, aut, _ = _basilica()
    small, assignment = minimize(aut)
    for name in aut.names:
        orig = aut.state(name)
        mini = small.state(assignment[orig.index])
        for w in words_upto(2, 6):
            assert act_word(mini, w) == act_word(orig, w)


def test_minimize_already_minimal():
    _, aut, _ = _basilica()
    small, _ = minimize(aut)
    assert len(small) == len(aut)


def _generated_digraph(rng):
    kind = rng.choice(("dag", "loops", "cycle", "random"))
    n = rng.randint(1, 30 if kind == "cycle" else 12)
    succ = [[] for _ in range(n)]
    if kind == "dag":
        for i, j in product(range(n), repeat=2):
            if i < j:
                succ[i].extend([j] * rng.choice((0, 0, 1, 2)))
    elif kind == "loops":
        # self-loops and repeated edges
        for i in range(n):
            for _ in range(rng.randint(0, 2)):
                j = i if rng.random() < 0.4 else rng.randrange(n)
                succ[i].extend([j] * rng.randint(1, 3))
    elif kind == "cycle":
        # one cycle on the first nodes; each later node is a tail node, leading
        # into an earlier node or hanging behind one
        length = rng.randint(1, n)
        for i in range(length):
            succ[i].append((i + 1) % length)
        for i in range(length, n):
            j = rng.randrange(i)
            if rng.random() < 0.5:
                succ[i].append(j)
            else:
                succ[j].append(i)
    else:
        for i, j in product(range(n), repeat=2):
            if rng.random() < 1.2 / n:
                succ[i].append(j)
    # the same random renumbering for every edge, rows in random order
    sigma = rng.sample(range(n), n)
    out = [[] for _ in range(n)]
    for i, row in enumerate(succ):
        out[sigma[i]] = rng.sample([sigma[j] for j in row], len(row))
    return kind, out


# a kernel helper's size limit at 0 sends every input to its numpy form, and above every input here to its list form
_FORMS = pytest.mark.parametrize("limit", [0, 1 << 30], ids=["numpy", "lists"])


@_FORMS
def test_recurrent_matches_walk_oracle_on_generated_digraphs(monkeypatch, limit):
    monkeypatch.setattr(core, "_PEEL_LIMIT", limit)
    assert _recurrent(np.empty((0, 0), dtype=np.int64)) == recurrent_nodes([]) == []
    assert _recurrent(np.empty((2, 0), dtype=np.int64)) == recurrent_nodes([[], []]) == []
    rng, pad = random.Random(7), random.Random(8)
    for _ in range(200):
        kind, succ = _generated_digraph(rng)
        # the rows as an array, padded with entries below 0 that are no edge
        width = max(map(len, succ), default=0) + pad.randint(0, 2)
        padded = np.array([row + [-1 - pad.randrange(3)] * (width - len(row)) for row in succ], dtype=np.int64)
        got = _recurrent(padded.reshape(len(succ), width))
        assert got == recurrent_nodes(succ), (kind, succ)
        if kind == "dag":
            assert got == []
        if kind == "cycle":
            assert got


@_FORMS
def test_reachable_matches_queue_oracle_on_generated_successor_arrays(monkeypatch, limit):
    monkeypatch.setattr(core, "_WALK_LIMIT", limit)
    rng = random.Random(9)
    for _ in range(300):
        n, width = rng.randint(1, 20), rng.randint(1, 3)
        succ = np.array([[rng.randrange(n) for _ in range(width)] for _ in range(n)], dtype=np.int64)
        # repeated roots, in random order
        roots = [rng.randrange(n) for _ in range(rng.randint(0, 4))]
        roots += rng.sample(roots, len(roots) // 2)
        mask = np.array([rng.random() < 0.2 for _ in range(n)])
        order, marked = reachable_by_queue(succ.tolist(), roots, set(np.flatnonzero(mask).tolist()))
        seen = mask.copy()
        got = _reachable(succ, roots, seen)
        assert got.dtype == np.int64
        assert got.tolist() == order, (succ.tolist(), roots, mask.tolist())
        assert set(np.flatnonzero(seen).tolist()) == marked
        # without a mask the walk starts from nothing marked
        assert _reachable(succ, roots).tolist() == reachable_by_queue(succ.tolist(), roots, set())[0]


def _generated_table(rng, n, k):
    """Random (images, sections) on n states over k letters, at most three distinct image rows.

    Duplicates are planted as a block copied with its sections pointing into
    the copy, so a copy and its original have different rows and only
    refinement finds them equal; states are renumbered at random after.
    """
    # the identity, a cycle and a random row; mostly the identity
    rows = [tuple(range(k)), (*range(1, k), 0), tuple(rng.sample(range(k), k))]
    images = [rows[0] if rng.random() < 0.7 else rng.choice(rows) for _ in range(n)]
    sections = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(n)]
    block = rng.randint(0, n // 2)
    for i in range(block):
        images[n - block + i] = images[i]
        sections[n - block + i] = tuple(n - block + j if j < block else j for j in sections[i])
    sigma = rng.sample(range(n), n)
    out_images = [None] * n
    out_sections = [None] * n
    for i in range(n):
        out_images[sigma[i]] = images[i]
        out_sections[sigma[i]] = tuple(sigma[j] for j in sections[i])
    return out_images, out_sections


def _chain(n, k):
    """State i < n-1 fixes its letter and moves to i+1; only the last one swaps 0 and 1.

    State i first acts at depth n-1-i, so refinement needs about n rounds.
    """
    swap = (1, 0, *range(2, k))
    images = [tuple(range(k))] * (n - 1) + [swap]
    sections = [(i + 1,) * k for i in range(n - 1)] + [(n - 1,) * k]
    return images, sections


def _same_action(images, sections, i, j, depth):
    def act(q, w):
        out = []
        for x in w:
            out.append(images[q][x])
            q = sections[q][x]
        return out

    return all(act(i, w) == act(j, w) for w in words_upto(len(images[0]), depth))


def _check_quotient(images, sections, k):
    """_quotient against the tuple oracle: colors, first members and class tables."""
    got = _quotient(tuple(np.array(rows, dtype=np.int64).reshape(-1, k) for rows in (images, sections)))
    color, reps, (class_images, class_sections) = quotient_by_tuples((images, sections))
    assert got[0].tolist() == color and got[1].tolist() == reps, (images, sections)
    assert got[2][0].tolist() == [list(row) for row in class_images]
    assert got[2][1].tolist() == [list(row) for row in class_sections]


@_FORMS
def test_refine_partition_matches_signature_oracle(monkeypatch, limit):
    monkeypatch.setattr(core, "_REFINE_LIMIT", limit)
    color, count = refine_partition(np.empty((0, 2), np.int64), np.empty((0, 2), np.int64))
    assert (color.tolist(), count) == refine_by_signatures([], []) == ([], 0)
    assert color.dtype == np.int64
    _check_quotient([], [], 2)
    rng = random.Random(11)
    for k in (1, 2, 3, 11):
        for n in (1, 2, 3, 4, 5, 6, 7, 10, 17, 40, 100, 300):
            for _ in range(3):
                images, sections = _generated_table(rng, n, k)
                color, count = refine_partition(np.array(images), np.array(sections))
                assert (color.tolist(), count) == refine_by_signatures(images, sections), (k, images, sections)
                assert count == len(set(color))
                # in numpy, with k = 11 and n >= 100 the folded keys pass 2^62 and are re-ranked within a round
                _check_quotient(images, sections, k)
                if n <= 6 and k <= 3:
                    # Moore: inequivalent states differ on some word of length below n
                    for i, j in product(range(n), repeat=2):
                        assert (color[i] == color[j]) == _same_action(images, sections, i, j, n)
        if k > 1:
            for n in (2, 6, 50, 300):
                # discrete: refinement stops at n classes
                images, sections = _chain(n, k)
                color, count = refine_partition(np.array(images), np.array(sections))
                assert (color.tolist(), count) == refine_by_signatures(images, sections) == (list(range(n)), n)
                _check_quotient(images, sections, k)


def test_kernel_tables_hold_python_ints():
    # element tables are read-only int64 arrays; a numpy scalar leaked into a tuple prints as
    # np.int64(3) and hashes slowly, so the tuples users read hold Python ints
    images, sections = _generated_table(random.Random(3), 40, 2)
    color, count = refine_partition(np.array(images), np.array(sections))
    assert type(count) is int and color.dtype == np.int64
    _, aut, gens = _basilica()
    small, assignment = minimize(aut)
    closed = invert(aut)
    nucleus = compute_nucleus(gens)
    moore, _ = nucleus.moore_automaton()
    rows = [assignment]
    for table in (small, closed, moore):
        rows += [*table.sections, *(p.images for p in table.perms)]
    # an automaton's tables are its perms and sections, read once into read-only int64 arrays
    automata = [small, closed, moore, MealyAutomaton(Alphabet(3), (), (), ())]
    for entry in catalog_list():
        original = entry.automaton()[0]
        automata += [original, invert(original), minimize(original)[0]]
    for automaton in automata:
        shape = (len(automaton), automaton.alphabet.size)
        for table, expected in zip(automaton.tables, ([p.images for p in automaton.perms], automaton.sections)):
            assert table.dtype == np.int64 and table.shape == shape and not table.flags.writeable
            assert table.tolist() == [list(row) for row in expected]
    rng = random.Random(100)
    el = canonicalize(GroupWord(tuple(gens), tuple((rng.randrange(2), rng.choice((1, -1))) for _ in range(100))))
    assert el.size > 10
    elements = [el, el * el, el**3, el.inverse(), el * el.inverse(), el.section((0, 1)), el.state_element(el.size - 1)]
    elements += nucleus.elements
    for g in elements:
        for table in (g.perms, g.sections):
            assert table.dtype == np.int64 and table.shape == (g.size, g.k) and not table.flags.writeable
        rows.append(g.act((0, 1, 1, 0, 1)))
    assert all(type(v) is int for row in rows for v in row)
