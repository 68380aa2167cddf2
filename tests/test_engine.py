"""Canonical elements, the word problem, nucleus computation, recurrence."""

import gc
import math
import random
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest

from selfsim import (
    Alphabet,
    CanonicalElement,
    GroupWord,
    MealyAutomaton,
    NotContractingError,
    Permutation,
    RecursionDocument,
    StateDef,
    act_word,
    build_schreier,
    canonical_state,
    canonicalize,
    catalog_get,
    catalog_list,
    compute_nucleus,
    invert,
    inverse_state,
    is_recurrent,
    minimize,
    parse,
    recurrent_sections,
    self_similarity_graph,
    to_automaton,
)
from selfsim import core, engine
from selfsim.core import _inverse_rows, _product_tables, _quotient, _recurrent, _walk, refine_partition
from selfsim.engine import _bfs_root, _Pool, _product

from ._oracles import (
    bfs_root_by_tuples,
    canonical_by_tuples,
    canonicalize_by_tuples,
    inverse_by_tuples,
    mul_by_tuples,
    nucleus_by_products,
    pair_numbers,
    recurrence_by_products,
    recurrent_nodes,
    spheres_by_words,
    state_element_by_tuples,
    word_act,
    words_upto,
)


def _load(key):
    entry = catalog_get(key)
    doc = entry.document()
    aut, gens = to_automaton(doc)
    return doc, aut, gens


def _gw(gens, *factors):
    return GroupWord(tuple(gens), tuple(factors))


def test_canonical_state_identity():
    _, aut, _ = _load("basilica")
    assert canonical_state(aut.state("id")).is_identity
    assert canonical_state(aut.state("id")) == CanonicalElement.identity(2)
    assert not canonical_state(aut.state("a")).is_identity


def test_canonical_element_action_matches_state():
    doc, aut, _ = _load("grigorchuk")
    for st in doc.states:
        el = canonical_state(aut.state(st.name))
        for w in words_upto(2, 5):
            assert el.act(w) == word_act(doc, [(st.name, 1)], w)


def test_canonicalize_matches_word_oracle():
    doc, aut, gens = _load("basilica")
    words = [
        [("a", 1)],
        [("a", -1)],
        [("a", 1), ("b", 1)],
        [("b", 1), ("a", 1)],
        [("a", 1), ("b", -1), ("a", -1)],
        [("b", 1), ("b", 1), ("a", 1), ("b", -1)],
    ]
    name_pos = {g.name: i for i, g in enumerate(gens)}
    for factors in words:
        gw = _gw(gens, *[(name_pos[n], e) for n, e in factors])
        el = canonicalize(gw)
        for w in words_upto(2, 6):
            assert el.act(w) == word_act(doc, factors, w)


def test_group_word_algebra():
    _, _, gens = _load("basilica")
    g = _gw(gens, (0, 1), (1, 1))
    h = _gw(gens, (1, -1))
    assert (g * h).factors == ((0, 1), (1, 1), (1, -1))
    assert g.inverse().factors == ((1, -1), (0, -1))
    assert canonicalize(g * g.inverse()).is_identity


def test_canonical_multiplication_is_composition():
    doc, aut, _ = _load("grigorchuk")
    els = {st.name: canonical_state(aut.state(st.name)) for st in doc.states}
    for x in ("a", "b", "c", "d"):
        for y in ("a", "b", "c", "d"):
            prod = els[x] * els[y]
            for w in words_upto(2, 5):
                assert prod.act(w) == els[x].act(els[y].act(w))


def test_canonical_inverse_and_power():
    _, aut, _ = _load("basilica")
    a = canonical_state(aut.state("a"))
    assert (a * a.inverse()).is_identity
    assert a**3 == a * a * a
    assert a**-2 == (a.inverse()) * (a.inverse())
    assert (a**0).is_identity
    for w in words_upto(2, 5):
        assert a.inverse().act(a.act(w)) == w


def test_powers_take_integral_exponents_only():
    _, aut, _ = _load("basilica")
    a = canonical_state(aut.state("a"))
    for n in (2.5, 3.0, "2"):
        with pytest.raises(TypeError):
            a**n
    assert a ** np.int64(3) == a**3
    assert a ** np.int32(-2) == a**-2
    assert a**True == a
    assert (a**False).is_identity


def test_canonical_state_matches_tuple_oracle():
    # every state of the catalog, and of generated automata, where equivalent states are common
    rng = random.Random(3)
    automata = [entry.automaton()[0] for entry in catalog_list()]
    automata += [to_automaton(_random_document(rng))[0] for _ in range(40)]
    for aut in automata:
        tables = (tuple(p.images for p in aut.perms), aut.sections)
        for st in aut.states():
            assert canonical_state(st) == canonical_by_tuples(tables, st.index), (aut, st.name)


def test_canonical_sections_follow_the_action():
    _, aut, _ = _load("basilica")
    a = canonical_state(aut.state("a"))
    b = canonical_state(aut.state("b"))
    assert a.section((0,)) == b
    assert a.section((1,)).is_identity
    assert a.section(()) == a
    prod = a * b
    # (gh)|_v = g|_{h(v)} h|_v
    for v in words_upto(2, 4):
        assert prod.section(v) == a.section(b.act(v)) * b.section(v)


def test_grigorchuk_relations():
    _, aut, _ = _load("grigorchuk")
    a, b, c, d = (canonical_state(aut.state(n)) for n in "abcd")
    for g in (a, b, c, d):
        assert (g * g).is_identity
    assert b * c == d
    assert c * d == b
    assert d * b == c
    assert ((a * d) ** 4).is_identity
    assert ((a * c) ** 8).is_identity
    assert not ((a * c) ** 4).is_identity
    assert ((a * b) ** 16).is_identity
    assert not ((a * b) ** 8).is_identity


def test_odometer_powers():
    _, aut, _ = _load("odometer")
    a = canonical_state(aut.state("a"))
    for n in range(1, 4):
        el = a ** (2**n)
        assert not el.is_identity
        # trivial on level n, and the section there is the odometer again
        for w in product(range(2), repeat=n):
            assert el.act(w) == w
            assert el.section(w) == a
    assert (a**5).act((1, 0, 1)) == (0, 1, 0)  # 5 in binary, least bit first


def test_canonical_element_is_minimal():
    _, aut, _ = _load("grigorchuk")
    b = canonical_state(aut.state("b"))
    assert b.size == 5  # b, a, c, d, e are pairwise distinct states
    _, aut2, _ = _load("odometer")
    a = canonical_state(aut2.state("a"))
    assert a.size == 2
    assert (a * a.inverse()).size == 1


def test_state_element_outside_the_element_is_refused():
    # a negative index once gave the element of a state counted from the end, a large one numpy's error
    _, _, gens = _load("basilica")
    el = canonicalize(_gw(gens, (0, 1), (1, 1)))
    for i in (-1, -el.size, el.size, 99):
        with pytest.raises(IndexError, match=rf"state index {i} out of range 0\.\.{el.size - 1}"):
            el.state_element(i)
    assert el.state_element(0) == el


def test_hash_consistency():
    _, aut, _ = _load("basilica")
    a = canonical_state(aut.state("a"))
    again = canonicalize(_gw([aut.state("a")], (0, 1)))
    assert a == again
    assert hash(a) == hash(again)
    assert len({a, again}) == 1


def test_recurrent_sections_of_odometer():
    _, aut, _ = _load("odometer")
    a = canonical_state(aut.state("a"))
    assert set(recurrent_sections(a)) == {a, CanonicalElement.identity(2)}


def test_recurrent_sections_of_basilica():
    _, aut, _ = _load("basilica")
    a = canonical_state(aut.state("a"))
    b = canonical_state(aut.state("b"))
    assert set(recurrent_sections(a)) == {a, b, CanonicalElement.identity(2)}


def test_recurrent_sections_drop_transient_states():
    # s sits above a cycle it never re-enters: only the cycle part recurs
    aut, gens = to_automaton(parse("alphabet 2\ns = (0 1)(t, t)\nt = id(t, t)\ngens s\n"))
    s = canonical_state(aut.state("s"))
    assert set(recurrent_sections(s)) == {CanonicalElement.identity(2)}


def test_nucleus_odometer():
    _, _, gens = _load("odometer")
    res = compute_nucleus(gens)
    assert res.is_contracting
    assert res.verdict == "contracting"
    a = canonical_state(gens[0])
    assert set(res.elements) == {CanonicalElement.identity(2), a, a.inverse()}
    assert res.depth == 1


def test_nucleus_basilica():
    _, _, gens = _load("basilica")
    res = compute_nucleus(gens)
    assert res.is_contracting
    assert len(res.elements) == 7
    assert res.depth == 2
    names = res.element_names()
    assert set(names) >= {"id", "a", "b", "a^-1", "b^-1"}
    a, b = canonical_state(gens[0]), canonical_state(gens[1])
    assert set(res.elements) == {
        CanonicalElement.identity(2),
        a, a.inverse(), b, b.inverse(),
        b * a.inverse(), a * b.inverse(),
    }


def test_nucleus_grigorchuk():
    _, _, gens = _load("grigorchuk")
    res = compute_nucleus(gens)
    assert res.is_contracting
    assert len(res.elements) == 5
    assert res.depth == 1
    # the five generators are their own inverses and form the whole nucleus
    assert {el for el in res.elements} == {canonical_state(g) for g in gens} | {
        CanonicalElement.identity(2)
    }


def test_nucleus_is_section_closed_and_symmetric():
    for key in ("odometer", "basilica", "z2", "grigorchuk"):
        _, _, gens = _load(key)
        res = compute_nucleus(gens)
        nuc = set(res.elements)
        k = gens[0].automaton.alphabet.size
        assert CanonicalElement.identity(k) in nuc
        for el in nuc:
            assert el.inverse() in nuc
            for x in range(k):
                assert el.section((x,)) in nuc


def test_nucleus_certificate_re_verified_by_enumeration():
    for key in ("odometer", "basilica", "z2"):
        _, _, gens = _load(key)
        res = compute_nucleus(gens)
        nuc = set(res.elements)
        k = gens[0].automaton.alphabet.size
        pool = set(nuc)
        for g in gens:
            el = canonical_state(g)
            pool.add(el)
            pool.add(el.inverse())
        for left in pool:
            for right in pool:
                prod = left * right
                for w in product(range(k), repeat=res.depth):
                    assert prod.section(w) in nuc


def test_nucleus_depth_is_least():
    # at depth-1 some product must still have a section outside the nucleus
    _, _, gens = _load("basilica")
    res = compute_nucleus(gens)
    assert res.depth == 2
    nuc = set(res.elements)
    pool = set(nuc)
    for g in gens:
        el = canonical_state(g)
        pool.add(el)
        pool.add(el.inverse())
    escapes = [
        (left, right)
        for left in pool
        for right in pool
        if any((left * right).section((x,)) not in nuc for x in range(2))
    ]
    assert escapes


def test_nucleus_bound_exceeded_elements():
    # the witness is the member that passes the bound, however many join with it, the seeds too:
    # odometer has 3 seeds, grigorchuk and basilica more than 3
    cases = [("lamplighter", 50), ("aleshin", 40), ("long-range", 30), ("odometer", 0), ("odometer", 2)]
    cases += [(key, bound) for key in ("grigorchuk", "basilica") for bound in range(4)]
    for key, bound in cases:
        _, _, gens = _load(key)
        res = compute_nucleus(gens, max_elements=bound, max_depth=20)
        assert not res.is_contracting
        assert res.verdict == "bound-exceeded"
        assert res.reason == "elements"
        assert res.elements is None
        assert res.witness_count == bound + 1


def test_nucleus_bound_exceeded_depth():
    # the closure finishes at 10 elements but certification needs depth 3
    _, _, gens = _load("aut878")
    res = compute_nucleus(gens, max_depth=2)
    assert res.verdict == "bound-exceeded"
    assert res.reason == "depth"
    # every certificate needs depth 1 at least, so depth 0 certifies no nucleus
    for key in ("identity", "odometer", "grigorchuk"):
        res = compute_nucleus(_load(key)[2], max_depth=0)
        assert (res.verdict, res.reason, res.depth) == ("bound-exceeded", "depth", None)
        assert compute_nucleus(_load(key)[2], max_depth=1).depth == 1
    full = compute_nucleus(gens)
    assert full.is_contracting
    assert len(full.elements) == 10
    assert full.depth == 3


def test_moore_automaton_round_trip():
    _, _, gens = _load("basilica")
    res = compute_nucleus(gens)
    aut, index = res.moore_automaton()
    assert len(aut) == len(res.elements)
    for el, i in index.items():
        ref = aut.state(i)
        for w in words_upto(2, 5):
            assert el.act(w) == act_word(ref, w)


def test_moore_automaton_requires_contraction():
    _, _, gens = _load("lamplighter")
    res = compute_nucleus(gens, max_elements=50)
    with pytest.raises(NotContractingError):
        res.moore_automaton()
    with pytest.raises(NotContractingError):
        res.element_names()


def test_nucleus_gen_elements_names():
    _, _, gens = _load("basilica")
    named = compute_nucleus(gens).gen_elements
    assert [n for n, _ in named] == ["a", "b"]
    assert [el for _, el in named] == [canonical_state(g) for g in gens]


@pytest.mark.parametrize("name, expected", [
    ("n5", ["id", "n5", "n5^-1", "a", "a^-1", "n5_", "n6"]),
    ("n6", ["id", "n6", "n6^-1", "a", "a^-1", "n5", "n6_"]),
    ("id", ["id", "id_", "id^-1", "a", "a^-1", "n5", "n6"]),
])
def test_nucleus_element_names_are_distinct(name, expected):
    # a generator named like a fallback name, or id but not the identity, once named two elements alike
    doc = parse(f"alphabet 2\na = (0 1)({name}, e)\n{name} = id(a, e)\ne = id(e, e)\ngens a {name}\n")
    res = compute_nucleus(to_automaton(doc)[1])
    assert res.element_names() == expected
    aut, index = res.moore_automaton()
    assert aut.names == tuple(expected) and list(index) == list(res.elements)


def test_generators_from_two_automata_are_rejected():
    _, _, basilica = _load("basilica")
    _, _, odometer = _load("odometer")
    mixed = [basilica[0], odometer[0]]
    for run in (
        compute_nucleus,
        is_recurrent,
        lambda gens: build_schreier(gens, 2),
        lambda gens: GroupWord(tuple(gens), ((0, 1),)),
        lambda gens: self_similarity_graph(gens, 2),
    ):
        with pytest.raises(ValueError, match="all generators must come from one automaton"):
            run(mixed)


def test_elements_reached_by_different_routes_are_one_value():
    _, _, gens = _load("basilica")
    u = _gw(gens, (0, 1), (1, -1), (0, 1), (1, 1), (1, 1))
    w = u * u * u
    half = len(w.factors) // 2
    el = canonicalize(w)
    assert el.size > 1
    routes = [
        canonicalize(_gw(gens, *w.factors[:half])) * canonicalize(_gw(gens, *w.factors[half:])),
        canonicalize(u) ** 3,
        el.inverse().inverse(),
        canonicalize_by_tuples(w),
    ]
    for other in routes:
        assert other == el and hash(other) == hash(el)
    assert len({el, *routes}) == 1
    assert el not in {el.inverse(), canonicalize(u)}
    for table in (el.perms, el.sections):
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_is_recurrent_bound_must_not_be_negative():
    _, _, gens = _load("basilica")
    with pytest.raises(ValueError, match="max_word_length must not be negative"):
        is_recurrent(gens, -1)
    assert is_recurrent(gens, 0).kind == "inconclusive"


def test_is_recurrent_verdicts(monkeypatch):
    products = []
    original = CanonicalElement.__mul__

    def counted(self, other):
        products.append((self, other))
        return original(self, other)

    monkeypatch.setattr(CanonicalElement, "__mul__", counted)
    for key, expected in (("basilica", True), ("z2", True), ("odometer", True)):
        _, _, gens = _load(key)
        verdict = is_recurrent(gens)
        assert bool(verdict) is expected
        assert verdict.kind == "true"
    _, _, gens = _load("identity")
    verdict = is_recurrent(gens)
    assert verdict.kind == "false"
    assert not verdict
    # the ball is searched on pool states, never by a canonical product
    assert products == []


def test_is_recurrent_finds_identity_generators():
    # the empty word fixes letter 0 with the identity below, so a generator acting as the identity is found
    text = "alphabet 2\na = (0 1)(e, a)\ne = id(e, e)\n"
    for line in ("gens a\n", "gens a e\n"):
        _, gens = to_automaton(parse(text + line))
        assert is_recurrent(gens).kind == recurrence_by_products(gens).kind == "true"
    _, gens = to_automaton(parse("alphabet 1\ne = id(e)\ngens e\n"))
    for length in (0, 1, 8):
        assert is_recurrent(gens, length).kind == recurrence_by_products(gens, length).kind == "true"


def test_compute_nucleus_requires_generators():
    with pytest.raises(ValueError):
        compute_nucleus([])


def _random_document(rng):
    k = rng.choice((2, 3))
    names = [f"s{i}" for i in range(rng.randint(1, 4))]
    states = tuple(
        StateDef(name, Permutation(tuple(rng.sample(range(k), k))), tuple(rng.choice(names) for _ in range(k)))
        for name in names
    )
    return RecursionDocument(k, states, tuple(names))


def _random_bounded_document(rng):
    # every state has at most one section besides the identity: bounded, so contracting
    k = rng.choice((2, 3))
    names = [f"s{i}" for i in range(rng.randint(1, 3))]
    states = [StateDef("e", Permutation(tuple(range(k))), ("e",) * k)]
    for name in names:
        row = ["e"] * k
        row[rng.randrange(k)] = rng.choice(names)
        states.append(StateDef(name, Permutation(tuple(rng.sample(range(k), k))), tuple(row)))
    return RecursionDocument(k, tuple(states), tuple(names))


def _document_with_strays(rng):
    # the generators s<i> never reach the states t<i>, whose sections may lead anywhere
    k = rng.choice((2, 3))
    gens = [f"s{i}" for i in range(rng.randint(1, 3))]
    names = gens + [f"t{i}" for i in range(rng.randint(1, 3))]
    states = tuple(
        StateDef(
            name,
            Permutation(tuple(rng.sample(range(k), k))),
            tuple(rng.choice(gens if name in gens else names) for _ in range(k)),
        )
        for name in rng.sample(names, len(names))
    )
    return RecursionDocument(k, states, tuple(gens))


def _stacked_pool(gens):
    """The pool as the identity, then each generator and its inverse, canonical elements stacked and quotiented."""
    elements = [CanonicalElement.identity(gens[0].automaton.alphabet.size)]
    for g in gens:
        el = canonical_state(g)
        elements += [el, el.inverse()]
    starts = np.cumsum([0, *(el.size for el in elements)])[:-1]
    images = np.concatenate([el.perms for el in elements])
    sections = np.concatenate([np.array(el.sections) + start for el, start in zip(elements, starts)])
    color, _, (images, sections) = _quotient((images, sections))
    return images, sections, color[starts]


def test_pool_from_the_table_matches_stacked_canonical_elements():
    rng = random.Random(41)
    automata = [to_automaton(entry.document())[1] for entry in catalog_list()]
    automata += [to_automaton(_document_with_strays(rng))[1] for _ in range(40)]
    for gens in automata:
        pool = _Pool(gens)
        images, sections, ids = _stacked_pool(gens)
        assert np.array_equal(pool.images, images)
        assert np.array_equal(pool.sections, sections)
        assert np.array_equal(pool.ids, ids)


def test_nucleus_matches_product_oracle_on_generated_automata(monkeypatch):
    # per explore: the root keys it gets and the pairs met before it
    batches = []
    explore = _Pool.explore

    def counted(self, roots):
        batches.append((len(roots), len(self.cls)))
        return explore(self, roots)

    monkeypatch.setattr(_Pool, "explore", counted)
    rng = random.Random(20)
    outcomes = set()
    most = 0
    for t in range(60):
        doc = (_random_document if t % 2 else _random_bounded_document)(rng)
        _, gens = to_automaton(doc)
        bound, depth = rng.choice((3, 12, 48, 96)), rng.choice((1, 2, 3, 8))
        pool = _Pool(gens)
        seeds = _recurrent(pool.sections)
        batches.clear()
        res = compute_nucleus(gens, bound, depth)
        # the first batch pairs the seeds, up to twice the doubling rule's first end; seeds past the bound take none
        end = min(len(seeds), 2 * (math.isqrt(len(pool.images) - 1) + 1))
        assert batches[:1] == ([(end**2, 0)] if len(seeds) <= bound else [])
        if res.reason == "elements":
            # a closure that passes its bound never reaches the certificate: one explore per batch
            most = max(most, len(batches))
        if res.is_contracting:
            # N is closed under sections, so the closure meets exactly the pairs of N before the certificate
            assert batches[-1][1] == len(res.elements) ** 2
        ref = nucleus_by_products(gens, bound, depth)
        assert (res.verdict, res.reason, res.elements, res.depth, res.witness_count) == (
            ref.verdict, ref.reason, ref.elements, ref.depth, ref.witness_count
        )
        outcomes.add(res.reason)
        if res.is_contracting:
            nuc = set(res.elements)
            pool = nuc | {el for _, g in res.gen_elements for el in (g, g.inverse())}
            for left, right in product(pool, repeat=2):
                prod = left * right
                for w in product(range(doc.alphabet_size), repeat=res.depth):
                    assert prod.section(w) in nuc
            if res.depth > 1:
                shallow = compute_nucleus(gens, bound, res.depth - 1)
                assert (shallow.verdict, shallow.reason) == ("bound-exceeded", "depth")
                outcomes.add(shallow.reason)
        elif res.reason == "elements":
            wider = compute_nucleus(gens, 2 * bound, depth)
            assert not wider.is_contracting or len(wider.elements) > bound
        else:
            deeper = compute_nucleus(gens, bound, 2 * depth)
            assert not deeper.is_contracting or deeper.depth > depth
    assert outcomes == {None, "elements", "depth"}
    # the bounds reach past the first doublings of the closure's batches
    assert most >= 3
    # basilica: 5 seeds, one doubled batch after theirs, then the certificate; N has 7 elements
    batches.clear()
    res = compute_nucleus(_load("basilica")[2])
    assert len(res.elements) == 7
    assert batches == [(25, 0), (24, 25), (49, 49)]
    # mother-3-3: 62 seeds among 62 pool states, so the first batch ends at 2 * 8, not at 62
    batches.clear()
    compute_nucleus(_load("mother-3-3")[2], 62)
    assert batches[0] == (16**2, 0)


def test_nucleus_elements_are_queue_renumberings_of_pool_states(monkeypatch):
    calls = []
    bfs_root = engine._bfs_root

    def recorded(tables, root):
        out = bfs_root(tables, root)
        calls.append((tables, root, out))
        return out

    monkeypatch.setattr(engine, "_bfs_root", recorded)
    contracting = [e.key for e in catalog_list() if any(p[0] == "contracting" for p in e.expected)]
    assert len(contracting) == 12
    for key in contracting:
        calls.clear()
        gens = _load(key)[2]
        res = compute_nucleus(gens)
        # one walk per generator, then one per member
        assert len(calls) == len(gens) + len(res.elements)
        assert [el for _, el in res.gen_elements] == [out for _, _, out in calls[: len(gens)]]
        assert sorted((out for _, _, out in calls[len(gens):]), key=lambda e: e.sort_key) == list(res.elements)
        for (images, sections), root, got in calls:
            assert got == bfs_root_by_tuples((images.tolist(), sections.tolist()), root)


def test_is_recurrent_matches_product_oracle_on_generated_automata():
    rng = random.Random(9)
    kinds = set()
    for t in range(40):
        doc = (_random_document if t % 2 else _random_bounded_document)(rng)
        _, gens = to_automaton(doc)
        for length in range(1, 5):
            verdict = is_recurrent(gens, length)
            ref = recurrence_by_products(gens, length)
            assert (verdict.kind, verdict.word_length_bound) == (ref.kind, ref.word_length_bound)
            kinds.add(verdict.kind)
    assert kinds == {"true", "false", "inconclusive"}


def _sphere_sizes(gens, radius):
    return [len(sphere) for sphere in _Pool(gens).spheres(radius)]


def test_spheres_match_closed_forms():
    # Aleshin's group is free of rank 3, z2 is Z^2 on a basis and the odometer Z
    assert _sphere_sizes(_load("aleshin")[2], 7) == [6 * 5 ** (n - 1) for n in range(1, 8)]
    assert _sphere_sizes(_load("z2")[2], 10) == [4 * n for n in range(1, 11)]
    assert _sphere_sizes(_load("odometer")[2], 12) == [2] * 12
    assert _sphere_sizes(_load("basilica")[2], 0) == []


def test_spheres_match_word_oracle_on_generated_automata():
    rng = random.Random(23)
    sizes = set()
    for t in range(40):
        doc = (_random_document if t % 2 else _random_bounded_document)(rng)
        _, gens = to_automaton(doc)
        pool = _Pool(gens)
        spheres = []
        for sphere in pool.spheres(3):
            spheres.append([_bfs_root((pool.images, pool.sections), s) for s in sphere.tolist()])
        assert spheres == spheres_by_words(gens, 3), t
        sizes.update(map(len, spheres))
    # finite groups run out of spheres, and infinite ones keep growing
    assert 0 in sizes and max(sizes) > 10


def test_pool_invariants_on_generated_automata(monkeypatch):
    # the pool stays minimal, and every placed pair's state acts as its two factors composed
    pools = []
    init = _Pool.__init__

    def recorded(self, elements):
        init(self, elements)
        pools.append(self)

    monkeypatch.setattr(_Pool, "__init__", recorded)
    rng = random.Random(31)
    placed = 0
    for t in range(24):
        doc = (_random_document if t % 2 else _random_bounded_document)(rng)
        _, gens = to_automaton(doc)
        pools.clear()
        compute_nucleus(gens, 48, 8)
        is_recurrent(gens, 3)
        for pool in pools:
            n = len(pool.images)
            color, count = refine_partition(pool.images, pool.sections)
            assert (color.tolist(), count) == (list(range(n)), n)
            assert sorted(pool.at[:-1].tolist()) == list(range(len(pool.cls)))
            for key, number in zip(pool.keys[:-1].tolist(), pool.at[:-1].tolist()):
                state = int(pool.cls[number])
                if state < 0:
                    continue
                placed += 1
                left, right = key >> 32, key & 0xFFFFFFFF
                for w in words_upto(doc.alphabet_size, 3):
                    inner = _walk((pool.images, pool.sections), right, w)[0]
                    assert _walk((pool.images, pool.sections), state, w)[0] == _walk(
                        (pool.images, pool.sections), left, inner
                    )[0]
    assert placed


def _recorded_pools(monkeypatch):
    """A list that every pool built from now on joins."""
    pools = []
    init = _Pool.__init__

    def recorded(self, elements):
        init(self, elements)
        pools.append(self)

    monkeypatch.setattr(_Pool, "__init__", recorded)
    return pools


def test_explore_numbers_pairs_as_the_oracle_does(monkeypatch):
    # every explore of the closure and the recurrence ball against the dict walk, from the pool it starts on
    explore, explores = _Pool.explore, []

    def checked(self, roots):
        known = dict(zip(self.keys[:-1].tolist(), self.at[:-1].tolist()))
        start = explore(self, roots)
        numbers, rows = pair_numbers(self.images, self.sections, known, roots.tolist())
        assert (np.diff(self.keys) > 0).all()
        assert dict(zip(self.keys[:-1].tolist(), self.at[:-1].tolist())) == numbers
        assert self.succ[start:].tolist() == rows
        assert len(self.cls) == len(numbers)
        explores.append(len(numbers) - len(known))
        return start

    monkeypatch.setattr(_Pool, "explore", checked)
    rng = random.Random(37)
    makers = (_random_document, _random_bounded_document, _document_with_strays)
    automata = [to_automaton(entry.document())[1] for entry in catalog_list()]
    automata += [to_automaton(makers[t % 3](rng))[1] for t in range(30)]
    for gens in automata:
        compute_nucleus(gens, 300), is_recurrent(gens, 4)
    # explores that meet no new pair count too, and most meet some
    assert len(explores) > 150 and sum(map(bool, explores)) > len(explores) / 2


def test_explore_merges_only_new_keys(monkeypatch):
    merge, sizes = engine._merge, []

    def recorded(keys, at, new, number):
        sizes.append(len(new))
        return merge(keys, at, new, number)

    monkeypatch.setattr(engine, "_merge", recorded)
    for entry in catalog_list():
        gens = to_automaton(entry.document())[1]
        compute_nucleus(gens, 300), is_recurrent(gens, 4)
    assert sizes and min(sizes) > 0


@pytest.mark.parametrize("key", ["long-range", "aut882"])
def test_closure_peak_stays_near_the_pool(monkeypatch, key):
    # the traced peak as a multiple of the pool's own arrays, which holds across numpy versions: about
    # 2.1 and 1.9 here, and 2.4 or more when a large frontier's keys, gathers and frontier live at once
    pools = _recorded_pools(monkeypatch)
    gens = _load(key)[2]
    tracemalloc.start()
    try:
        assert compute_nucleus(gens, max_elements=1000).reason == "elements"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pool = pools[0]
    size = sum(table.nbytes for table in (pool.keys, pool.at, pool.succ, pool.cls, pool.images, pool.sections))
    assert peak <= 2.25 * size, peak / size


def test_dict_and_index_number_products_alike(monkeypatch):
    # a floor at the cap numbers every product by the dict, the default band some by the index, a
    # floor of 0 every product whose key space fits under the cap; all three give the same bytes
    made, spaces = [], []
    indexed, floor, cap = core._indexed, core._INDEX_FLOOR, core._INDEX_CAP

    def recorded(tables, root):
        out = _product_tables(tables, root)
        made.append([(table.dtype, table.shape, table.tobytes()) for table in out])
        return out

    def counted(states, root):
        spaces.append(states ** len(root))
        return indexed(states, root)

    monkeypatch.setattr(engine, "_product_tables", recorded)
    monkeypatch.setattr(core, "_indexed", counted)
    runs = {}
    for forced in (cap, floor, 0):
        monkeypatch.setattr(core, "_INDEX_FLOOR", forced)
        made.clear()
        spaces.clear()
        rng, els = random.Random(11), []
        # the planted-duplicate tables of the table kernel test
        for _ in range(30):
            images, sections = invert(to_automaton(_random_document(rng))[0]).tables
            m, k = images.shape
            shift = m * np.array([rng.randrange(2) for _ in range(2 * m * k)]).reshape(-1, k)
            planted = (np.tile(images, (2, 1)), np.tile(sections, (2, 1)) + shift)
            for length in range(1, 7):
                recorded(planted, [rng.randrange(2 * m) for _ in range(length)])
        # catalog words, their products and powers
        for entry in catalog_list():
            _, _, gens = _load(entry.key)
            els += [canonicalize(_gw(gens, *_random_reduced(rng, len(gens), length))) for length in (3, 5, 6)]
            small = [el for el in els[-3:] if el.size <= 64]
            els += [a * b for a, b in zip(small, small[1:])] + [el**p for el in small[:2] for p in (3, -2)]
        # a positive aleshin word: r = 9 pair states from the walk, 9^4 keys
        _, _, gens = _load("aleshin")
        els.append(canonicalize(_gw(gens, *[(rng.randrange(3), 1) for _ in range(8)])))
        runs[forced] = list(made), list(spaces), els
    by_dict, band, everywhere = runs.values()
    assert not by_dict[1]
    assert 9**4 in band[1] and all(floor < space <= cap for space in band[1])
    assert len(everywhere[1]) > 2 * len(band[1])
    assert by_dict[0] == band[0] == everywhere[0]
    assert by_dict[2] == band[2] == everywhere[2]


def test_closure_schedule_is_pinned_by_pairs_met(monkeypatch):
    # members join in the order of their pair numbers, so these counts fix the numbering: new pairs
    # numbered in plain key order, in one pass for all letters, met 388,273 pairs on aut882
    pools = _recorded_pools(monkeypatch)
    for key, met in (("aut882", 240_463), ("long-range", 247_996)):
        pools.clear()
        assert compute_nucleus(_load(key)[2], max_elements=1000).reason == "elements"
        assert len(pools[0].cls) == met


@pytest.mark.parametrize("key, bound, met, states", [
    ("aut882", 300, 27_158, 365),
    ("aut882", 1000, 240_463, 1_039),
    ("long-range", 300, 29_720, 353),
    ("long-range", 1000, 247_996, 1_009),
])
def test_closure_pool_is_pinned_by_pairs_met_and_states(monkeypatch, key, bound, met, states):
    # at 1,000 elements the largest frontiers of each entry are met in one pass, into a pair index of over 100,000 keys
    pools = _recorded_pools(monkeypatch)
    assert compute_nucleus(_load(key)[2], max_elements=bound).reason == "elements"
    assert (len(pools[0].cls), len(pools[0].images)) == (met, states)


def test_nucleus_bounds_must_not_be_negative():
    _, _, gens = _load("basilica")
    for bounds in ({"max_elements": -1}, {"max_depth": -1}):
        with pytest.raises(ValueError, match="must not be negative"):
            compute_nucleus(gens, **bounds)
    assert compute_nucleus(gens, max_elements=0).reason == "elements"


def test_table_kernel_against_oracles_on_generated_automata():
    rng = random.Random(4)
    for _ in range(60):
        doc = _random_document(rng)
        aut, gens = to_automaton(doc)
        words = list(words_upto(doc.alphabet_size, 4))

        def draw():
            return _gw(gens, *((rng.randrange(len(gens)), rng.choice((1, -1))) for _ in range(rng.randint(0, 5))))

        u, w = draw(), draw()
        cw = canonicalize(w)
        factors = [(gens[pos].name, exp) for pos, exp in w.factors]
        for v in words:
            assert cw.act(v) == word_act(doc, factors, v)
        assert canonicalize(u * w) == canonicalize(u) * cw
        assert canonicalize(w.inverse()) == cw.inverse()
        assert cw.inverse() == _product(_inverse_rows((cw.perms, cw.sections)), [0])
        assert cw.inverse().inverse() == cw
        expected = dict.fromkeys(cw.state_element(j) for j in recurrent_nodes(cw.sections))
        assert recurrent_sections(cw) == list(expected)

        # products are numbered once: the quotient of a product already is in breadth-first order,
        # also on a table where every state has a planted duplicate that the sections point at at random
        images, sections = invert(aut).tables
        m, k = images.shape
        shift = m * np.array([rng.randrange(2) for _ in range(2 * m * k)]).reshape(-1, k)
        planted = (np.tile(images, (2, 1)), np.tile(sections, (2, 1)) + shift)
        for length in (1, 2, *range(5, 10)):
            root = [rng.randrange(2 * m) for _ in range(length)]
            quotient = _quotient(_product_tables(planted, root))[2]
            numbered = CanonicalElement(k, quotient[0].tobytes(), quotient[1].tobytes())
            assert numbered == bfs_root_by_tuples(tuple(map(np.ndarray.tolist, quotient)), 0), root

        for original in (aut, invert(aut)):
            small, assignment = minimize(original)
            for st in original.states():
                mini = small.state(assignment[st.index])
                for v in words:
                    assert act_word(mini, v) == act_word(st, v)
                if original.inverse_closed:
                    i = st.index
                    assert small.inverse_index[assignment[i]] == assignment[original.inverse_index[i]]
            again, identity = minimize(small)
            assert again == small
            assert identity == tuple(range(len(small)))


def _random_kernel_document(rng, k, m, bounded):
    # bounded: sections lead to s0 but at one letter at most, so products of long words stay small
    names = [f"s{i}" for i in range(m)]
    states = []
    for i, name in enumerate(names):
        row = [names[0]] * k if bounded else [rng.choice(names) for _ in range(k)]
        if bounded and i:
            row[rng.randrange(k)] = rng.choice(names)
        states.append(StateDef(name, Permutation(tuple(rng.sample(range(k), k))), tuple(row)))
    return RecursionDocument(k, tuple(states), tuple(names))


def test_array_kernel_matches_tuple_oracle_on_generated_automata():
    # word lengths 1 and non-powers of two take the doubling scan through its edge cases
    rng = random.Random(13)
    for k in (1, 2, 3, 5):
        for m in range(1, 7):
            for bounded in (True, False):
                _, gens = to_automaton(_random_kernel_document(rng, k, m, bounded))
                previous = CanonicalElement.identity(k)
                for length in (1, 2, 3, 5, 8, 64, 127, 130) if bounded else (1, 2, 3):
                    factors = tuple((rng.randrange(m), rng.choice((1, -1))) for _ in range(length))
                    gw = GroupWord(tuple(gens), factors)
                    el = canonicalize(gw)
                    assert el == canonicalize_by_tuples(gw), (k, m, factors)
                    assert el.inverse() == inverse_by_tuples(el)
                    assert el * previous == mul_by_tuples(el, previous)
                    assert previous * el == mul_by_tuples(previous, el)
                    w = tuple(rng.randrange(k) for _ in range(rng.randint(0, 3)))
                    below = 0
                    for x in w:
                        below = el.sections[below][x]
                    assert el.section(w) == state_element_by_tuples(el, below)
                    for i in rng.sample(range(el.size), min(3, el.size)):
                        assert el.state_element(i) == state_element_by_tuples(el, i)
                    previous = el


def test_odometer_powers_add_on_long_words():
    # powers by squaring stay small for exponents no product tuple could be as wide as
    _, _, gens = _load("odometer")
    a = canonical_state(gens[0])
    rng = random.Random(5)
    for n in (10**4, 2**40, 10**9 + 7):
        up, down = a**n, a**-n
        for value in (0, rng.randrange(2**48), 2**48 - 1):
            letters = [value >> i & 1 for i in range(48)]
            for power, total in ((up, value + n), (down, value - n)):
                assert power.act(letters) == tuple(total % 2**48 >> i & 1 for i in range(48)), (n, value)


def test_powers_match_repeated_products_on_generated_automata():
    rng = random.Random(17)
    for k in (1, 2, 3):
        for m in range(1, 5):
            for bounded in (True, False):
                _, gens = to_automaton(_random_kernel_document(rng, k, m, bounded))
                factors = tuple((rng.randrange(m), rng.choice((1, -1))) for _ in range(rng.randint(1, 2)))
                el = canonicalize(GroupWord(tuple(gens), factors))
                for n in range(-3, 6):
                    base = el if n > 0 else inverse_by_tuples(el)
                    expected = CanonicalElement.identity(k)
                    for _ in range(abs(n)):
                        expected = mul_by_tuples(expected, base)
                    assert el**n == expected, (k, m, factors, n)


def test_canonicalize_takes_one_path_for_every_short_length():
    # lengths 0 to 3: the empty word, a single factor padded to a block, one full block, and an odd tail
    for key in ("basilica", "grigorchuk", "lamplighter"):
        doc, _, gens = _load(key)
        states = [canonical_state(g) for g in gens]
        letters = [(pos, exp) for pos in range(len(gens)) for exp in (1, -1)]
        for length in range(4):
            for factors in product(letters, repeat=length):
                el = canonicalize(_gw(gens, *factors))
                expected = CanonicalElement.identity(doc.alphabet_size)
                for pos, exp in factors:
                    expected = expected * states[pos] ** exp
                assert el == expected, (key, factors)
                named = [(gens[pos].name, exp) for pos, exp in factors]
                for w in words_upto(doc.alphabet_size, 4):
                    assert el.act(w) == word_act(doc, named, w)
                if length == 1 and factors[0][1] == 1:
                    assert el == canonical_state(gens[factors[0][0]])


def _document_with_identity(rng, k, m):
    # state e acts as the identity; every other state reaches anything
    names = ["e"] + [f"s{i}" for i in range(m)]
    states = [StateDef("e", Permutation(tuple(range(k))), ("e",) * k)]
    for name in names[1:]:
        row = tuple(rng.choice(names) for _ in range(k))
        states.append(StateDef(name, Permutation(tuple(rng.sample(range(k), k))), row))
    return RecursionDocument(k, tuple(states), tuple(names))


def test_pair_blocks_match_tuple_oracle_on_generated_automata():
    # odd and even lengths, identity states inside the word, and generators of an inverse-closed automaton
    rng = random.Random(23)
    for t in range(60):
        k = rng.choice((2, 3))
        bounded = t % 2 == 0
        doc = _random_kernel_document(rng, k, rng.randint(1, 4), True) if bounded else _document_with_identity(
            rng, k, rng.randint(1, 3))
        aut, gens = to_automaton(doc)
        for basis in (tuple(aut.states()), tuple(invert(aut).states())):
            for length in (1, 2, 3, 4, 7, 8, 17) if bounded else (1, 2, 3, 4, 5):
                factors = tuple((rng.randrange(len(basis)), rng.choice((1, -1))) for _ in range(length))
                gw = GroupWord(basis, factors)
                assert canonicalize(gw) == canonicalize_by_tuples(gw), (t, basis[0].automaton.names, factors)


def test_cached_closure_and_pair_table_die_with_their_automaton():
    # invert and the pair table are cached per automaton; neither cache may keep it alive
    rng = random.Random(31)
    n = 5
    aut = MealyAutomaton(
        Alphabet(2),
        tuple(f"weak{i}" for i in range(n)),
        tuple(Permutation(tuple(rng.sample(range(2), 2))) for _ in range(n)),
        tuple(tuple(rng.randrange(n) for _ in range(2)) for _ in range(n)),
    )
    closed = invert(aut)
    assert invert(aut) is closed and invert(closed) is closed
    canonicalize(GroupWord((aut.state(0),), ((0, -1),)))
    assert closed._pair_tables is closed._pair_tables
    refs = [weakref.ref(aut), weakref.ref(closed)]
    del aut, closed
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_cache_hits_do_not_hash_the_automaton(monkeypatch):
    # the closure and the pair table are read off the automaton, never looked up by its hash
    aut = to_automaton(catalog_get("basilica").document())[0]
    gw = GroupWord(tuple(aut.states()), ((0, 1), (1, -1), (0, -1)))
    first = canonicalize(gw)
    closed = invert(aut)

    def unhashable(self):
        raise AssertionError("automaton hashed")

    monkeypatch.setattr(MealyAutomaton, "__hash__", unhashable)
    assert canonicalize(gw) == first
    assert invert(aut) is closed and invert(closed) is closed
    assert inverse_state(aut.state(0)) == closed.state(len(aut))
    assert inverse_state(inverse_state(aut.state(1))) == closed.state(1)


def _random_reduced(rng, gens, length):
    out = []
    while len(out) < length:
        f = (rng.randrange(gens), rng.choice((1, -1)))
        if not out or out[-1] != (f[0], -f[1]):
            out.append(f)
    return tuple(out)


def test_long_words_match_powers_and_folds():
    doc, _, gens = _load("odometer")
    a = canonical_state(gens[0])
    rng = random.Random(29)
    probes = [tuple(rng.randrange(2) for _ in range(14)) for _ in range(16)]
    for n in (1024, 1025):
        el = canonicalize(_gw(gens, *[(0, 1)] * n))
        assert el == a**n
        for v in probes:
            assert el.act(v) == word_act(doc, [("a", 1)] * n, v)
    for key in ("basilica", "grigorchuk"):
        _, _, gens = _load(key)
        states = [canonical_state(g) for g in gens]
        factors = _random_reduced(rng, len(gens), 2000)
        fold = CanonicalElement.identity(2)
        for pos, exp in factors:
            fold = fold * states[pos] ** exp
        assert canonicalize(_gw(gens, *factors)) == fold, key
