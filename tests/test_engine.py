"""Canonical elements, the word problem, nucleus computation, recurrence."""

import random
from itertools import product

import numpy as np
import pytest

from selfsim import (
    CanonicalElement,
    GroupWord,
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
    is_recurrent,
    minimize,
    recurrent_sections,
    self_similarity_graph,
    to_automaton,
)
from selfsim.core import _inverse_rows, _quotient, _walk, refine_partition
from selfsim.engine import _canonical, _Pool

from ._oracles import (
    canonicalize_by_tuples,
    inverse_by_tuples,
    mul_by_tuples,
    nucleus_by_products,
    recurrence_by_products,
    recurrent_nodes,
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


def test_group_word_reduce_cancels_adjacent_inverses():
    _, _, gens = _load("basilica")
    gw = _gw(gens, (0, 1), (1, 1), (1, -1), (0, 1))
    assert gw.reduce().factors == ((0, 1), (0, 1))
    assert _gw(gens, (0, 1), (0, -1)).reduce().factors == ()


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
    from selfsim import parse

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
    # the witness is the member that passes the bound, however many join with it
    for key, bound in (("lamplighter", 50), ("aleshin", 40), ("long-range", 30)):
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


def test_nucleus_gen_elements_names():
    _, _, gens = _load("basilica")
    named = compute_nucleus(gens).gen_elements
    assert [n for n, _ in named] == ["a", "b"]
    assert [el for _, el in named] == [canonical_state(g) for g in gens]


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
    batches = []
    explore = _Pool.explore

    def counted(self, roots):
        batches.append(len(roots))
        return explore(self, roots)

    monkeypatch.setattr(_Pool, "explore", counted)
    rng = random.Random(20)
    outcomes = set()
    most = 0
    for t in range(60):
        doc = (_random_document if t % 2 else _random_bounded_document)(rng)
        _, gens = to_automaton(doc)
        bound, depth = rng.choice((3, 12, 48, 96)), rng.choice((1, 2, 3, 8))
        batches.clear()
        res = compute_nucleus(gens, bound, depth)
        if res.reason == "elements":
            # a closure that passes its bound never reaches the certificate: one explore per batch
            most = max(most, len(batches))
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
        assert cw.inverse() == _canonical(_inverse_rows((cw.perms, cw.sections)), 0)
        assert cw.inverse().inverse() == cw
        expected = dict.fromkeys(cw.state_element(j) for j in recurrent_nodes(cw.sections))
        assert recurrent_sections(cw) == list(expected)

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
