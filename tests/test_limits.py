"""Boundary points, asymptotic equivalence, limit space approximations."""

import random
import time
from itertools import product

import pytest

import selfsim.engine
from selfsim import (
    BoundaryPoint,
    CanonicalElement,
    EquivalenceWitness,
    NucleusResult,
    asymptotic_equivalent,
    catalog_get,
    compute_nucleus,
    equivalence_class,
    export_graph,
    gh_sequence,
    parse,
    parse_edges,
    pointed_component,
    self_similarity_graph,
    simplicial,
    build_schreier,
    canonical_state,
    catalog_list,
    to_automaton,
    ResourceCapError,
)

from ._oracles import class_by_action, component_count, equivalent_points
from .test_engine import _random_document


def _nucleus(key):
    gens = to_automaton(catalog_get(key).document())[1]
    return gens, compute_nucleus(gens)


def _moore_tables(nucleus):
    elements = list(nucleus.elements)
    index = {el: i for i, el in enumerate(elements)}
    k = elements[0].k
    out = [[el.perms[0][x] for x in range(k)] for el in elements]
    sec = [[index[el.section((x,))] for x in range(k)] for el in elements]
    return out, sec, len(elements)


def _sample_points():
    pts = {}
    for period in ((0,), (1,), (0, 1), (1, 0)):
        for m in range(3):
            for pre in product(range(2), repeat=m):
                p = BoundaryPoint(pre, period)
                pts[p] = None
    return list(pts)


def test_point_canonical_primitive_period():
    assert BoundaryPoint((), (0, 1, 0, 1)).period == (0, 1)
    assert BoundaryPoint((), (1, 1, 1)).period == (1,)


def test_point_canonical_absorbs_period_tail():
    p = BoundaryPoint((0, 1, 0), (0,))
    assert p.preperiod == (0, 1)
    assert p.period == (0,)
    # absorbing rotates the period: ...101010 1 is just ...010101
    q = BoundaryPoint((1,), (0, 1))
    assert q.preperiod == ()
    assert q.period == (1, 0)


def test_point_parse_and_str_round_trip():
    for text in (
        "0^w", "1^w", "10^w", "0^w 10", "01^w 1101",
        "10.^w", "10.^w 3", "1.10^w 10.", "3^w 2.10", "15.^w 0.13.2", "2.15.7^w 11.",
    ):
        p = BoundaryPoint.parse(text)
        assert str(p) == text
        assert BoundaryPoint.parse(str(p)) == p


def test_point_parse_written_order():
    # written ...101010 11: rightmost letter is level 1
    p = BoundaryPoint.parse("10^w 11")
    assert p.letter(1) == 1
    assert p.letter(2) == 1
    assert p.letter(3) == 0
    assert p.letter(4) == 1
    assert p.prefix(6) == (1, 1, 0, 1, 0, 1)


def test_point_parse_rejects_garbage():
    for text in ("", "^w", "10", "10^w^w", "a^w", "10^w 1 1"):
        with pytest.raises(ValueError):
            BoundaryPoint.parse(text)


def test_point_rejects_empty_period():
    with pytest.raises(ValueError):
        BoundaryPoint((0,), ())


def test_point_letter_validation():
    p = BoundaryPoint.parse("10^w")
    with pytest.raises(ValueError):
        p.letter(0)
    assert p.prefix(0) == ()


def test_odometer_equivalences():
    _, nuc = _nucleus("odometer")
    zero = BoundaryPoint.parse("0^w")
    one = BoundaryPoint.parse("1^w")
    eq, wit = asymptotic_equivalent(nuc, zero, one)
    assert eq
    assert wit is not None
    assert wit.validate(zero, one)
    # the two binary expansions of one half
    half_a = BoundaryPoint.parse("0^w 1")
    half_b = BoundaryPoint.parse("1^w 0")
    eq, wit = asymptotic_equivalent(nuc, half_a, half_b)
    assert eq
    assert wit.validate(half_a, half_b)
    # zero and one half are distinct on the circle
    eq, wit = asymptotic_equivalent(nuc, zero, half_a)
    assert not eq
    assert wit is None


def test_odometer_classes_are_dyadic_expansions():
    _, nuc = _nucleus("odometer")
    zero = BoundaryPoint.parse("0^w")
    assert equivalence_class(nuc, zero) == {zero, BoundaryPoint.parse("1^w")}
    half = BoundaryPoint.parse("0^w 1")
    assert equivalence_class(nuc, half) == {half, BoundaryPoint.parse("1^w 0")}
    third = BoundaryPoint.parse("01^w")
    assert equivalence_class(nuc, third) == {third}


def test_moore_tables_built_once_per_nucleus(monkeypatch):
    _, nuc = _nucleus("basilica")
    _, other = _nucleus("odometer")
    calls = []
    original = selfsim.engine._quotient

    def counted(tables):
        calls.append(tables)
        return original(tables)

    # the Moore table's derivation is the only quotient a query makes
    monkeypatch.setattr(selfsim.engine, "_quotient", counted)
    pts = _sample_points()
    verdicts = [asymptotic_equivalent(nuc, p, q)[0] for p in pts for q in pts]
    classes = [equivalence_class(nuc, p) for p in pts]
    moore, _ = nuc.moore_automaton()
    assert [t.tolist() for t in moore.tables] == [t.tolist() for t in nuc.moore_tables]
    assert len(calls) == 1
    assert any(verdicts) and not all(verdicts)
    assert all(p in cls for p, cls in zip(pts, classes))
    # another nucleus derives its own table
    zero, one = BoundaryPoint.parse("0^w"), BoundaryPoint.parse("1^w")
    assert asymptotic_equivalent(other, zero, one)[0]
    assert len(calls) == 2


def test_elements_not_closed_under_sections_name_the_missing_section():
    gens, _ = _nucleus("basilica")
    a = canonical_state(gens[0])
    zero, one = BoundaryPoint.parse("0^w"), BoundaryPoint.parse("1^w")
    # a|0 is not the identity, a|1 is
    for elements, missing in (((a,), "element 0's section at letter 0"), ((CanonicalElement.identity(2), a), "element 1's section at letter 0")):
        for query in (
            lambda nuc: nuc.moore_tables,
            lambda nuc: nuc.moore_automaton(),
            lambda nuc: asymptotic_equivalent(nuc, zero, one),
            lambda nuc: equivalence_class(nuc, zero),
        ):
            with pytest.raises(ValueError, match=f"not closed under sections: {missing} is not among them"):
                query(NucleusResult("contracting", elements, 1, 1, 1))


def test_class_needs_a_path_for_the_point_itself():
    # a hand-built "nucleus" of one state that swaps every letter: the only lasso reading 0^w writes 1^w
    a = canonical_state(to_automaton(parse("alphabet 2\na = (0 1)(a, a)\ngens a\n"))[1][0])
    with pytest.raises(RuntimeError, match="no infinite path for the point itself"):
        equivalence_class(NucleusResult("contracting", (a,), 1, 1, 1), BoundaryPoint.parse("0^w"))


def test_equivalence_matches_path_oracle():
    for key in ("odometer", "basilica", "grigorchuk"):
        _, nuc = _nucleus(key)
        out, sec, nstates = _moore_tables(nuc)
        pts = _sample_points()
        for p in pts:
            for q in pts:
                expected = equivalent_points(out, sec, p, q, nstates)
                got, wit = asymptotic_equivalent(nuc, p, q)
                assert got == expected, (key, str(p), str(q))
                if got:
                    assert wit.validate(p, q), (key, str(p), str(q))


def test_equivalence_is_an_equivalence_relation():
    _, nuc = _nucleus("basilica")
    pts = _sample_points()
    rel = {}
    for p in pts:
        for q in pts:
            rel[(p, q)] = asymptotic_equivalent(nuc, p, q)[0]
    for p in pts:
        assert rel[(p, p)]
        for q in pts:
            assert rel[(p, q)] == rel[(q, p)]
            for r in pts:
                if rel[(p, q)] and rel[(q, r)]:
                    assert rel[(p, r)]


def test_classes_agree_with_pairwise_decisions():
    for key in ("odometer", "basilica"):
        _, nuc = _nucleus(key)
        pts = _sample_points()
        for p in pts:
            cls = equivalence_class(nuc, p)
            assert p in cls
            assert len(cls) <= len(nuc.elements)
            for q in pts:
                assert (q in cls) == asymptotic_equivalent(nuc, p, q)[0]


def _state_set_nucleus(gens):
    """The identity and every state of the automaton, as a hand-built section-closed set."""
    k = gens[0].automaton.alphabet.size
    states = [canonical_state(st) for st in gens[0].automaton.states()]
    elements = tuple(dict.fromkeys([CanonicalElement.identity(k), *states]))
    return NucleusResult("contracting", elements, 1, len(elements), 1)


def _random_point(rng, k):
    pre = tuple(rng.randrange(k) for _ in range(rng.randint(0, 2)))
    return BoundaryPoint(pre, tuple(rng.randrange(k) for _ in range(rng.randint(1, 3))))


def test_equivalence_matches_oracles_on_generated_automata():
    rng = random.Random(6)
    for _ in range(60):
        doc = _random_document(rng)
        nuc = _state_set_nucleus(to_automaton(doc)[1])
        out, sec, nstates = _moore_tables(nuc)
        pts = [_random_point(rng, doc.alphabet_size) for _ in range(6)]
        for p in pts:
            cls = equivalence_class(nuc, p)
            assert p in cls
            assert len(cls) <= nstates
            for q in pts:
                got, wit = asymptotic_equivalent(nuc, p, q)
                assert got == equivalent_points(out, sec, p, q, nstates), (str(p), str(q))
                assert (q in cls) == got
                if got:
                    assert wit.validate(p, q)
            # members outside the sample, longer periods included, are each equivalent to p
            for q in cls:
                assert equivalent_points(out, sec, p, q, nstates), (str(p), str(q))
                got, wit = asymptotic_equivalent(nuc, p, q)
                assert got and wit.validate(p, q), (str(p), str(q))


def test_classes_match_the_nucleus_action_on_contracting_entries():
    # equivalence reads a point with its level-1 letter deepest, pointed with it at level 1: read level 1
    # first, keeping the first n letters, the action misses the class of all 40 of basilica's points
    keys = [e.key for e in catalog_list() if any(x[0] == "contracting" for x in e.expected)]
    assert len(keys) == 12
    for key in keys:
        _, nuc = _nucleus(key)
        k = nuc.elements[0].k
        n = 8 if k == 2 else 5
        words = [w for length in range(4) for w in product(range(k), repeat=length)]
        for p in {BoundaryPoint(pre, per) for pre in words if len(pre) <= 2 for per in words if per}:
            got = {tuple(reversed(q.prefix(n))) for q in equivalence_class(nuc, p)}
            assert got == class_by_action(nuc.elements, p, n), (key, str(p))


def test_witness_fails_on_wrong_points():
    _, nuc = _nucleus("odometer")
    zero = BoundaryPoint.parse("0^w")
    one = BoundaryPoint.parse("1^w")
    _, wit = asymptotic_equivalent(nuc, zero, one)
    assert wit.validate(zero, one)
    assert not wit.validate(one, zero)
    assert not wit.validate(zero, BoundaryPoint.parse("0^w 1"))


def test_witness_without_a_cycle_fails():
    _, nuc = _nucleus("basilica")
    zero = BoundaryPoint.parse("0^w")
    one = BoundaryPoint.parse("1^w")
    assert not asymptotic_equivalent(nuc, zero, one)[0]
    # no path goes up forever without a cycle, so no witness is built without one,
    # not even from a tail that reads the points
    e = CanonicalElement.identity(2)
    for tail in ((), (e, e)):
        with pytest.raises(ValueError, match="nonempty cycle"):
            EquivalenceWitness(tail, ())


def test_point_alphabet_checked_against_nucleus():
    _, nuc = _nucleus("basilica")
    ternary = BoundaryPoint.parse("2^w")
    with pytest.raises(ValueError):
        asymptotic_equivalent(nuc, ternary, ternary)
    with pytest.raises(ValueError):
        equivalence_class(nuc, ternary)


def test_point_with_negative_letters_rejected():
    # a negative letter must not index the nucleus tables from their end, as letter k - 1
    _, nuc = _nucleus("basilica")
    negative = BoundaryPoint((), (-1,))
    with pytest.raises(ValueError, match="outside a 2-letter alphabet"):
        asymptotic_equivalent(nuc, negative, BoundaryPoint.parse("1^w"))
    with pytest.raises(ValueError, match="outside a 2-letter alphabet"):
        equivalence_class(nuc, negative)


def test_self_similarity_graph_structure():
    gens = to_automaton(catalog_get("basilica").document())[1]
    g = self_similarity_graph(gens, 3)
    assert g.vertex_count == 1 + 2 + 4 + 8
    assert g.levels is not None
    by_label = {lab: i for i, lab in enumerate(g.labels)}
    # levels recorded as word lengths, labels enumerate words in index order
    for lab, i in by_label.items():
        assert g.levels[i] == len(lab)
    cross = [(a, b) for a, b in g.edges if g.levels[a] != g.levels[b]]
    inner = [(a, b) for a, b in g.edges if g.levels[a] == g.levels[b]]
    # vertical edges: drop the first letter; the root hangs below both letters
    assert set(cross) == {
        (by_label[lab[1:]], by_label[lab]) for lab in by_label if lab
    }
    # horizontal edges: exactly the simplicial level graphs
    for n in range(1, 4):
        level_edges = {
            (g.labels[a], g.labels[b]) for a, b in inner if g.levels[a] == n
        }
        s = simplicial(build_schreier(gens, n))
        expected = {(s.labels[a], s.labels[b]) for a, b in s.edges}
        assert level_edges == expected


def test_self_similarity_graph_validation():
    gens = to_automaton(catalog_get("basilica").document())[1]
    with pytest.raises(ValueError):
        self_similarity_graph(gens, 0)
    with pytest.raises(ValueError, match="need at least one generator"):
        self_similarity_graph([], 3)
    with pytest.raises(ResourceCapError):
        self_similarity_graph(gens, 12, vertex_cap=1000)
    with pytest.raises(ValueError, match="vertex_cap must not be negative"):
        self_similarity_graph(gens, 1, vertex_cap=-1)
    # the count of all levels is never summed, nor formed past what the cap could reach
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=r"^over 2\^1000000 vertices exceed the cap of 16777216;"):
        self_similarity_graph(gens, 10**6)
    assert time.perf_counter() - start < 1


def test_gh_sequence_sizes_and_roots():
    gens = to_automaton(catalog_get("basilica").document())[1]
    xi = BoundaryPoint.parse("1^w")
    seq = gh_sequence(gens, xi, 6)
    assert [graph.vertex_count for graph, _ in seq] == [2, 4, 8, 16, 32, 64]
    for n, (graph, root) in enumerate(seq, start=1):
        assert graph.labels[root] == "1" * n
        edges = list(graph.edges)
        assert component_count(graph.vertex_count, edges) == 1
        assert (graph, root) == pointed_component(gens, xi, n)


def test_gh_sequence_validation():
    gens = to_automaton(catalog_get("basilica").document())[1]
    with pytest.raises(ValueError):
        gh_sequence(gens, BoundaryPoint.parse("1^w"), 0)


def test_gh_sequence_export_texts():
    gens = to_automaton(catalog_get("basilica").document())[1]
    xi = BoundaryPoint.parse("0^w")
    texts = [export_graph(g, "edges", root=r) for g, r in gh_sequence(gens, xi, 3)]
    assert len(texts) == 3
    for n, text in enumerate(texts, start=1):
        assert f"# root\t{'0' * n}" in text
        graph, _ = pointed_component(gens, xi, n)
        assert len(parse_edges(text)) == len(graph.edges)
