"""Level graphs: construction, components, pointed components, oracle images."""

import random
import xml.etree.ElementTree as ET
from itertools import product

import numpy as np
import pytest

import selfsim.schreier
from selfsim import (
    Alphabet,
    LabeledSchreierGraph,
    ResourceCapError,
    act_word,
    build_schreier,
    catalog_get,
    catalog_list,
    connected_components,
    export_graph,
    inverse_state,
    invert,
    parse_edges,
    pointed_component,
    simplicial,
    to_automaton,
    BoundaryPoint,
)
from selfsim.engine import _Pool
from selfsim.schreier import _level_tables

from ._oracles import arrow_rows, component_count, component_sets, level_images
from .test_engine import _random_document


def _gens(key):
    return to_automaton(catalog_get(key).document())[1]


def test_graph_counts_and_labels():
    gens = _gens("basilica")
    for n in range(5):
        g = build_schreier(gens, n)
        assert g.vertex_count == 2**n
        assert g.arrow_count == 2 * 2**n
        assert g.gen_labels == ("a", "b")
        for v in range(g.vertex_count):
            assert Alphabet(2).index_of(Alphabet(2).word_at(v, n)) == v
            assert g.vertex_label(v) == "".join(str(x) for x in Alphabet(2).word_at(v, n))


def test_level_zero_graph():
    gens = _gens("basilica")
    g = build_schreier(gens, 0)
    assert g.vertex_count == 1
    assert arrow_rows(g) == [(0, 0, "a"), (0, 0, "b")]


def test_arrows_match_the_action_exhaustively():
    for key, depth in (("basilica", 5), ("sierpinski", 3)):
        gens = _gens(key)
        k = gens[0].automaton.alphabet.size
        alphabet = Alphabet(k)
        for n in range(1, depth + 1):
            g = build_schreier(gens, n)
            by_label = dict(zip(g.gen_labels, g.images))
            for gen in gens:
                img = by_label[gen.name]
                for v in range(k**n):
                    w = alphabet.word_at(v, n)
                    assert int(img[v]) == alphabet.index_of(act_word(gen, w))


def test_images_are_permutations():
    gens = _gens("aleshin")
    g = build_schreier(gens, 6)
    for img in g.images:
        assert (np.bincount(img, minlength=g.vertex_count) == 1).all()


def test_build_schreier_validation():
    gens = _gens("basilica")
    with pytest.raises(ValueError):
        build_schreier(gens, -1)
    with pytest.raises(ValueError):
        build_schreier([], 2)
    other = _gens("odometer")
    with pytest.raises(ValueError):
        build_schreier([gens[0], other[0]], 2)


def test_vertex_cap_enforced():
    gens = _gens("basilica")
    with pytest.raises(ResourceCapError):
        build_schreier(gens, 11, vertex_cap=1000)
    # explicit cap admits exactly the boundary
    assert build_schreier(gens, 10, vertex_cap=1024).vertex_count == 1024


def test_simplicial_drops_loops_and_multiplicity():
    gens = _gens("basilica")
    g = build_schreier(gens, 3)
    s = simplicial(g)
    assert s.vertex_count == g.vertex_count
    expected = set()
    for src, dst, _ in arrow_rows(g):
        if src != dst:
            expected.add((min(src, dst), max(src, dst)))
    assert set(s.edges) == expected
    assert s.edges == tuple(sorted(s.edges))
    for a, b in s.edges:
        assert a < b


def test_connected_components_match_union_find():
    cases = [("basilica", 6), ("identity", 5), ("aleshin", 5), ("sierpinski", 4)]
    for key, depth in cases:
        gens = _gens(key)
        for n in range(1, depth + 1):
            g = build_schreier(gens, n)
            comps = connected_components(g)
            edges = [(src, dst) for src, dst, _ in arrow_rows(g)]
            assert len(comps) == component_count(g.vertex_count, edges)
            # each component sorted, the components ordered by least vertex
            assert [c.tolist() for c in comps] == sorted(sorted(c) for c in component_sets(g.vertex_count, edges))


def _generated_images(rng, total):
    kind = rng.choice(("random", "identity", "cycle", "path"))
    if kind == "random":
        return [rng.sample(range(total), total)]
    if kind == "identity":
        return [list(range(total))]
    if kind == "cycle":
        return [[(v + 1) % total for v in range(total)]]
    # two involutions whose arrows trace a path, cut into pieces at random
    pair = (list(range(total)), list(range(total)))
    for v in range(total - 1):
        if rng.random() < 0.95:
            pair[v % 2][v], pair[v % 2][v + 1] = v + 1, v
    return list(pair)


def _generated_graph(rng):
    k = rng.choice((2, 3, 4))
    n = rng.randint(1, {2: 10, 3: 6, 4: 5}[k])
    total = k**n
    images = [img for _ in range(rng.randint(1, 2)) for img in _generated_images(rng, total)]
    # the same random renumbering of the vertices for every generator
    sigma = rng.sample(range(total), total)
    renumbered = []
    for img in images:
        out = [0] * total
        for v in range(total):
            out[sigma[v]] = sigma[img[v]]
        renumbered.append(np.array(out))
    return LabeledSchreierGraph(k, n, tuple(f"g{i}" for i in range(len(images))), renumbered)


def test_graph_passes_match_oracles_on_generated_permutations(monkeypatch):
    rng = random.Random(5)
    for _ in range(60):
        g = _generated_graph(rng)
        total = g.vertex_count
        arrows = [(v, int(img[v])) for img in g.images for v in range(total)]
        expected = sorted(sorted(c) for c in component_sets(total, arrows))
        assert [c.tolist() for c in connected_components(g)] == expected
        simple = {(min(a, b), max(a, b)) for a, b in arrows if a != b}
        assert simplicial(g).edges == tuple(sorted(simple))

        fresh = LabeledSchreierGraph(g.alphabet_size, g.level, g.gen_labels, g.images)
        monkeypatch.setattr(selfsim.schreier, "build_schreier", lambda gens, n, cap: fresh)
        root = rng.randrange(total)
        comp, at = pointed_component([], Alphabet(g.alphabet_size).word_at(root, g.level), g.level)
        # only the members are labelled, not the whole level
        assert "labels" not in vars(fresh)
        members = next(c for c in expected if root in c)
        position = {v: i for i, v in enumerate(members)}
        assert comp.labels == tuple(g.labels[v] for v in members)
        assert comp.labels[at] == g.labels[root]
        assert comp.edges == tuple(
            sorted((position[a], position[b]) for a, b in simple if a in position)
        )


def test_exports_match_oracles_on_generated_permutations():
    ns = {"g": "http://graphml.org/xmlns"}
    rng = random.Random(6)
    for _ in range(60):
        g = _generated_graph(rng)
        labels = g.labels
        rows = arrow_rows(g)
        assert parse_edges(export_graph(g, "edges")) == [
            (labels[src], labels[dst], gen) for src, dst, gen in rows
        ]
        s = simplicial(g)
        assert parse_edges(export_graph(s, "edges")) == [
            (labels[a], labels[b], "") for a, b in s.edges
        ]

        for graph, expected in ((g, rows), (s, [(a, b, None) for a, b in s.edges])):
            tree = ET.fromstring(export_graph(graph, "graphml"))
            assert len(tree.findall(".//g:node", ns)) == g.vertex_count
            edges = tree.findall(".//g:edge", ns)
            assert len(edges) == len(expected)
            assert [
                (e.get("source"), e.get("target"), e.findtext("g:data", None, ns))
                for e in edges
            ] == [(f"v{src}", f"v{dst}", gen) for src, dst, gen in expected]

        if g.vertex_count <= 64:
            cells = [line.split(",") for line in export_graph(g, "matrix").splitlines()]
            oracle = [["0"] * g.vertex_count for _ in range(g.vertex_count)]
            for src, dst, gen in rows:
                cell = oracle[src][dst]
                oracle[src][dst] = gen if cell == "0" else f"{cell}+{gen}"
            assert cells == oracle


def test_component_counts_frozen():
    gens = _gens("identity")
    counts = [len(connected_components(build_schreier(gens, n))) for n in range(1, 7)]
    assert counts == [2, 4, 8, 16, 32, 64]
    gens = _gens("basilica")
    counts = [len(connected_components(build_schreier(gens, n))) for n in range(1, 9)]
    assert counts == [1] * 8


def test_pointed_component_of_connected_graph_is_everything():
    gens = _gens("basilica")
    xi = BoundaryPoint.parse("0^w")
    comp, root = pointed_component(gens, xi, 4)
    assert comp.vertex_count == 16
    assert comp.labels[root] == "0000"
    full = simplicial(build_schreier(gens, 4))
    relabel = {lab: i for i, lab in enumerate(comp.labels)}
    mapped = {
        tuple(sorted((relabel[full.labels[a]], relabel[full.labels[b]])))
        for a, b in full.edges
    }
    assert mapped == set(comp.edges)


def test_pointed_component_of_identity_is_a_single_vertex():
    gens = _gens("identity")
    comp, root = pointed_component(gens, BoundaryPoint.parse("1^w"), 3)
    assert comp.vertex_count == 1
    assert root == 0
    assert comp.labels == ("111",)
    assert comp.edges == ()


def test_pointed_component_accepts_plain_words():
    gens = _gens("basilica")
    comp_a, root_a = pointed_component(gens, "010", 3)
    # written right to left: ...000 010, so the level-1 letter is the final 0
    comp_b, root_b = pointed_component(gens, BoundaryPoint.parse("0^w 010"), 3)
    assert comp_a.labels[root_a] == "010"
    assert comp_b.labels[root_b] == "010"
    assert comp_a == comp_b
    with pytest.raises(ValueError):
        pointed_component(gens, "01", 3)


def test_pointed_roots_nest_as_prefixes():
    gens = _gens("basilica")
    xi = BoundaryPoint.parse("10^w 1")
    for n in range(1, 6):
        comp, root = pointed_component(gens, xi, n)
        assert comp.labels[root] == "".join(str(x) for x in xi.prefix(n))


def test_every_state_level_images_match_oracle():
    for key in ("basilica", "grigorchuk", "odometer", "identity"):
        doc = catalog_get(key).document()
        aut, _ = to_automaton(doc)
        for n in (1, 2, 3):
            graph = build_schreier(aut.states(), n)
            assert [img.tolist() for img in graph.images] == level_images(doc, n), (key, n)


def test_level_tables_read_the_pool_table():
    """Levels read from the pool's table, minimized and renumbered, equal the automaton's, in the g, g^-1 order."""
    rng = random.Random(16)
    automata = [_gens(entry.key) for entry in catalog_list()]
    automata += [to_automaton(_random_document(rng))[1] for _ in range(30)]
    for gens in automata:
        pool = _Pool(gens)
        aut = invert(gens[0].automaton)
        both = [s for g in gens for s in (aut.state(g.index), inverse_state(g))]
        for n in range(7):
            got = _level_tables((pool.images, pool.sections), pool.ids[1:], n)
            assert [img.tolist() for img in got] == [img.tolist() for img in build_schreier(both, n).images], n
