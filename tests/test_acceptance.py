"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line when its criterion holds; pytest -v
shows one pass/fail line per criterion either way.
"""

import time
from itertools import product

import numpy as np

from selfsim import (
    BoundaryPoint,
    GroupWord,
    asymptotic_equivalent,
    build_schreier,
    canonical_state,
    canonicalize,
    catalog_get,
    catalog_list,
    compute_nucleus,
    connected_components,
    eigenvalue_multiplicity,
    equivalence_class,
    export_graph,
    parse,
    pointed_component,
    self_similarity_graph,
    serialize,
    simplicial,
    spectrum,
    to_automaton,
)

from ._oracles import arrow_rows, component_count, level_images

CONTRACTING_KEYS = (
    "identity",
    "odometer",
    "basilica",
    "z2",
    "aut2853",
    "virtually-z3",
    "half-basilica",
    "aut878",
    "sierpinski",
    "sierpinski-alt",
    "grigorchuk",
    "hanoi",
)


def _gens(key):
    return to_automaton(catalog_get(key).document())[1]


def test_criterion_01_structural_counts():
    for entry in catalog_list():
        aut, gens = entry.automaton()
        k = aut.alphabet.size
        top = 12 if k == 2 else 7
        for n in range(1, top + 1):
            g = build_schreier(gens, n)
            assert g.vertex_count == k**n
            assert g.arrow_count == len(gens) * k**n
            for img in g.images:
                assert (np.bincount(img, minlength=g.vertex_count) == 1).all()
    gens = _gens("basilica")
    start = time.monotonic()
    build_schreier(gens, 12)
    assert time.monotonic() - start < 1.0
    start = time.monotonic()
    build_schreier(gens, 16)
    assert time.monotonic() - start < 10.0
    print("PASS criterion 1: structural counts and build times")


def test_criterion_02_special_element_fixes_00():
    _, gens = catalog_get("aut882").automaton()
    basis = tuple(gens)  # a, b, c in document order
    g = canonicalize(GroupWord(basis, ((2, 1), (0, -1), (2, 1), (1, -1))))
    gg = g * g
    assert gg.act((0, 0)) == (0, 0)
    assert gg.section((0, 0)) == g
    assert not g.is_identity
    print("PASS criterion 2: squared special element fixes 00 with section equal to itself")


def test_criterion_03_nucleus_certificates_re_verified():
    for key in CONTRACTING_KEYS:
        gens = _gens(key)
        res = compute_nucleus(gens)
        assert res.is_contracting, key
        nuc = set(res.elements)
        k = gens[0].automaton.alphabet.size
        pool = set(nuc)
        for g in gens:
            el = canonical_state(g)
            pool.add(el)
            pool.add(el.inverse())
        words = list(product(range(k), repeat=res.depth))
        for left in pool:
            for right in pool:
                prod = left * right
                member = {}
                for w in words:
                    s = 0
                    for x in w:
                        s = prod.sections[s][x]
                    if s not in member:
                        member[s] = prod.state_element(s) in nuc
                    assert member[s], (key, w)
    print(f"PASS criterion 3: (S u N)^2 sections at depth k inside N for {len(CONTRACTING_KEYS)} entries")


def test_criterion_04_word_problem_and_aleshin_freeness():
    for entry in catalog_list():
        _, gens = entry.automaton()
        for i in range(len(gens)):
            gw = GroupWord(tuple(gens), ((i, 1), (i, -1)))
            assert canonicalize(gw).is_identity, (entry.key, gens[i].name)

    start = time.monotonic()
    gens = _gens("aleshin")
    depth = 10
    size = 2**depth
    perms = {}
    for i, g in enumerate(gens):
        arr = np.asarray(build_schreier([g], depth).images[0], dtype=np.int64)
        inv = np.empty_like(arr)
        inv[arr] = np.arange(size)
        perms[(i, 1)] = arr
        perms[(i, -1)] = inv
    letters = list(perms)
    identity = np.arange(size)
    stack = [((), identity)]
    counted = 0
    suspects = []
    while stack:
        w, img = stack.pop()
        if w:
            counted += 1
            if (img == identity).all():
                suspects.append(w)
        if len(w) < 6:
            for let in letters:
                if w and let[0] == w[-1][0] and let[1] == -w[-1][1]:
                    continue
                stack.append((w + (let,), img[perms[let]]))
    assert counted == 23436  # freely reduced words of length 1..6 over three letters
    # any word trivial at level 10 must still prove itself trivial exactly
    basis = tuple(gens)
    trivial = [w for w in suspects if canonicalize(GroupWord(basis, w)).is_identity]
    assert trivial == []
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion 4: trivial products and free sweep ({counted} words, {elapsed:.1f}s)")


def test_criterion_05_asymptotic_equivalence_relation():
    gens = _gens("odometer")
    nuc = compute_nucleus(gens)
    ones = BoundaryPoint.parse("1^w")
    zeros = BoundaryPoint.parse("0^w")
    eq, wit = asymptotic_equivalent(nuc, ones, zeros)
    assert eq
    assert wit is not None
    assert wit.validate(ones, zeros)

    pts = {}
    for plen in (1, 2, 3):
        for period in product(range(2), repeat=plen):
            for m in (0, 1, 2):
                for pre in product(range(2), repeat=m):
                    pts[BoundaryPoint(pre, period)] = None
    pts = list(pts)
    rel = {}
    for p in pts:
        for q in pts:
            rel[(p, q)] = asymptotic_equivalent(nuc, p, q)[0]
    for p in pts:
        assert rel[(p, p)]
        for q in pts:
            assert rel[(p, q)] == rel[(q, p)]
            if rel[(p, q)]:
                for r in pts:
                    if rel[(q, r)]:
                        assert rel[(p, r)]
    for p in pts:
        assert len(equivalence_class(nuc, p)) <= len(nuc.elements)
    print(f"PASS criterion 5: equivalence relation on {len(pts)} points with witness validation")


def test_criterion_06_dual_moore_coincidence():
    for key in ("basilica", "identity"):
        doc = catalog_get(key).document()
        aut, _ = to_automaton(doc)
        for n in (1, 2, 3):
            graph = build_schreier(aut.states(), n)
            assert [img.tolist() for img in graph.images] == level_images(doc, n), (key, n)
    print("PASS criterion 6: every state's level images at levels 1 to 3 equal the recursion's")


def test_criterion_07_connectivity():
    for key in ("basilica", "aleshin", "z2", "aut878", "aut882", "virtually-z3"):
        gens = _gens(key)
        for n in range(1, 13):
            assert len(connected_components(build_schreier(gens, n))) == 1, (key, n)

    gens = _gens("long-range")
    counts = [len(connected_components(build_schreier(gens, n))) for n in range(1, 13)]
    assert counts == [1] * 12
    gens = _gens("identity")
    counts = [len(connected_components(build_schreier(gens, n))) for n in range(1, 9)]
    assert counts == [2**n for n in range(1, 9)]
    # cross-check the component counter against plain union-find
    for key in ("long-range", "identity", "sierpinski"):
        gens = _gens(key)
        for n in range(1, 7):
            g = build_schreier(gens, n)
            edges = [(src, dst) for src, dst, _ in arrow_rows(g)]
            assert len(connected_components(g)) == component_count(g.vertex_count, edges)
    print("PASS criterion 7: connectivity and frozen component regressions")


def test_criterion_08_self_similarity_slices():
    gens = _gens("basilica")
    g = self_similarity_graph(gens, 5)
    by_label = {lab: i for i, lab in enumerate(g.labels)}
    for n in range(1, 6):
        slice_edges = {
            (g.labels[a], g.labels[b])
            for a, b in g.edges
            if g.levels[a] == n and g.levels[b] == n
        }
        s = simplicial(build_schreier(gens, n))
        expected = {(s.labels[a], s.labels[b]) for a, b in s.edges}
        assert slice_edges == expected, n
    print("PASS criterion 8: horizontal slices equal simplicial level graphs up to depth 5")


def test_criterion_09_spectrum_sanity():
    for key in ("basilica", "identity", "long-range"):
        gens = _gens(key)
        for n in range(1, 7):
            g = build_schreier(gens, n)
            vals = spectrum(g)
            assert abs(vals[0] - 1.0) <= 1e-9, (key, n)
            assert eigenvalue_multiplicity(vals, 1.0) == len(connected_components(g))
            again = spectrum(build_schreier(gens, n))
            assert np.abs(vals - again).max() <= 1e-12
    print("PASS criterion 9: top eigenvalue, multiplicity, and determinism at levels 1..6")


def test_criterion_10_round_trips_and_determinism():
    for entry in catalog_list():
        doc = entry.document()
        text = serialize(doc)
        assert parse(text) == doc
        assert serialize(parse(text)) == text

    def renders():
        out = []
        gens = _gens("basilica")
        g = build_schreier(gens, 4)
        for fmt in ("edges", "dot", "graphml", "matrix"):
            out.append(export_graph(g, fmt))
        s = simplicial(g)
        for fmt in ("edges", "dot", "graphml"):
            out.append(export_graph(s, fmt))
        comp, root = pointed_component(gens, BoundaryPoint.parse("0^w"), 4)
        out.append(export_graph(comp, "edges", root=root))
        tern = build_schreier(_gens("sierpinski"), 3)
        for fmt in ("edges", "dot", "graphml", "matrix"):
            out.append(export_graph(tern, fmt))
        return out

    first = renders()
    second = renders()
    assert first == second
    print("PASS criterion 10: catalog round trips and byte-identical exports")
