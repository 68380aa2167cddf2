"""Export formats: exact texts, round trips, determinism, caps."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest

from selfsim import (
    FORMATS,
    Alphabet,
    MealyAutomaton,
    Permutation,
    ResourceCapError,
    build_schreier,
    catalog_get,
    connected_components,
    export_graph,
    parse,
    parse_edges,
    pointed_component,
    self_similarity_graph,
    simplicial,
    to_automaton,
    word,
    BoundaryPoint,
)
from selfsim.exports import _escape

from ._oracles import arrow_rows


def _graph(key, n):
    gens = to_automaton(catalog_get(key).document())[1]
    return build_schreier(gens, n)


def test_edges_level_one_basilica_exact():
    text = export_graph(_graph("basilica", 1), "edges")
    assert text == "0\t1\ta\n1\t0\ta\n0\t0\tb\n1\t1\tb\n"


def test_matrix_level_one_basilica_exact():
    text = export_graph(_graph("basilica", 1), "matrix")
    assert text == "b,a\na,b\n"


def test_edges_round_trip():
    g = _graph("basilica", 3)
    rows = parse_edges(export_graph(g, "edges"))
    assert rows == [
        (g.vertex_label(src), g.vertex_label(dst), lab) for src, dst, lab in arrow_rows(g)
    ]


def test_edges_root_comment():
    gens = to_automaton(catalog_get("basilica").document())[1]
    comp, root = pointed_component(gens, BoundaryPoint.parse("0^w"), 2)
    text = export_graph(comp, "edges", root=root)
    assert text.startswith("# root\t00\n")
    assert parse_edges(text)  # comment line is skipped


@pytest.mark.parametrize("fmt", FORMATS)
def test_root_outside_the_vertices_is_rejected(fmt):
    # -1 once marked the last vertex in edges and none in dot or graphml; past the end, edges raised IndexError
    g = _graph("basilica", 2)
    for graph in (g, simplicial(g)):
        for root in (-1, graph.vertex_count, 99):
            with pytest.raises(ValueError, match="root"):
                export_graph(graph, fmt, root=root)
    last = export_graph(g, fmt, root=g.vertex_count - 1)
    assert fmt != "edges" or last.startswith("# root\t11\n")


def test_parse_edges_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_edges("a\tb\n")


def test_simplicial_edges_have_empty_label_column():
    gens = to_automaton(catalog_get("basilica").document())[1]
    s = simplicial(build_schreier(gens, 2))
    rows = parse_edges(export_graph(s, "edges"))
    assert rows
    for _, _, label in rows:
        assert label == ""


def test_dot_directed_and_undirected():
    g = _graph("basilica", 2)
    directed = export_graph(g, "dot")
    assert directed.startswith("digraph G {\n")
    assert '  v0 -> v2 [label="a"];' in directed
    assert directed.endswith("}\n")
    s = simplicial(g)
    undirected = export_graph(s, "dot")
    assert undirected.startswith("graph G {\n")
    assert " -- " in undirected
    assert "->" not in undirected


def test_dot_marks_root():
    gens = to_automaton(catalog_get("basilica").document())[1]
    comp, root = pointed_component(gens, BoundaryPoint.parse("1^w"), 2)
    text = export_graph(comp, "dot", root=root)
    assert f'v{root} [label="11", shape=doublecircle];' in text


def test_dot_labels_escape_backslash_and_quote():
    aut = MealyAutomaton(Alphabet(2), ('a"b', "c\\d"), (Permutation((1, 0)),) * 2, ((0, 1), (1, 0)))
    text = export_graph(build_schreier(aut.states(), 1), "dot")
    assert '  v0 -> v1 [label="a\\"b"];' in text
    assert '  v0 -> v1 [label="c\\\\d"];' in text


def test_graphml_is_well_formed_and_complete():
    g = _graph("sierpinski", 2)
    text = export_graph(g, "graphml")
    ns = {"g": "http://graphml.org/xmlns"}
    tree = ET.fromstring(text)
    nodes = tree.findall(".//g:node", ns)
    edges = tree.findall(".//g:edge", ns)
    assert len(nodes) == g.vertex_count
    assert len(edges) == g.arrow_count
    assert tree.find(".//g:graph", ns).get("edgedefault") == "directed"
    labels = [n.find("g:data", ns).text or "" for n in nodes]
    assert labels == [g.vertex_label(i) for i in range(g.vertex_count)]


def test_graphml_root_flag():
    gens = to_automaton(catalog_get("basilica").document())[1]
    comp, root = pointed_component(gens, BoundaryPoint.parse("0^w"), 2)
    text = export_graph(comp, "graphml", root=root)
    ns = {"g": "http://graphml.org/xmlns"}
    tree = ET.fromstring(text)
    flagged = [
        node.get("id")
        for node in tree.findall(".//g:node", ns)
        if any(d.get("key") == "root" for d in node.findall("g:data", ns))
    ]
    assert flagged == [f"v{root}"]


def test_matrix_entries_join_parallel_arrows():
    text = export_graph(_graph("lamplighter", 1), "matrix")
    # both generators fix both letters or swap both, depending on the recursion
    rows = [line.split(",") for line in text.strip().split("\n")]
    assert len(rows) == 2
    joined = sorted(cell for row in rows for cell in row)
    total = sum(len(cell.split("+")) for cell in joined if cell != "0")
    assert total == 4  # two generators, two vertices


def test_matrix_export_agrees_with_images():
    g = _graph("basilica", 3)
    cells = [line.split(",") for line in export_graph(g, "matrix").splitlines()]
    assert len(cells) == 8 and all(len(row) == 8 for row in cells)
    for i in range(8):
        for j in range(8):
            gens = [lab for lab, img in zip(g.gen_labels, g.images) if int(img[i]) == j]
            assert cells[i][j] == ("+".join(gens) if gens else "0")
    total = sum(len(cell.split("+")) for row in cells for cell in row if cell != "0")
    assert total == g.arrow_count


def test_matrix_rejects_simplicial_graphs():
    s = simplicial(_graph("basilica", 2))
    with pytest.raises(ValueError):
        export_graph(s, "matrix")


def test_matrix_cap():
    g = _graph("basilica", 13)
    with pytest.raises(ResourceCapError):
        export_graph(g, "matrix")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        export_graph(_graph("basilica", 1), "yaml")


def test_exports_deterministic_across_rebuilds():
    for fmt in FORMATS:
        first = export_graph(_graph("basilica", 4), fmt)
        second = export_graph(_graph("basilica", 4), fmt)
        assert first == second
        assert first.endswith("\n")


def test_all_formats_cover_every_vertex():
    g = _graph("grigorchuk", 2)
    for fmt in ("dot", "graphml"):
        text = export_graph(g, fmt)
        for i in range(g.vertex_count):
            assert f"v{i}" in text


def test_labels_stay_distinct_over_more_than_ten_letters():
    # word (10) on level 1 and word (1, 0) on level 2 must not both read "10"
    cycle = " ".join(str(x) for x in range(11))
    doc = parse(f"alphabet 11\na = ({cycle})({', '.join(['a'] * 11)})\ngens a\n")
    gens = to_automaton(doc)[1]
    g = self_similarity_graph(gens, 2)
    assert len(set(g.labels)) == g.vertex_count == 1 + 11 + 121
    assert (g.labels[1 + 10], g.labels[1 + 11 + 11]) == ("10.", "1.0")
    rows = parse_edges(export_graph(g, "edges"))
    assert len(set(rows)) == len(rows) == len(g.edges)
    assert len({end for row in rows for end in row[:2]}) == g.vertex_count
    level = build_schreier(gens, 2)
    assert level.labels == g.labels[1 + 11 :]
    # pointed labels are joined from half-length tables and must read the same
    for root in ((10, 1), (1, 0, 10), (3, 10, 0, 7)):
        level = build_schreier(gens, len(root))
        comp, at = pointed_component(gens, root, len(root))
        members = next(c for c in connected_components(level) if Alphabet(11).index_of(root) in c)
        assert comp.labels == tuple(level.labels[v] for v in members.tolist())
        assert comp.labels[at] == ".".join(map(str, root))
    # every label reads back as its own word, and a level-1 label points its component
    for n in range(1, 5):
        level = build_schreier(gens, n)
        assert all(word(label) == Alphabet(11).word_at(i, n) for i, label in enumerate(level.labels))
    comp, at = pointed_component(gens, build_schreier(gens, 1).labels[10], 1)
    assert comp.labels[at] == "10."


def test_escape_matches_saxutils():
    for text in ("a<b>&c", "&lt;", "<&>", ">>&&<<", "&amp;<>", "plain", "", "x&y<z>w & <q>"):
        assert _escape(text) == escape(text)
