"""Deterministic text exports of level graphs.

Formats: edges (TSV "src\\tdst\\tlabel"), dot, graphml, and the symbolic
adjacency matrix as CSV with multiset entries joined by "+" and empty cells
rendered "0". Vertex order is fixed by the graph, so identical graphs
export byte-identical streams.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from .schreier import (
    ResourceCapError,
    SimplicialGraph,
    symbolic_matrix,
)

FORMATS = ("edges", "dot", "graphml", "matrix")
MATRIX_LIMIT = 4096


def _edges_text(graph, root: int | None) -> str:
    lines = []
    labels = graph.labels
    if root is not None:
        lines.append(f"# root\t{labels[root]}")
    if isinstance(graph, SimplicialGraph):
        for a, b in graph.edges:
            lines.append(f"{labels[a]}\t{labels[b]}\t")
    else:
        for src, dst, gen in graph.arrows():
            lines.append(f"{labels[src]}\t{labels[dst]}\t{gen}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_edges(text: str) -> list[tuple[str, str, str]]:
    """Read an edges export back as (src, dst, label) rows; comments skipped."""
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"malformed edges line: {line!r}")
        rows.append((parts[0], parts[1], parts[2]))
    return rows


def _dot_text(graph, root: int | None) -> str:
    labels = graph.labels
    simple = isinstance(graph, SimplicialGraph)
    lines = ["graph G {" if simple else "digraph G {"]
    for i, label in enumerate(labels):
        extra = ", shape=doublecircle" if i == root else ""
        lines.append(f'  v{i} [label="{label}"{extra}];')
    if simple:
        for a, b in graph.edges:
            lines.append(f"  v{a} -- v{b};")
    else:
        for src, dst, gen in graph.arrows():
            lines.append(f'  v{src} -> v{dst} [label="{gen}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graphml_text(graph, root: int | None) -> str:
    labels = graph.labels
    simple = isinstance(graph, SimplicialGraph)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.org/xmlns">',
        '  <key id="label" for="node" attr.name="label" attr.type="string"/>',
    ]
    if not simple:
        lines.append('  <key id="gen" for="edge" attr.name="label" attr.type="string"/>')
    if root is not None:
        lines.append('  <key id="root" for="node" attr.name="root" attr.type="boolean"/>')
    lines.append(f'  <graph id="G" edgedefault="{"undirected" if simple else "directed"}">')
    for i, label in enumerate(labels):
        datum = f'<data key="label">{escape(label)}</data>'
        if i == root:
            datum += '<data key="root">true</data>'
        lines.append(f'    <node id="v{i}">{datum}</node>')
    if simple:
        for a, b in graph.edges:
            lines.append(f'    <edge source="v{a}" target="v{b}"/>')
    else:
        for src, dst, gen in graph.arrows():
            lines.append(
                f'    <edge source="v{src}" target="v{dst}">'
                f'<data key="gen">{escape(gen)}</data></edge>'
            )
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _matrix_text(graph) -> str:
    if isinstance(graph, SimplicialGraph):
        raise ValueError("matrix export needs the labeled graph, not a simplicial one")
    if graph.vertex_count > MATRIX_LIMIT:
        raise ResourceCapError(
            f"dense matrix export limited to {MATRIX_LIMIT} vertices, got {graph.vertex_count}"
        )
    matrix = symbolic_matrix(graph)
    dim = matrix.dimension
    rows = [["0"] * dim for _ in range(dim)]
    for (i, j), gens in matrix.entries.items():
        rows[i][j] = "+".join(gens)
    return "\n".join(",".join(row) for row in rows) + "\n"


def export_graph(graph, fmt: str, root: int | None = None) -> str:
    """Render a labeled or simplicial graph in the requested format."""
    if fmt == "edges":
        return _edges_text(graph, root)
    if fmt == "dot":
        return _dot_text(graph, root)
    if fmt == "graphml":
        return _graphml_text(graph, root)
    if fmt == "matrix":
        return _matrix_text(graph)
    raise ValueError(f"unsupported format {fmt!r}; choose from {', '.join(FORMATS)}")
