"""Deterministic text exports of level graphs.

Formats: edges (TSV "src\\tdst\\tlabel"), dot, graphml, and the symbolic
adjacency matrix as CSV with multiset entries joined by "+" and empty cells
rendered "0". Every format is written from one lazy row source of
(src, dst, label): a labeled graph's arrows in generator order, then vertex
order, read from its image arrays; a simplicial graph's edges with label
None, meaning undirected. Vertex order is fixed by the graph, so identical
graphs export byte-identical streams.
"""

from __future__ import annotations

from .schreier import SimplicialGraph
from .spectra import _check_dense


def _escape(text: str) -> str:
    """XML character data: &, < and > escaped in that order, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _quote(text: str) -> str:
    """A DOT quoted string: backslash and double quote escaped, in that order."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _rows(graph):
    """Lazy (src, dst, label) rows of the graph; label None for an undirected edge."""
    if isinstance(graph, SimplicialGraph):
        return ((a, b, None) for a, b in graph.edges)
    return (
        (src, dst, label)
        for label, img in zip(graph.gen_labels, graph.images)
        for src, dst in enumerate(img.tolist())
    )


def _edges_text(graph, root: int | None) -> str:
    labels = graph.labels
    head = f"# root\t{labels[root]}\n" if root is not None else ""
    return head + "".join(
        f"{labels[src]}\t{labels[dst]}\t{gen or ''}\n" for src, dst, gen in _rows(graph)
    )


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
    lines = ["graph G {" if isinstance(graph, SimplicialGraph) else "digraph G {"]
    for i, label in enumerate(graph.labels):
        extra = ", shape=doublecircle" if i == root else ""
        lines.append(f"  v{i} [label={_quote(label)}{extra}];")
    quoted = {} if isinstance(graph, SimplicialGraph) else {gen: _quote(gen) for gen in graph.gen_labels}
    for src, dst, gen in _rows(graph):
        edge = f"  v{src} -- v{dst}" if gen is None else f"  v{src} -> v{dst} [label={quoted[gen]}]"
        lines.append(edge + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _graphml_text(graph, root: int | None) -> str:
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
    for i, label in enumerate(graph.labels):
        datum = f'<data key="label">{_escape(label)}</data>'
        if i == root:
            datum += '<data key="root">true</data>'
        lines.append(f'    <node id="v{i}">{datum}</node>')
    escaped = {} if simple else {gen: _escape(gen) for gen in graph.gen_labels}
    for src, dst, gen in _rows(graph):
        edge = f'    <edge source="v{src}" target="v{dst}"'
        tail = "/>" if gen is None else f'><data key="gen">{escaped[gen]}</data></edge>'
        lines.append(edge + tail)
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _check_matrix(simple: bool, k: int, n: int) -> None:
    """Refuse a matrix export of a simplicial graph, or of a dense one of more than DENSE_LIMIT vertices, k^n."""
    if simple:
        raise ValueError("matrix export needs the labeled graph, not a simplicial one")
    _check_dense(k, n, "matrix export")


def _matrix_text(graph, root: int | None) -> str:
    """The symbolic adjacency matrix; it has no place to mark a root."""
    dim = graph.vertex_count
    # the count as dim^1: a built graph's is formed already
    _check_matrix(isinstance(graph, SimplicialGraph), dim, 1)
    cells: list[dict[int, list[str]]] = [{} for _ in range(dim)]
    for src, dst, gen in _rows(graph):
        cells[src].setdefault(dst, []).append(gen)
    # one row of cell strings at a time: the dense grid would hold dim^2 of them
    lines = []
    for row_cells in cells:
        row = ["0"] * dim
        for j, gens in row_cells.items():
            row[j] = "+".join(gens)
        lines.append(",".join(row) + "\n")
    return "".join(lines)


_WRITERS = {
    "edges": _edges_text,
    "dot": _dot_text,
    "graphml": _graphml_text,
    "matrix": _matrix_text,
}
FORMATS = tuple(_WRITERS)


def export_graph(graph, fmt: str, root: int | None = None) -> str:
    """Render a labeled or simplicial graph in the requested format; root, if given, is a vertex index."""
    if fmt not in _WRITERS:
        raise ValueError(f"unsupported format {fmt!r}; choose from {', '.join(FORMATS)}")
    if root is not None and not 0 <= root < graph.vertex_count:
        raise ValueError(f"root {root} out of range 0..{graph.vertex_count - 1}")
    return _WRITERS[fmt](graph, root)
