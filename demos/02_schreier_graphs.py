"""Build level graphs, export them, and watch components split or stay whole."""

from selfsim import (
    build_schreier,
    catalog_get,
    connected_components,
    export_graph,
    simplicial,
    to_automaton,
)


def main():
    _, gens = catalog_get("basilica").automaton()

    g1 = build_schreier(gens, 1)
    print("basilica level 1 as edge rows:")
    print(export_graph(g1, "edges"), end="")
    print("and as a symbolic adjacency matrix:")
    print(export_graph(g1, "matrix"), end="")

    g3 = build_schreier(gens, 3)
    print(f"\nlevel 3: {g3.vertex_count} vertices, {g3.arrow_count} arrows")
    # row 000 of the symbolic adjacency matrix: the generators taking 000 to each vertex
    row = export_graph(g3, "matrix").splitlines()[0].split(",")
    print("arrows from 000: ", end="")
    print(", ".join(f"{cell} -> {g3.vertex_label(j)}" for j, cell in enumerate(row) if cell != "0"))

    s = simplicial(g3)
    print(f"simplicial version keeps {len(s.edges)} of {g3.arrow_count} arrows as edges")

    for key in ("basilica", "identity", "sierpinski"):
        _, kgens = catalog_get(key).automaton()
        counts = [
            len(connected_components(build_schreier(kgens, n))) for n in range(1, 6)
        ]
        print(f"{key:10s} components at levels 1..5: {counts}")

    print("\ndot export of the level-2 graph:")
    print(export_graph(build_schreier(gens, 2), "dot"), end="")


if __name__ == "__main__":
    main()
