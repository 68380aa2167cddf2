"""Command line interface.

Subcommands: gen (level graph export), nucleus, check (catalog expected
properties), equiv (asymptotic equivalence of two boundary points), ssg
(self-similarity graph), spectrum, pointed (rooted component of a boundary
point). Exit codes: 0 success, 1 usage, 2 validation failure, 3 resource
cap. Verdicts are data: a bound-exceeded nucleus report and a negative
equivalence answer both exit 0.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .catalog import UnknownEntryError, catalog_get, check_entry
from .core import MealyAutomaton, StateRef, invert, inverse_state
from .dsl import ParseError, parse, to_automaton
from .engine import NotContractingError, canonical_state, compute_nucleus
from .exports import FORMATS, export_graph
from .limits import BoundaryPoint, _check_point, asymptotic_equivalent, self_similarity_graph
from .schreier import ResourceCapError, build_schreier, pointed_component, simplicial
from .spectra import spectrum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--automaton", metavar="FILE", help="recursion file to load")
    group.add_argument("--catalog", metavar="KEY", help="built-in catalog entry")


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")


def _load(args) -> tuple[MealyAutomaton, list[StateRef]]:
    if args.catalog is not None:
        return catalog_get(args.catalog).automaton()
    with open(args.automaton, encoding="utf-8") as fh:
        return to_automaton(parse(fh.read()))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _drop_identity(gens: list[StateRef]) -> list[StateRef]:
    kept, dropped = [], []
    for g in gens:
        (dropped if canonical_state(g).is_identity else kept).append(g)
    if dropped:
        names = " ".join(g.name for g in dropped)
        print(f"note: dropped identity generators: {names}", file=sys.stderr)
    else:
        print("note: --drop-identity found no identity generators", file=sys.stderr)
    return kept


def _symmetrize(gens: list[StateRef]) -> list[StateRef]:
    closed = invert(gens[0].automaton)
    return [closed.state(g.index) for g in gens] + [inverse_state(g) for g in gens]


def _cmd_gen(args) -> int:
    aut, gens = _load(args)
    if args.drop_identity:
        gens = _drop_identity(gens)
    if args.symmetrize and gens:
        gens = _symmetrize(gens)
    graph = build_schreier(gens, args.level, args.vertex_cap)
    out_graph = simplicial(graph) if args.simplicial else graph
    _emit(export_graph(out_graph, args.format), args.out)
    return EXIT_OK


def _cmd_nucleus(args) -> int:
    aut, gens = _load(args)
    res = compute_nucleus(gens, max_elements=args.max_elements, max_depth=args.max_depth)
    lines = [f"verdict: {res.verdict}"]
    if res.is_contracting:
        lines.append(f"elements: {len(res.elements)}")
        lines.append(f"certificate depth: {res.depth}")
        lines.extend(res.element_names())
    else:
        lines.append(f"reason: {res.reason}")
        lines.append(f"seen: {res.witness_count}")
        lines.append(f"max elements: {res.max_elements}")
        lines.append(f"max depth: {res.max_depth}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.all:
        from .catalog import catalog_list

        entries = catalog_list()
    else:
        entries = [catalog_get(args.catalog)]
    failed = False
    for entry in entries:
        print(f"[{entry.key}] {entry.title}")
        for description, ok in check_entry(entry):
            print(f"  {'PASS' if ok else 'FAIL'} {description}")
            failed = failed or not ok
    return EXIT_INVALID if failed else EXIT_OK


def _cmd_equiv(args) -> int:
    aut, gens = _load(args)
    # the points are checked first: the closure can take long before it trips a bound
    p, q = BoundaryPoint.parse(args.p), BoundaryPoint.parse(args.q)
    for point in (p, q):
        _check_point(point, aut.alphabet.size)
    res = compute_nucleus(gens, max_elements=args.max_elements, max_depth=args.max_depth)
    if not res.is_contracting:
        print(
            "error: nucleus computation exceeded its bounds; "
            "asymptotic equivalence needs a contracting nucleus",
            file=sys.stderr,
        )
        return EXIT_INVALID
    equivalent, witness = asymptotic_equivalent(res, p, q)
    lines = [f"p: {p}", f"q: {q}", f"equivalent: {'true' if equivalent else 'false'}"]
    if witness is not None:
        names = {el: name for el, name in zip(res.elements, res.element_names())}
        lines.append("witness tail: " + " ".join(names[s] for s in witness.tail))
        lines.append("witness cycle: " + " ".join(names[s] for s in witness.cycle))
        if not witness.validate(p, q):
            print("error: witness failed re-validation", file=sys.stderr)
            return EXIT_INVALID
        lines.append("witness validated: true")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_ssg(args) -> int:
    aut, gens = _load(args)
    graph = self_similarity_graph(gens, args.depth, args.vertex_cap)
    _emit(export_graph(graph, args.format), args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    aut, gens = _load(args)
    graph = build_schreier(gens, args.level, args.vertex_cap)
    values = spectrum(graph)
    _emit("".join(f"{v:.12f}\n" for v in values), args.out)
    return EXIT_OK


def _cmd_pointed(args) -> int:
    aut, gens = _load(args)
    xi = BoundaryPoint.parse(args.xi)
    graph, root = pointed_component(gens, xi, args.level, args.vertex_cap)
    _emit(export_graph(graph, args.format, root=root), args.out)
    return EXIT_OK


# built once per process: parse_args fills a new namespace each call and leaves the parser as it was
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="selfsim", description="Self-similar group computations.")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="build a level graph and export it")
    _add_source(gen)
    gen.add_argument("--level", type=int, required=True, help="tree level n")
    gen.add_argument("--format", choices=FORMATS, default="edges")
    gen.add_argument("--simplicial", action="store_true", help="forget labels, loops, multiplicity")
    gen.add_argument("--drop-identity", action="store_true", help="omit generators acting trivially")
    gen.add_argument("--symmetrize", action="store_true", help="adjoin inverse generators")
    gen.add_argument("--vertex-cap", type=int, help="override the vertex safety cap")
    _add_output(gen)
    gen.set_defaults(func=_cmd_gen)

    nucleus = subs.add_parser("nucleus", help="nucleus closure with certificate depth")
    _add_source(nucleus)
    nucleus.add_argument("--max-elements", type=int, default=10000)
    nucleus.add_argument("--max-depth", type=int, default=20)
    _add_output(nucleus)
    nucleus.set_defaults(func=_cmd_nucleus)

    check = subs.add_parser("check", help="verify expected properties of catalog entries")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--catalog", metavar="KEY")
    group.add_argument("--all", action="store_true")
    check.set_defaults(func=_cmd_check)

    equiv = subs.add_parser("equiv", help="asymptotic equivalence of two boundary points")
    _add_source(equiv)
    equiv.add_argument("p", help='boundary point, e.g. "1^w" or "10^w 0"')
    equiv.add_argument("q", help="boundary point")
    equiv.add_argument("--max-elements", type=int, default=10000)
    equiv.add_argument("--max-depth", type=int, default=20)
    _add_output(equiv)
    equiv.set_defaults(func=_cmd_equiv)

    ssg = subs.add_parser("ssg", help="self-similarity graph of words up to a depth")
    _add_source(ssg)
    ssg.add_argument("--depth", type=int, required=True)
    ssg.add_argument("--format", choices=FORMATS, default="edges")
    ssg.add_argument("--vertex-cap", type=int)
    _add_output(ssg)
    ssg.set_defaults(func=_cmd_ssg)

    spec = subs.add_parser("spectrum", help="eigenvalues of the level random walk operator")
    _add_source(spec)
    spec.add_argument("--level", type=int, required=True)
    spec.add_argument("--vertex-cap", type=int)
    _add_output(spec)
    spec.set_defaults(func=_cmd_spectrum)

    pointed = subs.add_parser("pointed", help="rooted component of a boundary point prefix")
    _add_source(pointed)
    pointed.add_argument("--xi", required=True, help='boundary point, e.g. "0^w"')
    pointed.add_argument("--level", type=int, required=True)
    pointed.add_argument("--format", choices=FORMATS, default="edges")
    pointed.add_argument("--vertex-cap", type=int)
    _add_output(pointed)
    pointed.set_defaults(func=_cmd_pointed)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except UnknownEntryError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, NotContractingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main() -> int:
    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
