"""Command line interface.

Subcommands: gen (level graph export), nucleus, check (catalog expected
properties), equiv (asymptotic equivalence of two boundary points), ssg
(self-similarity graph), spectrum, pointed (rooted component of a boundary
point). Options shared by subcommands are declared once, in parent parsers,
so --help lists them before a subcommand's own. A subcommand returns its
text, which cli_main writes to stdout or --out; check prints as it checks
and returns its exit code. Exit codes: 0 success, 1 usage, 2 validation
failure, 3 resource cap; cli_main maps every raised error to its code.
Verdicts are data: a bound-exceeded nucleus report and a negative
equivalence answer both exit 0.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys

from .catalog import UnknownEntryError, catalog_get, catalog_list, check_entry
from .core import StateRef, invert, inverse_state
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


def _load(args) -> list[StateRef]:
    if args.catalog is not None:
        return catalog_get(args.catalog).automaton()[1]
    with open(args.automaton, encoding="utf-8") as fh:
        return to_automaton(parse(fh.read()))[1]


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


def _cmd_gen(args) -> str:
    gens = _load(args)
    if args.drop_identity:
        gens = _drop_identity(gens)
    if args.symmetrize and gens:
        gens = _symmetrize(gens)
    graph = build_schreier(gens, args.level, args.vertex_cap)
    out_graph = simplicial(graph) if args.simplicial else graph
    return export_graph(out_graph, args.format)


def _cmd_nucleus(args) -> str:
    gens = _load(args)
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
    return "\n".join(lines) + "\n"


def _cmd_check(args) -> int:
    entries = catalog_list() if args.all else [catalog_get(args.catalog)]
    failed = False
    for entry in entries:
        print(f"[{entry.key}] {entry.title}")
        for description, ok in check_entry(entry):
            print(f"  {'PASS' if ok else 'FAIL'} {description}")
            failed = failed or not ok
    return EXIT_INVALID if failed else EXIT_OK


def _cmd_equiv(args) -> str:
    gens = _load(args)
    # the points are checked first: the closure can take long before it trips a bound
    p, q = BoundaryPoint.parse(args.p), BoundaryPoint.parse(args.q)
    for point in (p, q):
        _check_point(point, gens[0].automaton.alphabet.size)
    res = compute_nucleus(gens, max_elements=args.max_elements, max_depth=args.max_depth)
    if not res.is_contracting:
        raise NotContractingError(
            "nucleus computation exceeded its bounds; asymptotic equivalence needs a contracting nucleus"
        )
    equivalent, witness = asymptotic_equivalent(res, p, q)
    lines = [f"p: {p}", f"q: {q}", f"equivalent: {'true' if equivalent else 'false'}"]
    if witness is not None:
        names = {el: name for el, name in zip(res.elements, res.element_names())}
        lines.append("witness tail: " + " ".join(names[s] for s in witness.tail))
        lines.append("witness cycle: " + " ".join(names[s] for s in witness.cycle))
        if not witness.validate(p, q):
            raise ValueError("witness failed re-validation")
        lines.append("witness validated: true")
    return "\n".join(lines) + "\n"


def _cmd_ssg(args) -> str:
    graph = self_similarity_graph(_load(args), args.depth, args.vertex_cap)
    return export_graph(graph, args.format)


def _cmd_spectrum(args) -> str:
    graph = build_schreier(_load(args), args.level, args.vertex_cap)
    values = spectrum(graph)
    return "".join(f"{v:.12f}\n" for v in values)


def _cmd_pointed(args) -> str:
    xi = BoundaryPoint.parse(args.xi)
    graph, root = pointed_component(_load(args), xi, args.level, args.vertex_cap)
    return export_graph(graph, args.format, root=root)


# built once per process: parse_args fills a new namespace each call and leaves the parser as it was
@functools.cache
def _build_parser() -> _Parser:
    source = argparse.ArgumentParser(add_help=False)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--automaton", metavar="FILE", help="recursion file to load")
    group.add_argument("--catalog", metavar="KEY", help="built-in catalog entry")
    source.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--vertex-cap", type=int, help="override the vertex safety cap")
    export = argparse.ArgumentParser(add_help=False)
    export.add_argument("--format", choices=FORMATS, default="edges")
    bounds = argparse.ArgumentParser(add_help=False)
    defaults = inspect.signature(compute_nucleus).parameters
    bounds.add_argument("--max-elements", type=int, default=defaults["max_elements"].default)
    bounds.add_argument("--max-depth", type=int, default=defaults["max_depth"].default)

    parser = _Parser(prog="selfsim", description="Self-similar group computations.")
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        sub = subs.add_parser(name, help=summary, parents=parents)
        sub.set_defaults(func=func)
        return sub

    gen = command("gen", _cmd_gen, "build a level graph and export it", source, graph, export)
    gen.add_argument("--level", type=int, required=True, help="tree level n")
    gen.add_argument("--simplicial", action="store_true", help="forget labels, loops, multiplicity")
    gen.add_argument("--drop-identity", action="store_true", help="omit generators acting trivially")
    gen.add_argument("--symmetrize", action="store_true", help="adjoin inverse generators")

    command("nucleus", _cmd_nucleus, "nucleus closure with certificate depth", source, bounds)

    check = command("check", _cmd_check, "verify expected properties of catalog entries")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--catalog", metavar="KEY")
    group.add_argument("--all", action="store_true")

    equiv = command("equiv", _cmd_equiv, "asymptotic equivalence of two boundary points", source, bounds)
    equiv.add_argument("p", help='boundary point, e.g. "1^w" or "10^w 0"')
    equiv.add_argument("q", help="boundary point")

    ssg = command("ssg", _cmd_ssg, "self-similarity graph of words up to a depth", source, graph, export)
    ssg.add_argument("--depth", type=int, required=True)

    spec = command("spectrum", _cmd_spectrum, "eigenvalues of the level random walk operator", source, graph)
    spec.add_argument("--level", type=int, required=True)

    pointed = command(
        "pointed", _cmd_pointed, "rooted component of a boundary point prefix", source, graph, export
    )
    pointed.add_argument("--xi", required=True, help='boundary point, e.g. "0^w"')
    pointed.add_argument("--level", type=int, required=True)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        result = args.func(args)
        if isinstance(result, int):
            return result
        if args.out is None:
            sys.stdout.write(result)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(result)
        return EXIT_OK
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
