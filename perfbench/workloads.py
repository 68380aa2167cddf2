"""Request lists and correctness checks of the three benchmark workloads.

A request is one unit of work timed on its own: a CLI invocation run
in-process through `selfsim.cli.cli_main`, or one library session. Each
distinct output is checked against references that share no code with the
function under test (`tests/_oracles.py` and the catalog's hand-written
expected tuples). Every execution's fingerprint must also equal the frozen
stdout digest of the seed commit, for CLI requests, and be the same in every
pass. Checks run outside the timed region.

Library calls go through module attributes (`selfsim.canonicalize`, not a
name imported from selfsim) so that the tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import selfsim
import selfsim.cli

from tests import _oracles

DIGESTS = Path(__file__).with_name("digests.json")

NUCLEUS_CONTRACTING = (
    "basilica", "aut878", "aut2853", "z2", "virtually-z3", "half-basilica",
    "sierpinski", "sierpinski-alt", "grigorchuk", "hanoi", "odometer", "identity",
)
NUCLEUS_BOUNDED = (("aleshin", 300), ("lamplighter", 300), ("long-range", 200))
EQUIV = (("odometer", "0^w", "1^w"), ("basilica", "01^w", "10^w"), ("z2", "0^w", "1^w"))

LEVELS_CLI = (
    "ssg --catalog hanoi --depth 7",
    "ssg --catalog basilica --depth 12",
    "gen --catalog basilica --level 16",
    "gen --catalog basilica --level 16 --simplicial",
    "gen --catalog grigorchuk --level 14 --format dot",
    "gen --catalog hanoi --level 9 --format graphml",
    "pointed --catalog basilica --xi 1^w --level 16",
    "spectrum --catalog basilica --level 11",
    "spectrum --catalog hanoi --level 7",
)
LEVELS_COMPONENTS = (("grigorchuk", 16), ("identity", 16))

# (entry, word length, word count, positive words only, take products).
# Positive aleshin and lamplighter words have k^L canonical states whatever
# the seed draws, so the seed moves the words and not the amount of work;
# products are taken only where the factors are small.
WORD_SESSIONS = (
    ("hanoi", 100, 12, False, True),
    ("grigorchuk", 100, 12, False, True),
    ("basilica", 100, 12, False, True),
    ("aleshin", 8, 4, True, False),
    ("aleshin", 4, 8, True, True),
    ("aleshin", 6, 12, False, False),
    ("lamplighter", 10, 4, True, False),
)


@dataclass
class Request:
    name: str
    run: Callable[[], object]
    fingerprint: Callable[[object], str]
    check: Callable[[object], str | None]
    expected: str | None = None  # frozen fingerprint, for CLI requests


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_run(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = selfsim.cli.cli_main(argv)
        return code, out.getvalue()

    return run


def _cli_fingerprint(result) -> str:
    code, text = result
    return f"exit {code} sha256 {_sha(text)}"


def _cli_request(command: str, check, digests: dict[str, str]) -> Request:
    return Request(command, _cli_run(command.split(" ")), _cli_fingerprint, check, digests[command])


def _expected(key: str, kind: str) -> tuple:
    for prop in selfsim.catalog_get(key).expected:
        if prop[0] == kind:
            return prop
    raise KeyError(f"catalog entry {key} has no {kind} property")


def _fields(text: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _check_contracting(key: str):
    size = _expected(key, "contracting")[1]

    def check(result) -> str | None:
        code, text = result
        got = _fields(text)
        if code != 0 or got.get("verdict") != "contracting" or got.get("elements") != str(size):
            return f"expected a contracting nucleus of {size} elements, got exit {code}: {got}"
        return None

    return check


def _check_bounded(key: str, max_elements: int):
    _expected(key, "not_contracting_within")  # the catalog itself must expect bound-exceeded

    def check(result) -> str | None:
        code, text = result
        got = _fields(text)
        want = {"verdict": "bound-exceeded", "reason": "elements", "seen": str(max_elements + 1)}
        if code != 0 or any(got.get(k) != v for k, v in want.items()):
            return f"expected {want}, got exit {code}: {got}"
        return None

    return check


def _digest_only(result) -> None:
    """Exports are checked by their frozen stdout digest alone."""
    return None


def _check_equivalent(result) -> str | None:
    code, text = result
    got = _fields(text)
    if code != 0 or got.get("equivalent") != "true" or got.get("witness validated") != "true":
        return f"expected a validated equivalence witness, got exit {code}: {got}"
    return None


def closure_requests(rng: random.Random, digests: dict[str, str]) -> list[Request]:
    reqs = [
        _cli_request(f"nucleus --catalog {key}", _check_contracting(key), digests)
        for key in NUCLEUS_CONTRACTING
    ]
    reqs += [
        _cli_request(f"nucleus --catalog {key} --max-elements {m}", _check_bounded(key, m), digests)
        for key, m in NUCLEUS_BOUNDED
    ]
    reqs += [
        _cli_request(f"equiv --catalog {key} {p} {q}", _check_equivalent, digests)
        for key, p, q in EQUIV
    ]
    return reqs


def _oracle_images(key: str, level: int) -> list[list[int]]:
    """Level images of each generator, by direct interpretation of the document."""
    doc = selfsim.catalog_get(key).document()
    k = doc.alphabet_size
    words = [()]
    for _ in range(level):
        words = [w + (x,) for w in words for x in range(k)]
    index = {w: i for i, w in enumerate(words)}
    return [[index[_oracles.doc_act(doc, g, w)] for w in words] for g in doc.gens]


def _check_spectrum(key: str, level: int):
    def check(result) -> str | None:
        code, text = result
        values = [float(v) for v in text.split()]
        images = _oracle_images(key, level)
        n = len(images[0])
        edges = [(v, img[v]) for img in images for v in range(n)]
        components = _oracles.component_count(n, edges)
        ones = sum(1 for v in values if abs(v - 1.0) <= 1e-9)
        trace = sum(img[v] == v for img in images for v in range(n)) / len(images)
        if code != 0 or len(values) != n:
            return f"expected {n} eigenvalues, got {len(values)} and exit {code}"
        if ones != components:
            return f"eigenvalue 1 has multiplicity {ones}, the graph has {components} components"
        if abs(sum(values) - trace) > 1e-9 * n:
            return f"eigenvalues sum to {sum(values)}, the walk operator has trace {trace}"
        return None

    return check


def _components_request(key: str, level: int) -> Request:
    gens = selfsim.catalog_get(key).automaton()[1]

    def run():
        graph = selfsim.build_schreier(gens, level)
        return graph, selfsim.connected_components(graph)

    def fingerprint(result) -> str:
        return " ".join(str(len(c)) for c in result[1])

    def check(result) -> str | None:
        graph, comps = result
        edges = [(v, t) for img in graph.images for v, t in enumerate(img.tolist())]
        want = _oracles.component_count(graph.vertex_count, edges)
        if len(comps) != want:
            return f"{len(comps)} components, union-find finds {want}"
        return None

    return Request(f"components {key} {level}", run, fingerprint, check)


def levels_requests(rng: random.Random, digests: dict[str, str]) -> list[Request]:
    reqs = []
    for command in LEVELS_CLI:
        parts = command.split(" ")
        check = _check_spectrum(parts[2], int(parts[4])) if parts[0] == "spectrum" else _digest_only
        reqs.append(_cli_request(command, check, digests))
    reqs += [_components_request(key, level) for key, level in LEVELS_COMPONENTS]
    return reqs


def _random_word(rng: random.Random, gens: int, length: int, positive: bool) -> tuple:
    out: list[tuple[int, int]] = []
    while len(out) < length:
        f = (rng.randrange(gens), 1 if positive else rng.choice((1, -1)))
        if out and out[-1] == (f[0], -f[1]):
            continue
        out.append(f)
    return tuple(out)


def _word_session(key: str, length: int, count: int, positive: bool, products: bool,
                  rng: random.Random) -> Request:
    entry = selfsim.catalog_get(key)
    doc = entry.document()
    gens = tuple(entry.automaton()[1])
    words = [_random_word(rng, len(gens), length, positive) for _ in range(count)]
    check_seed = rng.randrange(2**32)

    def run():
        els = [selfsim.canonicalize(selfsim.GroupWord(gens, w)) for w in words]
        invs = [e.inverse() for e in els]
        prods = [els[i] * els[i + 1] for i in range(0, count - 1, 2)] if products else []
        return els, invs, prods

    def fingerprint(result) -> str:
        return _sha(repr([[(e.size, hash(e)) for e in part] for part in result]))

    def named(w):
        return [(gens[pos].name, exp) for pos, exp in w]

    def check(result) -> str | None:
        els, invs, prods = result
        cases = [(e, named(w)) for e, w in zip(els, words)]
        cases += [(e, [(n, -x) for n, x in reversed(named(w))]) for e, w in zip(invs, words)]
        cases += [(p, named(words[2 * i]) + named(words[2 * i + 1])) for i, p in enumerate(prods)]
        sample = random.Random(check_seed)
        k = doc.alphabet_size
        probes = [tuple(sample.randrange(k) for _ in range(12)) for _ in range(16)]
        for el, factors in cases:
            for v in probes:
                if el.act(v) != _oracles.word_act(doc, factors, v):
                    return f"element of {factors} acts wrongly on {v}"
        for w in words:
            gw = selfsim.GroupWord(gens, w)
            if not selfsim.canonicalize(gw * gw.inverse()).is_identity:
                return f"w w^-1 is not the identity for {named(w)}"
        return None

    return Request(f"words {key} L{length} x{count}{' positive' if positive else ''}",
                   run, fingerprint, check)


def words_requests(rng: random.Random, digests: dict[str, str]) -> list[Request]:
    return [_word_session(*session, rng) for session in WORD_SESSIONS]


BUILDERS = {"closure": closure_requests, "words": words_requests, "levels": levels_requests}


def build(workload: str, seed: int, digests: dict[str, str] | None = None) -> list[Request]:
    """The workload's requests; the words workload draws its words from the seed.

    The first request is a cheap one and serves as the untimed warm-up.
    """
    if digests is None:
        digests = json.loads(DIGESTS.read_text())
    return BUILDERS[workload](random.Random(seed), digests)
