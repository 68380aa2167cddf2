"""Text format for wreath recursions.

    # title: Basilica group
    alphabet 2
    a = (0 1)(b, id)
    b = id(a, id)
    id = id(id, id)
    gens a b

One state per line: an output permutation, written as disjoint cycles over
letters or the keyword "id", followed by the parenthesised list of section
names, one per letter. A line with "=" defines a state, so states may be
named "alphabet" or "gens". "#" starts a comment; blank lines are ignored. The
comment forms "# title: ..." and "# cite: ..." attach document metadata and
survive a serialize/parse round trip. The alphabet line must come first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import Alphabet, MealyAutomaton, Permutation, StateRef

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_^+\-]*")
_ALPHABET = re.compile(r"alphabet\s+([^\s=]+)\s*$")
_GENS = re.compile(r"gens(\s+[^=]*)?$")
_CYCLE = re.compile(r"\(([^()]*)\)")


class ParseError(ValueError):
    """Syntax or validation error with a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class StateDef:
    name: str
    perm: Permutation
    sections: tuple[str, ...]


@dataclass(frozen=True)
class RecursionDocument:
    alphabet_size: int
    states: tuple[StateDef, ...]
    gens: tuple[str, ...]
    title: str | None = None
    cite: str | None = None


def _parse_perm(text: str, k: int, line_no: int, base_col: int) -> Permutation:
    stripped = text.strip()
    if stripped == "id":
        return Permutation.identity(k)
    if not stripped:
        raise ParseError("missing permutation (use \"id\" or cycles)", line_no, base_col + 1)
    cycles = []
    pos = 0
    seen: set[int] = set()
    while pos < len(stripped):
        if stripped[pos].isspace():
            pos += 1
            continue
        m = _CYCLE.match(stripped, pos)
        if m is None:
            raise ParseError(
                f"malformed permutation near {stripped[pos:]!r}", line_no, base_col + pos + 1
            )
        body = m.group(1).strip()
        col = base_col + m.start() + 1
        if not body:
            raise ParseError("empty cycle", line_no, col)
        cyc = []
        for token in re.split(r"[,\s]+", body):
            if not token.isdigit():
                raise ParseError(f"cycle entries must be letters, got {token!r}", line_no, col)
            x = int(token)
            if x >= k:
                raise ParseError(f"cycle letter {x} out of range for alphabet {k}", line_no, col)
            if x in seen:
                raise ParseError(f"letter {x} repeated in cycle notation", line_no, col)
            seen.add(x)
            cyc.append(x)
        cycles.append(cyc)
        pos = m.end()
    return Permutation.from_cycles(cycles, k)


def parse(text: str) -> RecursionDocument:
    """Parse the text format; raises ParseError with position on any defect."""
    alphabet_size: int | None = None
    title: str | None = None
    cite: str | None = None
    states: list[StateDef] = []
    state_lines: dict[str, int] = {}
    section_pos: list[tuple[str, int, int]] = []  # name, line, col for late resolution
    gens: tuple[str, ...] | None = None
    gens_line = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        hash_at = raw.find("#")
        line = raw if hash_at < 0 else raw[:hash_at]
        if hash_at >= 0:
            comment = raw[hash_at + 1 :].strip()
            if comment.startswith("title:") and title is None:
                title = comment[len("title:") :].strip() or None
            elif comment.startswith("cite:") and cite is None:
                cite = comment[len("cite:") :].strip() or None
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        body = line.strip()

        m = _ALPHABET.match(body)
        if m is not None:
            if alphabet_size is not None:
                raise ParseError("duplicate alphabet line", line_no, indent + 1)
            if states or gens is not None:
                raise ParseError("alphabet line must come first", line_no, indent + 1)
            if not m.group(1).isdigit() or int(m.group(1)) < 1:
                raise ParseError(f"bad alphabet size {m.group(1)!r}", line_no, indent + 1)
            alphabet_size = int(m.group(1))
            continue

        m = _GENS.match(body)
        if m is not None:
            if gens is not None:
                raise ParseError("duplicate gens line", line_no, indent + 1)
            gens = tuple((m.group(1) or "").split())
            gens_line = line_no
            if not gens:
                raise ParseError("gens line names no generators", line_no, indent + 1)
            continue

        eq_at = line.find("=")
        if eq_at < 0:
            raise ParseError(f"cannot parse line {body!r}", line_no, indent + 1)
        if alphabet_size is None:
            raise ParseError("state defined before the alphabet line", line_no, indent + 1)
        name = line[:eq_at].strip()
        if not _NAME.fullmatch(name):
            raise ParseError(f"bad state name {name!r}", line_no, indent + 1)
        if name in state_lines:
            raise ParseError(f"duplicate state name {name!r}", line_no, indent + 1)
        rhs = line[eq_at + 1 :]
        if not rhs.rstrip().endswith(")"):
            raise ParseError("state line must end with a section list", line_no, len(line.rstrip()))
        rhs_stripped = rhs.rstrip()
        open_at = rhs_stripped.rfind("(")
        if open_at < 0:
            raise ParseError("missing section list", line_no, eq_at + 2)
        sec_col = eq_at + 1 + open_at + 1
        perm = _parse_perm(rhs_stripped[:open_at], alphabet_size, line_no, eq_at + 1)
        sec_body = rhs_stripped[open_at + 1 : -1]
        parts = [p.strip() for p in sec_body.split(",")]
        if parts == [""]:
            parts = []
        if len(parts) != alphabet_size:
            raise ParseError(
                f"state {name!r} lists {len(parts)} sections, alphabet needs {alphabet_size}",
                line_no,
                sec_col,
            )
        for part in parts:
            if not _NAME.fullmatch(part):
                raise ParseError(f"bad section name {part!r}", line_no, sec_col)
            section_pos.append((part, line_no, sec_col))
        states.append(StateDef(name, perm, tuple(parts)))
        state_lines[name] = line_no

    if alphabet_size is None:
        raise ParseError("missing alphabet line", max(1, text.count("\n") + 1), 1)
    if not states:
        raise ParseError("no state definitions", max(1, text.count("\n") + 1), 1)
    defined = set(state_lines)
    for name, line_no, col in section_pos:
        if name not in defined:
            raise ParseError(f"section references undefined state {name!r}", line_no, col)
    if gens is None:
        raise ParseError("missing gens line", max(1, text.count("\n") + 1), 1)
    for g in gens:
        if g not in defined:
            raise ParseError(f"gens references undefined state {g!r}", gens_line, 1)

    return RecursionDocument(alphabet_size, tuple(states), gens, title, cite)


def _format_perm(perm: Permutation) -> str:
    cycles = perm.cycles()
    if not cycles:
        return "id"
    return "".join("(" + " ".join(str(x) for x in cyc) + ")" for cyc in cycles)


def serialize(doc: RecursionDocument) -> str:
    """Canonical text for a document; parse(serialize(doc)) == doc."""
    lines = []
    if doc.title is not None:
        lines.append(f"# title: {doc.title}")
    if doc.cite is not None:
        lines.append(f"# cite: {doc.cite}")
    lines.append(f"alphabet {doc.alphabet_size}")
    for st in doc.states:
        lines.append(f"{st.name} = {_format_perm(st.perm)}({', '.join(st.sections)})")
    lines.append("gens " + " ".join(doc.gens))
    return "\n".join(lines) + "\n"


def to_automaton(doc: RecursionDocument) -> tuple[MealyAutomaton, list[StateRef]]:
    """Build the automaton; returns it with the document's generator states."""
    index = {st.name: i for i, st in enumerate(doc.states)}
    aut = MealyAutomaton(
        Alphabet(doc.alphabet_size),
        tuple(st.name for st in doc.states),
        tuple(st.perm for st in doc.states),
        tuple(tuple(index[s] for s in st.sections) for st in doc.states),
    )
    return aut, [aut.state(index[g]) for g in doc.gens]


def automaton_document(
    aut: MealyAutomaton,
    gens: list[StateRef] | None = None,
    title: str | None = None,
    cite: str | None = None,
) -> RecursionDocument:
    """Document describing an automaton, for states whose names fit the grammar."""
    for name in aut.names:
        if not _NAME.fullmatch(name):
            raise ValueError(f"state name {name!r} cannot be written in the text format")
    states = tuple(
        StateDef(aut.names[i], aut.perms[i], tuple(aut.names[j] for j in aut.sections[i]))
        for i in range(len(aut))
    )
    if gens is None:
        gen_names = tuple(aut.names)
    else:
        gen_names = tuple(g.name for g in gens)
    return RecursionDocument(aut.alphabet.size, states, gen_names, title, cite)
