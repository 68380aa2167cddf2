"""Built-in wreath recursions with machine-checkable expected properties.

Each entry carries its recursion as DSL text, a citation note, and a list
of expected-property tuples that `check_entry` evaluates with the engine:

    ("connected_upto", n)                 level graphs 1..n are connected
    ("components_at", n, count)           frozen component count at level n
    ("contracting", size, max_el, max_d)  nucleus of that size under bounds
    ("not_contracting_within", max_el, max_d)   bound-exceeded verdict expected
    ("special", name)                     named element identity, see _SPECIALS
    ("free_reduced_upto", length)         no reduced word up to length is trivial
    ("order2_generators",)                every declared generator equals its inverse
    ("recurrent", expected)               is_recurrent decides expected, not inconclusive

free_reduced_upto counts the spheres of the word ball through radius
ceil(length / 2) against the free group's 2m(2m-1)^(n-1) on m generators.
They agree exactly when no nontrivial reduced word of length up to twice
the radius is trivial, so it checks lengths up to `length` rounded up to
even. order2_generators holds when each generator shares its pool state,
an element, with its inverse.

Entries whose recursion is standard literature material rather than part of
the source collection are flagged from_paper=False.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import MealyAutomaton, Permutation, StateRef
from .dsl import RecursionDocument, StateDef, parse, serialize, to_automaton
from .engine import GroupWord, _Pool, canonical_state, canonicalize, compute_nucleus, is_recurrent
from .schreier import build_schreier, connected_components


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    text: str
    note: str
    from_paper: bool
    expected: tuple[tuple, ...] = ()

    @property
    def title(self) -> str | None:
        return self.document().title

    def document(self) -> RecursionDocument:
        return parse(self.text)

    def automaton(self) -> tuple[MealyAutomaton, list[StateRef]]:
        return to_automaton(self.document())


class UnknownEntryError(KeyError):
    """Requested catalog key does not exist."""


def _mother_perm_states(m: int) -> list[Permutation]:
    perms = []
    for images in itertools.permutations(range(m)):
        perm = Permutation(images)
        if not perm.is_identity:
            perms.append(perm)
    return perms


def _perm_code(perm: Permutation) -> str:
    return "".join(str(x) for x in perm.images)


def mother_document(d: int, m: int) -> RecursionDocument:
    """Mother group M_{d,m}: for each nontrivial permutation s of the alphabet,
    states a(-1,s) = s with trivial sections, a(k,s) = <a(k,s), a(k-1,s), 1, ..., 1>
    for k = 0..d, and b(k,s) = <b(k,s), b(k-1,s), 1, ..., 1> for k = 1..d with
    b(0,s) = s<b(0,s), 1, ..., 1>. The printed family omits the root permutation
    of b(0,s); it is restored here, as the recursion is degenerate without it."""
    if not 1 <= d <= 3:
        raise ValueError("d must be between 1 and 3")
    if not 2 <= m <= 3:
        raise ValueError("m must be 2 or 3")
    identity = Permutation.identity(m)
    states: list[StateDef] = [StateDef("e", identity, ("e",) * m)]
    gens: list[str] = []
    for perm in _mother_perm_states(m):
        code = _perm_code(perm)
        a_names = [f"am1_{code}"] + [f"a{k}_{code}" for k in range(d + 1)]
        states.append(StateDef(a_names[0], perm, ("e",) * m))
        for k in range(0, d + 1):
            name = a_names[k + 1]
            sections = (name, a_names[k]) + ("e",) * (m - 2)
            states.append(StateDef(name, identity, sections))
        b_names = [f"b{k}_{code}" for k in range(d + 1)]
        states.append(StateDef(b_names[0], perm, (b_names[0],) + ("e",) * (m - 1)))
        for k in range(1, d + 1):
            sections = (b_names[k], b_names[k - 1]) + ("e",) * (m - 2)
            states.append(StateDef(b_names[k], identity, sections))
        gens.extend(a_names)
        gens.extend(b_names)
    return RecursionDocument(
        m,
        tuple(states),
        tuple(gens),
        title=f"Mother group d={d}, m={m}",
        cite="amir2013amenability; bartholdi2010amenability",
    )


_ENTRIES: dict[str, CatalogEntry] = {}


def _add(entry: CatalogEntry) -> None:
    _ENTRIES[entry.key] = entry


_add(
    CatalogEntry(
        key="basilica",
        text=(
            "# title: Basilica group\n"
            "# cite: grigorchuk2002basilica; nekrashevych2005self\n"
            "alphabet 2\n"
            "a = (0 1)(b, id)\n"
            "b = id(a, id)\n"
            "id = id(id, id)\n"
            "gens a b\n"
        ),
        note="Iterated monodromy group of z^2 - 1; its limit space is the Basilica fractal.",
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("contracting", 7, 500, 12),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="aleshin",
        text=(
            "# title: Aleshin automaton (free group of rank 3)\n"
            "# cite: aleshin1972finite; nekrashevych2010free\n"
            "alphabet 2\n"
            "a = (0 1)(b, c)\n"
            "b = (0 1)(c, b)\n"
            "c = id(a, a)\n"
            "gens a b c\n"
        ),
        note=(
            "Vorobets-Vorobets proved the three states generate a free group of rank 3; "
            "the smallest binary automaton with a free nonabelian group. The source list "
            "prints this recursion twice (items 1 and 2); one entry is kept."
        ),
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("free_reduced_upto", 4),
            ("not_contracting_within", 100, 20),
        ),
    )
)

_add(
    CatalogEntry(
        key="aut882",
        text=(
            "# title: Automaton 882\n"
            "# cite: bondarenko2008classification\n"
            "alphabet 2\n"
            "a = (0 1)(c, c)\n"
            "b = id(b, c)\n"
            "c = id(b, a)\n"
            "gens a b c\n"
        ),
        note=(
            "Number 882 in the Bondarenko et al. classification of 3-state binary "
            "automata; (c a^-1 c b^-1)^2 stabilizes vertex 00 with section c a^-1 c b^-1 "
            "there, so c a^-1 c b^-1 has infinite order."
        ),
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("special", "aut882_stabilizer"),
            ("not_contracting_within", 100, 20),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="aut878",
        text=(
            "# title: Automaton 878\n"
            "# cite: bondarenko2008classification; bartholdi2006thurston\n"
            "alphabet 2\n"
            "a = (0 1)(b, b)\n"
            "b = id(b, c)\n"
            "c = id(b, a)\n"
            "gens a b c\n"
        ),
        note=(
            "Number 878 in the Bondarenko et al. classification; isomorphic to "
            "C2 x| IMG(1 - 1/z^2) via the index-2 subgroup generated by bc and ca."
        ),
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("order2_generators",),
            ("contracting", 10, 500, 12),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="aut2853",
        text=(
            "# title: Automaton 2853\n"
            "# cite: bondarenko2008classification\n"
            "alphabet 2\n"
            "a = (0 1)(c, c)\n"
            "b = (0 1)(b, a)\n"
            "c = id(c, c)\n"
            "gens a b c\n"
        ),
        note="Number 2853 in the Bondarenko et al. classification; IMG(((z-1)/(z+1))^2).",
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("contracting", 4, 500, 12),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="z2",
        text=(
            "# title: Free abelian group Z^2\n"
            "# cite: nekrashevych2005self\n"
            "alphabet 2\n"
            "a = (0 1)(e, b)\n"
            "b = id(a, a)\n"
            "e = id(e, e)\n"
            "gens a b\n"
        ),
        note="Self-similar contracting action of Z^2 on the binary tree.",
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("contracting", 9, 500, 12),
            ("special", "z2_commutator"),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="virtually-z3",
        text=(
            "# title: Virtually Z^3 automaton\n"
            "# cite: grigorchuk2014self\n"
            "alphabet 2\n"
            "a = (0 1)(b, b)\n"
            "b = id(c, a)\n"
            "c = id(a, a)\n"
            "gens a b c\n"
        ),
        note="Generates a group commensurable with Z^3.",
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("contracting", 41, 500, 12),
        ),
    )
)

_add(
    CatalogEntry(
        key="half-basilica",
        text=(
            "# title: Half-Basilica automaton\n"
            "# cite: grigorchuk2014self\n"
            "alphabet 2\n"
            "a = (0 1)(b, b)\n"
            "b = id(c, b)\n"
            "c = id(c, a)\n"
            "gens a b c\n"
        ),
        note="Action conjugate to the half-Basilica group C2 x| IMG(z^2 - 1).",
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("contracting", 8, 500, 12),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="lamplighter",
        text=(
            "# title: Lamplighter group\n"
            "# cite: grigorchuk2001lamplighter\n"
            "alphabet 2\n"
            "a = (0 1)(b, a)\n"
            "b = id(b, a)\n"
            "gens a b\n"
        ),
        note="The wreath product Z2 wr Z; a classic non-contracting self-similar action.",
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("not_contracting_within", 100, 20),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="long-range",
        text=(
            "# title: Long-range group\n"
            "# cite: amir2013amenability; benjamini2003omega\n"
            "alphabet 2\n"
            "a = id(a, b)\n"
            "b = (0 1)(b, e)\n"
            "e = id(e, e)\n"
            "gens a b\n"
        ),
        note=(
            "Arises in long-range percolation theory (Benjamini-Hoffman). The printed "
            "recursion names the identity state 1; it is named e here."
        ),
        from_paper=True,
        expected=(
            ("connected_upto", 8),
            ("not_contracting_within", 100, 20),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="sierpinski",
        text=(
            "# title: Sierpinski gasket group (as printed)\n"
            "# cite: grigorchuk2006asymptotic\n"
            "alphabet 3\n"
            "a = (0 2)(e, a, e)\n"
            "b = (0 1)(e, e, b)\n"
            "c = (0 1)(c, e, e)\n"
            "e = id(e, e, e)\n"
            "gens a b c\n"
        ),
        note=(
            "The printed example defines permutations (0 2), (0 1), (1 2) but then uses "
            "(0 1) for both b and c; this entry keeps the printed recursion, see "
            "sierpinski-alt for the variant with c = (1 2)(c, e, e). With the duplicated "
            "transposition c is no longer an involution: c^2 = (c, c, e)."
        ),
        from_paper=True,
        expected=(
            ("connected_upto", 5),
            ("contracting", 8, 500, 12),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="sierpinski-alt",
        text=(
            "# title: Sierpinski gasket group (distinct transpositions)\n"
            "# cite: grigorchuk2006asymptotic\n"
            "alphabet 3\n"
            "a = (0 2)(e, a, e)\n"
            "b = (0 1)(e, e, b)\n"
            "c = (1 2)(c, e, e)\n"
            "e = id(e, e, e)\n"
            "gens a b c\n"
        ),
        note="Variant of the sierpinski entry with c carrying the (1 2) transposition.",
        from_paper=True,
        expected=(
            ("connected_upto", 5),
            ("order2_generators",),
            ("contracting", 4, 500, 12),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="grigorchuk",
        text=(
            "# title: First Grigorchuk group\n"
            "# cite: grigorchuk1980burnside\n"
            "alphabet 2\n"
            "a = (0 1)(e, e)\n"
            "b = id(a, c)\n"
            "c = id(a, d)\n"
            "d = id(e, b)\n"
            "e = id(e, e)\n"
            "gens a b c d\n"
        ),
        note=(
            "Standard literature recursion; the source collection shows only a figure "
            "for this group, so the recursion is not taken from it."
        ),
        from_paper=False,
        expected=(
            ("connected_upto", 8),
            ("order2_generators",),
            ("contracting", 5, 500, 12),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="hanoi",
        text=(
            "# title: Hanoi Towers group (3 pegs)\n"
            "# cite: grigorchuk2007schreier\n"
            "alphabet 3\n"
            "a = (0 1)(e, e, a)\n"
            "b = (0 2)(e, b, e)\n"
            "c = (1 2)(c, e, e)\n"
            "e = id(e, e, e)\n"
            "gens a b c\n"
        ),
        note=(
            "Moves of the three-peg Hanoi Towers game; level graphs are discrete "
            "Sierpinski gaskets. Standard literature recursion (figure-only in the "
            "source collection)."
        ),
        from_paper=False,
        expected=(
            ("connected_upto", 5),
            ("order2_generators",),
            ("contracting", 4, 500, 12),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="odometer",
        text=(
            "# title: Binary odometer\n"
            "# cite: nekrashevych2005self\n"
            "alphabet 2\n"
            "a = (0 1)(e, a)\n"
            "e = id(e, e)\n"
            "gens a\n"
        ),
        note="The binary adding machine; limit space a circle. Reference example, not from the source collection.",
        from_paper=False,
        expected=(
            ("connected_upto", 8),
            ("contracting", 3, 500, 12),
            ("recurrent", True),
        ),
    )
)

_add(
    CatalogEntry(
        key="identity",
        text=(
            "# title: Identity automaton\n"
            "alphabet 2\n"
            "e = id(e, e)\n"
            "gens e\n"
        ),
        note="Single identity state; the degenerate baseline for every operation.",
        from_paper=False,
        expected=(
            ("components_at", 3, 8),
            ("contracting", 1, 500, 12),
            ("recurrent", False),
        ),
    )
)

for _d in (1, 2, 3):
    for _m in (2, 3):
        _doc = mother_document(_d, _m)
        _add(
            CatalogEntry(
                key=f"mother-{_d}-{_m}",
                text=serialize(_doc),
                note=(
                    "Linear-activity mother group used in amenability arguments "
                    "(Amir-Angel-Virag, Bartholdi-Kielak-Nekrashevych). The printed "
                    "recursion leaves b0 without its root permutation; it is restored "
                    "here. Instantiated parametrically for small d, m."
                ),
                from_paper=True,
                expected=(
                    ("connected_upto", 5 if _m == 3 else 8),
                    ("not_contracting_within", 100, 12),
                    ("recurrent", True),
                ),
            )
        )


def catalog_list() -> list[CatalogEntry]:
    return list(_ENTRIES.values())


def catalog_get(key: str) -> CatalogEntry:
    try:
        return _ENTRIES[key]
    except KeyError:
        known = ", ".join(sorted(_ENTRIES))
        raise UnknownEntryError(f"no catalog entry {key!r}; known keys: {known}") from None


_SPECIALS = {}


def _special_aut882(aut, gens) -> bool:
    """(c a^-1 c b^-1)^2 fixes vertex 00 and restricts there to c a^-1 c b^-1."""
    basis = tuple(gens)
    g = canonicalize(GroupWord(basis, ((2, 1), (0, -1), (2, 1), (1, -1))))
    gg = g * g
    return gg.act((0, 0)) == (0, 0) and gg.section((0, 0)) == g


def _special_z2_commutator(aut, gens) -> bool:
    basis = tuple(gens)
    commutator = canonicalize(GroupWord(basis, ((0, 1), (1, 1), (0, -1), (1, -1))))
    ca, cb = canonical_state(gens[0]), canonical_state(gens[1])
    return commutator.is_identity and not ca.is_identity and not cb.is_identity and ca != cb


_SPECIALS["aut882_stabilizer"] = _special_aut882
_SPECIALS["z2_commutator"] = _special_z2_commutator


def check_entry(entry: CatalogEntry) -> list[tuple[str, bool]]:
    """Evaluate the entry's expected properties; returns (description, ok) pairs."""
    aut, gens = entry.automaton()
    results: list[tuple[str, bool]] = []
    for prop in entry.expected:
        kind = prop[0]
        if kind == "connected_upto":
            n = prop[1]
            ok = all(
                len(connected_components(build_schreier(gens, level))) == 1
                for level in range(1, n + 1)
            )
            results.append((f"levels 1..{n} connected", ok))
        elif kind == "components_at":
            n, count = prop[1], prop[2]
            found = len(connected_components(build_schreier(gens, n)))
            results.append((f"level {n} has {count} components (found {found})", found == count))
        elif kind == "contracting":
            size, max_el, max_d = prop[1], prop[2], prop[3]
            res = compute_nucleus(gens, max_elements=max_el, max_depth=max_d)
            ok = res.is_contracting and len(res.elements) == size
            found = len(res.elements) if res.is_contracting else "bound exceeded"
            results.append((f"nucleus has {size} elements (found {found})", ok))
        elif kind == "not_contracting_within":
            max_el, max_d = prop[1], prop[2]
            res = compute_nucleus(gens, max_elements=max_el, max_depth=max_d)
            results.append(
                (f"nucleus closure exceeds {max_el} elements", not res.is_contracting)
            )
        elif kind == "special":
            ok = _SPECIALS[prop[1]](aut, gens)
            results.append((f"special claim {prop[1]}", ok))
        elif kind == "free_reduced_upto":
            length, m = prop[1], 2 * len(gens)
            spheres = _Pool(gens).spheres(-(-length // 2))
            ok = all(len(sphere) == m * (m - 1) ** n for n, sphere in enumerate(spheres))
            results.append((f"no trivial reduced word up to length {length}", ok))
        elif kind == "order2_generators":
            ids = _Pool(gens).ids
            results.append(("all generators are involutions", ids[1::2].tolist() == ids[2::2].tolist()))
        elif kind == "recurrent":
            expected = prop[1]
            # an inconclusive verdict meets neither expectation
            ok = is_recurrent(gens).kind == ("true" if expected else "false")
            results.append((f"recurrent action expected {expected}", ok))
        else:
            results.append((f"unknown property {kind}", False))
    return results
