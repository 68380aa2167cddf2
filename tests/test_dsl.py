"""Text format: parsing, error positions, serialization, round trips."""

import pytest

from selfsim import (
    Alphabet,
    MealyAutomaton,
    ParseError,
    Permutation,
    automaton_document,
    catalog_get,
    catalog_list,
    parse,
    serialize,
    to_automaton,
)

BASILICA = """\
# title: Basilica group
alphabet 2
a = (0 1)(b, id)
b = id(a, id)
id = id(id, id)
gens a b
"""


def test_parse_basic_document():
    doc = parse(BASILICA)
    assert doc.alphabet_size == 2
    assert doc.title == "Basilica group"
    assert doc.cite is None
    assert [st.name for st in doc.states] == ["a", "b", "id"]
    assert doc.states[0].perm == Permutation((1, 0))
    assert doc.states[0].sections == ("b", "id")
    assert doc.states[1].perm == Permutation((0, 1))
    assert doc.gens == ("a", "b")


def test_parse_ignores_comments_and_blanks():
    text = "\n# leading comment\nalphabet 2\n\na = (0 1)(a, a)  # trailing\n\ngens a\n"
    doc = parse(text)
    assert [st.name for st in doc.states] == ["a"]
    assert doc.title is None


def test_parse_title_and_cite_survive_round_trip():
    text = "# title: T\n# cite: someone2001paper\nalphabet 2\na = id(a, a)\ngens a\n"
    doc = parse(text)
    assert doc.title == "T"
    assert doc.cite == "someone2001paper"
    again = parse(serialize(doc))
    assert again == doc


@pytest.mark.parametrize("field", ["title", "cite"])
def test_serialize_refuses_metadata_that_does_not_read_back(field):
    aut, gens = to_automaton(parse(BASILICA))
    for text in ("two\nlines", " padded ", ""):
        with pytest.raises(ValueError, match=field):
            serialize(automaton_document(aut, gens, **{field: text}))
    doc = automaton_document(aut, gens, **{field: "a # b"})
    assert parse(serialize(doc)) == doc


def test_parse_multi_cycle_permutation():
    doc = parse("alphabet 4\nr = (0 1)(2 3)(r, r, r, r)\ngens r\n")
    assert doc.states[0].perm == Permutation((1, 0, 3, 2))


def test_parse_larger_alphabet_cycles_with_commas():
    doc = parse("alphabet 3\nc = (0, 2)(c, c, c)\ngens c\n")
    assert doc.states[0].perm == Permutation((2, 1, 0))
    # blanks between cycles are skipped
    doc = parse("alphabet 3\nc = (0 1) (2)(c, c, c)\ngens c\n")
    assert doc.states[0].perm == Permutation((1, 0, 2))


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("a = id(a, a)\ngens a\n", 1, "alphabet"),
        ("alphabet 2\nalphabet 2\na = id(a, a)\ngens a\n", 2, "duplicate alphabet"),
        ("alphabet x\na = id(a, a)\ngens a\n", 1, "bad alphabet size"),
        ("alphabet 2\na = id(a, a)\n", 3, "missing gens"),
        ("gens a\nalphabet 2\na = id(a, a)\n", 2, "alphabet line must come first"),
        ("alphabet 2\na = id(a, a)\ngens a\ngens a\n", 4, "duplicate gens"),
        ("alphabet 2\na = id(a)\ngens a\n", 2, "lists 1 sections"),
        ("alphabet 2\na = id(a, b)\ngens a\n", 2, "undefined state 'b'"),
        ("alphabet 2\na = id(a, a)\ngens b\n", 3, "undefined state 'b'"),
        ("alphabet 2\na = (0 2)(a, a)\ngens a\n", 2, "out of range"),
        ("alphabet 2\na = (0 0)(a, a)\ngens a\n", 2, "repeated"),
        ("alphabet 2\na = (a, a)\ngens a\n", 2, "missing permutation"),
        ("alphabet 2\na = ()(a, a)\ngens a\n", 2, "empty cycle"),
        ("alphabet 2\na = id(a, a)\na = id(a, a)\ngens a\n", 3, "duplicate state"),
        ("alphabet 2\n9x = id(a, a)\ngens a\n", 2, "bad state name"),
        ("alphabet 2\nnonsense\ngens a\n", 2, "cannot parse"),
        ("alphabet 2\n", 2, "no state definitions"),
        ("alphabet 2\na = (0 1)x(a, a)\ngens a\n", 2, "malformed permutation"),
        ("alphabet 2\na = (0 b)(a, a)\ngens a\n", 2, "cycle entries must be letters"),
        ("alphabet 2\na = id(a, a)\ngens\n", 3, "names no generators"),
        ("alphabet 2\na = id a, a)\ngens a\n", 2, "missing section list"),
        ("alphabet 2\na = id(a, a) x\ngens a\n", 2, "must end with a section list"),
        ("alphabet 2\na = id(a, 1b)\ngens a\n", 2, "bad section name"),
        ("alphabet 2\na = id()\ngens a\n", 2, "lists 0 sections"),
        ("gens a\n", 2, "missing alphabet line"),
    ],
)
def test_parse_errors_carry_position(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert fragment in err.value.message
    assert f"line {line}," in str(err.value)


def test_parse_error_is_a_value_error():
    assert issubclass(ParseError, ValueError)


def test_parse_error_column_points_at_offender():
    with pytest.raises(ParseError) as err:
        parse("alphabet 2\na = id(a, zz)\ngens a\n")
    assert err.value.col == 7  # the opening parenthesis of the section list


def test_serialize_round_trip_is_stable():
    doc = parse(BASILICA)
    text = serialize(doc)
    assert parse(text) == doc
    assert serialize(parse(text)) == text
    assert text.endswith("\n")


def test_round_trip_full_catalog():
    for entry in catalog_list():
        doc = entry.document()
        assert parse(serialize(doc)) == doc


def test_to_automaton_preserves_tables():
    doc = parse(BASILICA)
    aut, gens = to_automaton(doc)
    assert aut.names == ("a", "b", "id")
    assert [g.name for g in gens] == ["a", "b"]
    assert aut.sections[0] == (1, 2)
    assert aut.perms[0] == Permutation((1, 0))


def test_automaton_document_round_trip():
    doc = parse(BASILICA)
    aut, gens = to_automaton(doc)
    again = automaton_document(aut, gens, title=doc.title)
    assert again == doc


def test_automaton_document_defaults_to_all_states_as_gens():
    aut, _ = to_automaton(parse(BASILICA))
    doc = automaton_document(aut)
    assert doc.gens == ("a", "b", "id")


def test_automaton_document_rejects_unprintable_names():
    # a product state named "(a,b)" cannot be written in the grammar
    aut = MealyAutomaton(Alphabet(2), ("(a,b)",), (Permutation.identity(2),), ((0, 0),))
    with pytest.raises(ValueError):
        automaton_document(aut)


@pytest.mark.parametrize(
    "text, name",
    [
        ("alphabet 2\ngens = (0 1)(gens, gens)\ngens gens\n", "gens"),
        ("alphabet 1\nalphabet =id(alphabet)\ngens alphabet\n", "alphabet"),
        ("alphabet 2\ngens=(0 1)(gens, gens)\ngens gens\n", "gens"),
    ],
)
def test_a_line_with_equals_defines_a_state(text, name):
    doc = parse(text)
    assert [st.name for st in doc.states] == [name]
    assert doc.gens == (name,)


def test_round_trip_of_states_named_gens_and_alphabet():
    perms = (Permutation((1, 0)), Permutation.identity(2))
    aut = MealyAutomaton(Alphabet(2), ("gens", "alphabet"), perms, ((1, 0), (1, 1)))
    doc = automaton_document(aut)
    assert parse(serialize(doc)) == doc


def test_catalog_texts_parse_to_their_documents():
    entry = catalog_get("basilica")
    assert parse(entry.text) == entry.document()
