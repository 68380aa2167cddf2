"""Built-in recursion catalog: entries, expected properties, mother family."""

import random
from dataclasses import replace

import pytest

from selfsim import (
    CatalogEntry,
    GroupWord,
    Permutation,
    RecursionDocument,
    StateDef,
    UnknownEntryError,
    catalog_get,
    catalog_list,
    check_entry,
    mother_document,
    parse,
    serialize,
    to_automaton,
)

from ._oracles import canonicalize_by_tuples, reduced_words

EXPECTED_KEYS = {
    "basilica",
    "aleshin",
    "aut882",
    "aut878",
    "aut2853",
    "z2",
    "virtually-z3",
    "half-basilica",
    "lamplighter",
    "long-range",
    "sierpinski",
    "sierpinski-alt",
    "grigorchuk",
    "hanoi",
    "odometer",
    "identity",
    "mother-1-2",
    "mother-1-3",
    "mother-2-2",
    "mother-2-3",
    "mother-3-2",
    "mother-3-3",
}


def test_catalog_keys():
    entries = catalog_list()
    keys = [e.key for e in entries]
    assert len(keys) == len(set(keys))
    assert set(keys) == EXPECTED_KEYS


def test_catalog_get_matches_list():
    for entry in catalog_list():
        assert catalog_get(entry.key) is entry


def test_unknown_key_raises():
    with pytest.raises(UnknownEntryError):
        catalog_get("nope")
    with pytest.raises(KeyError):
        catalog_get("nope")
    try:
        catalog_get("nope")
    except UnknownEntryError as exc:
        assert "known keys" in exc.args[0]


def test_every_entry_parses_and_builds():
    for entry in catalog_list():
        doc = entry.document()
        assert doc.alphabet_size >= 2
        aut, gens = entry.automaton()
        assert len(gens) >= 1
        assert entry.title
        assert entry.note
        assert parse(serialize(doc)) == doc


def test_every_entry_declares_expectations():
    kinds = {
        "connected_upto",
        "components_at",
        "contracting",
        "not_contracting_within",
        "special",
        "free_reduced_upto",
        "order2_generators",
        "recurrent",
    }
    for entry in catalog_list():
        assert entry.expected, entry.key
        for prop in entry.expected:
            assert prop[0] in kinds, (entry.key, prop)


def test_literature_entries_flagged():
    from_paper = {e.key: e.from_paper for e in catalog_list()}
    assert from_paper["grigorchuk"] is False
    assert from_paper["hanoi"] is False
    assert from_paper["basilica"] is True
    assert from_paper["aleshin"] is True


def test_mother_document_structure():
    doc = mother_document(2, 2)
    # one identity state, then per nontrivial permutation (one for m=2):
    # a(-1), a(0..2), b(0..2)
    names = [st.name for st in doc.states]
    assert names[0] == "e"
    assert len(names) == 1 + 1 + 3 + 3
    assert doc.gens == ("am1_10", "a0_10", "a1_10", "a2_10", "b0_10", "b1_10", "b2_10")
    by_name = {st.name: st for st in doc.states}
    # a states carry the predecessor in position 1, themselves in position 0
    assert by_name["a2_10"].sections == ("a2_10", "a1_10")
    assert by_name["a0_10"].sections == ("a0_10", "am1_10")
    assert by_name["am1_10"].sections == ("e", "e")
    assert by_name["a2_10"].perm.is_identity  # a(k) states act trivially at the root
    assert not by_name["am1_10"].perm.is_identity
    # b0 keeps the root permutation and recurses on itself at letter 0
    assert not by_name["b0_10"].perm.is_identity
    assert by_name["b0_10"].sections == ("b0_10", "e")
    assert by_name["b2_10"].sections == ("b2_10", "b1_10")


def test_mother_document_ternary_counts():
    doc = mother_document(1, 3)
    # five nontrivial permutations of three letters
    assert doc.alphabet_size == 3
    per_perm = 1 + 2 + 2  # a(-1), a(0..1), b(0..1)
    assert len(doc.states) == 1 + 5 * per_perm
    assert len(doc.gens) == 5 * per_perm


def test_mother_document_validation():
    for d, m in ((0, 2), (4, 2), (1, 1), (1, 4)):
        with pytest.raises(ValueError):
            mother_document(d, m)


def test_mother_entries_match_generator():
    entry = catalog_get("mother-2-3")
    assert entry.document() == mother_document(2, 3)


def test_sierpinski_variants_differ():
    a = catalog_get("sierpinski").document()
    b = catalog_get("sierpinski-alt").document()
    assert a.alphabet_size == b.alphabet_size == 3
    assert a != b


def test_check_entry_runs_quick_entries_clean():
    for key in ("basilica", "odometer", "identity", "grigorchuk", "z2"):
        results = check_entry(catalog_get(key))
        assert results
        for description, ok in results:
            assert ok, (key, description)


def test_check_all_entries_pass():
    for entry in catalog_list():
        for description, ok in check_entry(entry):
            assert ok, (entry.key, description)


def _checked(entry, *expected):
    """The verdict of each expected property on the entry's recursion."""
    return [ok for _, ok in check_entry(replace(entry, expected=expected))]


def test_check_entry_negative_paths():
    z2, grigorchuk = catalog_get("z2"), catalog_get("grigorchuk")
    # z2's generators commute: distinct and of infinite order, but a b a^-1 b^-1 = 1
    assert _checked(z2, ("free_reduced_upto", 2), ("free_reduced_upto", 4)) == [True, False]
    assert _checked(grigorchuk, ("free_reduced_upto", 2)) == [False]
    assert _checked(z2, ("order2_generators",)) == [False]
    assert _checked(grigorchuk, ("order2_generators",)) == [True]


def test_recurrent_expectation_needs_a_decided_verdict():
    # is_recurrent is inconclusive on aleshin and virtually-z3 at its default length
    assert _checked(catalog_get("aleshin"), ("recurrent", False)) == [False]
    assert _checked(catalog_get("virtually-z3"), ("recurrent", False), ("recurrent", True)) == [False, False]
    assert _checked(catalog_get("identity"), ("recurrent", False), ("recurrent", True)) == [True, False]
    assert _checked(catalog_get("basilica"), ("recurrent", False), ("recurrent", True)) == [False, True]


def _random_entry(rng):
    # generators s<i> and an identity state e, so that involutions and short relations occur
    k = rng.choice((2, 3))
    gens = [f"s{i}" for i in range(rng.randint(1, 3))]
    names = ["e", *gens]
    states = [StateDef("e", Permutation(tuple(range(k))), ("e",) * k)]
    states += [
        StateDef(name, Permutation(tuple(rng.sample(range(k), k))), tuple(rng.choice(names) for _ in range(k)))
        for name in gens
    ]
    doc = RecursionDocument(k, tuple(states), tuple(gens))
    return CatalogEntry("generated", serialize(doc), "generated", False)


def test_free_and_involution_checks_match_word_enumeration_on_generated_automata():
    rng = random.Random(11)
    outcomes = set()
    for _ in range(40):
        entry = _random_entry(rng)
        _, gens = entry.automaton()
        basis = tuple(gens)
        lengths = (2, 4) if len(gens) < 3 else (2,)
        checked = _checked(entry, ("order2_generators",), *(("free_reduced_upto", n) for n in lengths))
        expected = [all(canonicalize_by_tuples(GroupWord(basis, ((i, 1), (i, 1)))).is_identity for i in range(len(gens)))]
        expected += [
            not any(canonicalize_by_tuples(GroupWord(basis, w)).is_identity for w in reduced_words(len(gens), n))
            for n in lengths
        ]
        assert checked == expected, entry.text
        outcomes.update(zip(("order2", *lengths), checked))
    assert outcomes == {(name, ok) for name in ("order2", 2, 4) for ok in (True, False)}
