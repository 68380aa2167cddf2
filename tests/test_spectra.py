"""Random walk operator and its spectrum on level graphs."""

import numpy as np
import pytest

from selfsim import (
    ResourceCapError,
    build_schreier,
    catalog_get,
    connected_components,
    eigenvalue_multiplicity,
    markov_operator,
    spectrum,
    to_automaton,
)


def _graph(key, n):
    gens = to_automaton(catalog_get(key).document())[1]
    return build_schreier(gens, n)


def test_markov_operator_is_symmetric_doubly_stochastic():
    for key, n in (("basilica", 4), ("grigorchuk", 3), ("sierpinski", 3)):
        M = markov_operator(_graph(key, n))
        # spectrum hands the matrix to eigvalsh, which reads one triangle, so symmetry must be exact
        assert np.array_equal(M, M.T)
        assert np.allclose(M.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(M.sum(axis=1), 1.0, atol=1e-12)
        assert (M >= 0).all()


def test_markov_operator_entries_count_arrows():
    M = markov_operator(_graph("basilica", 1))
    # level 1: a swaps 0 and 1, b fixes both; 2|S| = 4
    assert np.allclose(M, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_spectrum_sorted_and_bounded():
    vals = spectrum(_graph("basilica", 5))
    assert len(vals) == 32
    assert (np.diff(vals) <= 1e-12).all()
    assert vals[0] == pytest.approx(1.0, abs=1e-9)
    assert (vals <= 1 + 1e-9).all()
    assert (vals >= -1 - 1e-9).all()


def test_basilica_level_two_spectrum_exact():
    vals = spectrum(_graph("basilica", 2))
    expected = [1.0, np.sqrt(2) / 2, 0.0, -np.sqrt(2) / 2]
    assert np.allclose(vals, expected, atol=1e-9)


def test_identity_action_spectrum_is_all_ones():
    vals = spectrum(_graph("identity", 3))
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_top_multiplicity_counts_components():
    for key, n in (("basilica", 4), ("identity", 3), ("aleshin", 4), ("sierpinski", 3)):
        g = _graph(key, n)
        vals = spectrum(g)
        assert eigenvalue_multiplicity(vals, 1.0) == len(connected_components(g))


def test_eigenvalue_multiplicity_tolerance():
    vals = np.array([1.0, 1.0 - 1e-10, 0.5, -1.0])
    assert eigenvalue_multiplicity(vals, 1.0) == 2
    assert eigenvalue_multiplicity(vals, 1.0, tol=1e-12) == 1
    assert eigenvalue_multiplicity(vals, -1.0) == 1


def test_spectrum_deterministic():
    a = spectrum(_graph("grigorchuk", 4))
    b = spectrum(_graph("grigorchuk", 4))
    assert (a == b).all()


def test_dense_limit_enforced():
    with pytest.raises(ResourceCapError):
        spectrum(_graph("basilica", 13))
    assert len(spectrum(_graph("basilica", 12))) == 4096
