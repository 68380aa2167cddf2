"""Spectrum of the random walk on a level graph.

The operator is the symmetrized Markov average over the generator set,
M = (1 / 2|S|) * sum_s (P_s + P_s^T), a doubly stochastic symmetric matrix,
so its spectrum lies in [-1, 1] with top eigenvalue 1 of multiplicity equal
to the number of connected components.
"""

from __future__ import annotations

import numpy as np

from .schreier import LabeledSchreierGraph, ResourceCapError

DENSE_LIMIT = 4096


def markov_operator(graph: LabeledSchreierGraph) -> np.ndarray:
    total = graph.vertex_count
    if total > DENSE_LIMIT:
        raise ResourceCapError(
            f"dense spectrum limited to {DENSE_LIMIT} vertices, got {total}"
        )
    # arrow counts: an integer matrix plus its transpose is exactly symmetric
    arrows = np.zeros((total, total))
    src = np.arange(total)
    for img in graph.images:
        np.add.at(arrows, (src, img), 1.0)
    M = arrows + arrows.T
    M /= 2 * len(graph.images)
    return M


def spectrum(graph: LabeledSchreierGraph) -> np.ndarray:
    """Eigenvalues of the symmetrized walk operator, sorted descending."""
    return np.linalg.eigvalsh(markov_operator(graph))[::-1]


def eigenvalue_multiplicity(values: np.ndarray, value: float = 1.0, tol: float = 1e-9) -> int:
    return int(np.sum(np.abs(np.asarray(values) - value) <= tol))
