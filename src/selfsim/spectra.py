"""Spectrum of the random walk on a level graph.

The operator is the symmetrized Markov average over the generator set,
M = (1 / 2|S|) * sum_s (P_s + P_s^T), a doubly stochastic symmetric matrix,
so its spectrum lies in [-1, 1] with top eigenvalue 1 of multiplicity equal
to the number of connected components.

spectrum hands eigvalsh only M's lower triangle, strict upper triangle zero:
eigvalsh reads that triangle and no other (UPLO='L'), so it sees the numbers
of markov_operator's lower triangle and returns the same eigenvalues, bit for
bit. The triangle is written into a private anonymous mapping, not np.zeros:
a page that no nonzero lands in is never written and stays unmapped, and
eigvalsh's own copy reads it through the kernel's shared zero page, so only
the copy and the pages the nonzeros touch are resident. numpy asks for 2 MiB
huge pages on arrays of 4 MiB or more, so one nonzero would make a whole huge
page resident; the mapping declines them where the platform can say so.
"""

from __future__ import annotations

import mmap

import numpy as np

from .core import _starts
from .schreier import LabeledSchreierGraph, _refuse_over

DENSE_LIMIT = 4096


def _check_dense(k: int, n: int, output: str) -> None:
    """Refuse a dense output, a spectrum or a matrix export, of more than DENSE_LIMIT vertices, k^n on level n."""
    _refuse_over(DENSE_LIMIT, k, range(n, n + 1), f"dense {output} limited to {{limit}} vertices, got {{count}}")


def _lower_operator(graph: LabeledSchreierGraph) -> np.ndarray:
    """The lower triangle of the walk operator, its strict upper triangle zero, writing only its nonzeros.

    Both arrows of a pair (v, img[v]) land on entry (max, min): a loop counts
    2 there and any other arrow 1, so each entry is an exact integer count
    until it is divided, once, by 2|S|.
    """
    total = graph.vertex_count
    _check_dense(graph.alphabet_size, graph.level, "spectrum")
    buffer = mmap.mmap(-1, total * total * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    lower = np.frombuffer(buffer, dtype=np.float64).reshape(total, total)
    src = np.arange(total)
    # flat index of (max, min) for each arrow, and a loop's second arrow again on its diagonal entry
    keys = np.sort(np.concatenate(
        [np.maximum(src, img) * total + np.minimum(src, img) for img in graph.images]
        + [src[img == src] * (total + 1) for img in graph.images]
    ))
    start = np.flatnonzero(_starts(keys))
    counts = np.diff(start, append=len(keys))
    lower.reshape(-1)[keys[start]] = counts / (2 * len(graph.images))
    return lower


def markov_operator(graph: LabeledSchreierGraph) -> np.ndarray:
    """The walk operator as a dense array, (arrows + arrows^T) / 2|S|.

    arrows[v, w] counts the generators s with s(v) = w. Each entry is an
    exact integer count divided once by 2|S|, so the array is exactly
    symmetric, and its bytes are those of (arrows + arrows.T) / (2 * |S|).
    """
    lower = _lower_operator(graph)
    # mirror the nonzeros: adding a transpose reads the matrix by column, several times slower at DENSE_LIMIT
    rows, cols = np.nonzero(lower)
    M = np.zeros(lower.shape)
    M[rows, cols] = M[cols, rows] = lower[rows, cols]
    return M


def spectrum(graph: LabeledSchreierGraph) -> np.ndarray:
    """Eigenvalues of the symmetrized walk operator, sorted descending."""
    return np.linalg.eigvalsh(_lower_operator(graph))[::-1]


def eigenvalue_multiplicity(values: np.ndarray, value: float = 1.0, tol: float = 1e-9) -> int:
    return int(np.sum(np.abs(np.asarray(values) - value) <= tol))
