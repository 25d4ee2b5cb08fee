"""The monotone likelihood ratio (MLR) order and the matrix-level
orderings the optimality assumptions are phrased in.

Every MLR test is one predicate, ``_mlr_witness``, in the
division-free cross-product form so zero probabilities never divide.
Chains of vectors, the rows of A and the initial-belief chain, are
walked by ``chain_break``; the observation columns of B, pair by pair,
by ``column_break``.  Every test allows the fixed slack ``ORDER_TOL``,
the certification tolerance.

The myopic decision does not consult these orders: it is the
immediate-reward argmax in ``policy``.  With strictly increasing
rewards an MLR-greater belief has a strictly larger expected reward, so
on MLR-ordered profiles that argmax is the MLR-greatest project.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .exceptions import IncomparablePairError
from .types import BeliefVector, ObservationMatrix

#: Slack allowed in every MLR cross product.
ORDER_TOL = 1e-12


def _mlr_witness(x1: np.ndarray, x2: np.ndarray) -> Optional[tuple[int, int]]:
    """First 1-based pair (i, j), i > j, breaking x1 >=_r x2, i.e. with
    x1(i) x2(j) < x2(i) x1(j) - ORDER_TOL; None when x1 >=_r x2."""
    # Python floats multiply and subtract exactly as numpy's float64 does.
    a, b = x1.tolist(), x2.tolist()
    for i in range(1, len(a)):
        for j in range(i):
            if a[i] * b[j] < b[i] * a[j] - ORDER_TOL:
                return i + 1, j + 1
    return None


def chain_break(chain: Sequence[np.ndarray], descending: bool = False) -> Optional[int]:
    """0-based k of the first link with chain[k] <=_r chain[k+1] failing
    (chain[k] >=_r chain[k+1] when ``descending``); None for an ordered chain."""
    for k in range(len(chain) - 1):
        lo, hi = chain[k], chain[k + 1]
        if descending:
            lo, hi = hi, lo
        if _mlr_witness(hi, lo) is not None:
            return k
    return None


def column_break(B: ObservationMatrix) -> Optional[tuple[int, int]]:
    """First failing 1-based state pair (i, j) of the column order:
    column m >=_r column k for every k < m, i.e. the likelihood ratio of
    a higher observation is nondecreasing in the hidden state.  None
    when every pair of columns passes."""
    cols = B.rows.T
    for m in range(1, len(cols)):
        for k in range(m):
            witness = _mlr_witness(cols[m], cols[k])
            if witness is not None:
                return witness
    return None


def sort_by_mlr(beliefs: Sequence[BeliefVector]) -> tuple[int, ...]:
    """Permutation sigma (1-based) with x[sigma_1] >=_r ... >=_r x[sigma_N].

    A stable insertion sort: original order is preserved among MLR-equal
    elements.  Raises IncomparablePairError (with 1-based original
    indices) as soon as two elements that must be compared are
    incomparable.
    """
    arrays = [b.probs for b in beliefs]
    order: list[int] = []
    for idx, x in enumerate(arrays):
        pos = len(order)
        while pos > 0:
            prev = order[pos - 1]
            if _mlr_witness(arrays[prev], x) is None:
                break
            if _mlr_witness(x, arrays[prev]) is not None:
                raise IncomparablePairError(prev + 1, idx + 1)
            pos -= 1
        order.insert(pos, idx)
    return tuple(i + 1 for i in order)
