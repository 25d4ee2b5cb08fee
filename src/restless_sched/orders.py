"""Monotone likelihood ratio (MLR) and first-order stochastic dominance
comparators, plus the matrix-level orderings the optimality assumptions
are phrased in.

All comparisons use the division-free cross-product form so zero
probabilities never divide.  Every predicate threads a configurable
tolerance; the default matches the certification tolerance.

The myopic decision does not consult these orders: it is the
immediate-reward argmax in ``policy``.  With strictly increasing
rewards an MLR-greater belief has a strictly larger expected reward, so
on MLR-ordered profiles that argmax is the MLR-greatest project.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import DimensionMismatchError, IncomparablePairError
from .types import BeliefVector, ObservationMatrix, TransitionMatrix

DEFAULT_TOL = 1e-12


class Relation(enum.Enum):
    LESS_OR_EQUAL = "LessOrEqual"
    GREATER_OR_EQUAL = "GreaterOrEqual"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


@dataclass(frozen=True)
class OrderVerdict:
    relation: Relation
    #: 1-based index pair violating the tested inequality, when one exists.
    witness: Optional[tuple[int, int]] = None

    @property
    def le(self) -> bool:
        return self.relation in (Relation.LESS_OR_EQUAL, Relation.EQUAL)

    @property
    def ge(self) -> bool:
        return self.relation in (Relation.GREATER_OR_EQUAL, Relation.EQUAL)


def _verdict(ge: bool, le: bool, ge_witness, le_witness) -> OrderVerdict:
    if ge and le:
        return OrderVerdict(Relation.EQUAL)
    if ge:
        return OrderVerdict(Relation.GREATER_OR_EQUAL)
    if le:
        return OrderVerdict(Relation.LESS_OR_EQUAL)
    return OrderVerdict(Relation.INCOMPARABLE, witness=ge_witness or le_witness)


def _mlr_ge_arrays(x1: np.ndarray, x2: np.ndarray, tol: float):
    """x1 >=_r x2 test on raw arrays; returns (ok, witness)."""
    n = x1.size
    for i in range(1, n):
        for j in range(i):
            # i > j: require x1(i) x2(j) >= x2(i) x1(j)
            if x1[i] * x2[j] < x2[i] * x1[j] - tol:
                return False, (i + 1, j + 1)
    return True, None


def mlr_compare(x1: BeliefVector, x2: BeliefVector, tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Compare two beliefs in the monotone likelihood ratio order."""
    if x1.dim != x2.dim:
        raise DimensionMismatchError(f"dims {x1.dim} and {x2.dim} differ")
    ge, gw = _mlr_ge_arrays(x1.probs, x2.probs, tol)
    le, lw = _mlr_ge_arrays(x2.probs, x1.probs, tol)
    return _verdict(ge, le, gw, lw)


def _fosd_ge_arrays(x1: np.ndarray, x2: np.ndarray, tol: float):
    t1 = np.cumsum(x1[::-1])[::-1]
    t2 = np.cumsum(x2[::-1])[::-1]
    bad = np.nonzero(t1 < t2 - tol)[0]
    if bad.size:
        j = int(bad[0])
        return False, (j + 1, j + 1)
    return True, None


def fosd_compare(x1: BeliefVector, x2: BeliefVector, tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Compare two beliefs by first-order stochastic dominance (tail sums)."""
    if x1.dim != x2.dim:
        raise DimensionMismatchError(f"dims {x1.dim} and {x2.dim} differ")
    ge, gw = _fosd_ge_arrays(x1.probs, x2.probs, tol)
    le, lw = _fosd_ge_arrays(x2.probs, x1.probs, tol)
    return _verdict(ge, le, gw, lw)


def rows_mlr_ordered(
    A: TransitionMatrix, direction: str = "ascending", tol: float = DEFAULT_TOL
) -> OrderVerdict:
    """Check the TP2-style row ordering of a transition matrix.

    ``ascending`` passes iff row_i <=_r row_{i+1} for all i; ``descending``
    iff row_i >=_r row_{i+1}.  The verdict's witness names the first
    offending adjacent row pair (1-based).
    """
    if direction not in ("ascending", "descending"):
        raise ValueError(f"direction must be ascending or descending, got {direction!r}")
    rows = A.rows
    for i in range(rows.shape[0] - 1):
        lo, hi = rows[i], rows[i + 1]
        if direction == "descending":
            lo, hi = hi, lo
        ok, _ = _mlr_ge_arrays(hi, lo, tol)
        if not ok:
            return OrderVerdict(Relation.INCOMPARABLE, witness=(i + 1, i + 2))
    return OrderVerdict(
        Relation.GREATER_OR_EQUAL if direction == "descending" else Relation.LESS_OR_EQUAL
    )


def obs_columns_mlr_ordered(B: ObservationMatrix, tol: float = DEFAULT_TOL) -> OrderVerdict:
    """Check that observation likelihood columns are MLR-ascending.

    Passes iff b_{im} b_{jk} >= b_{jm} b_{ik} - tol for every k < m and
    i > j, i.e. the likelihood ratio of higher observations is
    nondecreasing in the hidden state.
    """
    rows = B.rows
    X, Y = rows.shape
    for m in range(1, Y):
        for k in range(m):
            for i in range(1, X):
                for j in range(i):
                    if rows[i, m] * rows[j, k] < rows[j, m] * rows[i, k] - tol:
                        return OrderVerdict(Relation.INCOMPARABLE, witness=(i + 1, j + 1))
    return OrderVerdict(Relation.LESS_OR_EQUAL)


def _sort_arrays_by_mlr(beliefs: Sequence[np.ndarray], tol: float) -> list[int]:
    """Insertion sort, MLR-descending, stable; 0-based result.

    Raises IncomparablePairError (with 1-based original indices) as soon
    as two elements that must be compared are incomparable.
    """
    order: list[int] = []
    for idx in range(len(beliefs)):
        pos = len(order)
        while pos > 0:
            prev = order[pos - 1]
            ge, _ = _mlr_ge_arrays(beliefs[prev], beliefs[idx], tol)
            if ge:
                break
            le, _ = _mlr_ge_arrays(beliefs[idx], beliefs[prev], tol)
            if not le:
                raise IncomparablePairError(prev + 1, idx + 1)
            pos -= 1
        order.insert(pos, idx)
    return order


def sort_by_mlr(
    beliefs: Sequence[BeliefVector], tol: float = DEFAULT_TOL
) -> tuple[int, ...]:
    """Permutation sigma (1-based) with x[sigma_1] >=_r ... >=_r x[sigma_N].

    Stable: original order is preserved among MLR-equal elements.  Raises
    IncomparablePairError when the ranking premise is violated.
    """
    arrays = [b.probs for b in beliefs]
    return tuple(i + 1 for i in _sort_arrays_by_mlr(arrays, tol))
