"""Monotone likelihood ratio (MLR) and first-order stochastic dominance
comparators, plus the matrix-level orderings the optimality assumptions
are phrased in.

Every MLR test is one predicate, ``_mlr_witness``, in the
division-free cross-product form so zero probabilities never divide;
chains of vectors are walked by ``chain_break``.  Both orders allow the
fixed slack ``ORDER_TOL``, the certification tolerance.

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

#: Slack allowed in every MLR cross product and FOSD tail comparison.
ORDER_TOL = 1e-12


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


def _verdict(ge_witness, le_witness) -> OrderVerdict:
    """Verdict of x1 vs x2 from the witnesses against x1 >= x2 and x1 <= x2."""
    if ge_witness is None:
        return OrderVerdict(Relation.EQUAL if le_witness is None else Relation.GREATER_OR_EQUAL)
    if le_witness is None:
        return OrderVerdict(Relation.LESS_OR_EQUAL)
    return OrderVerdict(Relation.INCOMPARABLE, witness=ge_witness)


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


def _check_dims(x1: BeliefVector, x2: BeliefVector) -> None:
    if x1.dim != x2.dim:
        raise DimensionMismatchError(f"dims {x1.dim} and {x2.dim} differ")


def mlr_compare(x1: BeliefVector, x2: BeliefVector) -> OrderVerdict:
    """Compare two beliefs in the monotone likelihood ratio order."""
    _check_dims(x1, x2)
    return _verdict(_mlr_witness(x1.probs, x2.probs), _mlr_witness(x2.probs, x1.probs))


def _fosd_witness(x1: np.ndarray, x2: np.ndarray) -> Optional[tuple[int, int]]:
    """(j, j) for the first 1-based j whose tail sum breaks x1 >=_st x2."""
    t1 = np.cumsum(x1[::-1])[::-1]
    t2 = np.cumsum(x2[::-1])[::-1]
    bad = np.nonzero(t1 < t2 - ORDER_TOL)[0]
    if bad.size:
        j = int(bad[0])
        return j + 1, j + 1
    return None


def fosd_compare(x1: BeliefVector, x2: BeliefVector) -> OrderVerdict:
    """Compare two beliefs by first-order stochastic dominance (tail sums)."""
    _check_dims(x1, x2)
    return _verdict(_fosd_witness(x1.probs, x2.probs), _fosd_witness(x2.probs, x1.probs))


def rows_mlr_ordered(A: TransitionMatrix, direction: str = "ascending") -> OrderVerdict:
    """Check the TP2-style row ordering of a transition matrix.

    ``ascending`` passes iff row_i <=_r row_{i+1} for all i; ``descending``
    iff row_i >=_r row_{i+1}.  The verdict's witness names the first
    offending adjacent row pair (1-based).
    """
    if direction not in ("ascending", "descending"):
        raise ValueError(f"direction must be ascending or descending, got {direction!r}")
    descending = direction == "descending"
    k = chain_break(A.rows, descending)
    if k is not None:
        return OrderVerdict(Relation.INCOMPARABLE, witness=(k + 1, k + 2))
    return OrderVerdict(Relation.GREATER_OR_EQUAL if descending else Relation.LESS_OR_EQUAL)


def obs_columns_mlr_ordered(B: ObservationMatrix) -> OrderVerdict:
    """Check that observation likelihood columns are MLR-ascending.

    Passes iff column m >=_r column k for every k < m, i.e. the
    likelihood ratio of higher observations is nondecreasing in the
    hidden state; the witness is the first failing state pair (i, j).
    """
    cols = B.rows.T
    for m in range(1, len(cols)):
        for k in range(m):
            witness = _mlr_witness(cols[m], cols[k])
            if witness is not None:
                return OrderVerdict(Relation.INCOMPARABLE, witness=witness)
    return OrderVerdict(Relation.LESS_OR_EQUAL)


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
