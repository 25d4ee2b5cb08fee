"""Per-clause verification of the two sufficient-condition regimes.

Regime 1 (ascending transition rows) and regime 2 (descending rows)
each consist of five clauses: row order, observation-column order, the
observation threshold K, the initial-belief chain, and reward
separation.  All clauses are always evaluated so reports are complete.

The printed form of clause 3's second inequality compares against the
two-step image of e_1 in regime 1 but of e_X in regime 2; the asymmetry
is suspicious, so ``alt_clause3`` switches each regime to the mirrored
reference vector instead of guessing which reading was intended.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ComplexSpectrumError, NonDiagonalizableError
from .filtering import LIKELIHOOD_FLOOR, _filter_from_propagated
from .orders import (
    DEFAULT_TOL,
    _mlr_ge_arrays,
    obs_columns_mlr_ordered,
    rows_mlr_ordered,
)
from .spectral import discount_matrices, eigendecompose, reward_separation_check
from .types import ModelInstance, ObservationMatrix, TransitionMatrix


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    #: "Assumption1", "Assumption2", or "Neither".
    regime: str
    clause_results: tuple[ClauseResult, ...]
    #: Observation threshold found by clause 3, when it passed.
    K: Optional[int] = None

    @property
    def satisfied(self) -> bool:
        return self.regime != "Neither"

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "K": self.K,
            "clauses": [
                {"clause": c.clause, "passed": c.passed, "detail": c.detail}
                for c in self.clause_results
            ],
        }


def _filter_of(A_T: np.ndarray, B: np.ndarray, x: np.ndarray, m0: int):
    """T(x, m) on raw arrays, or None when the observation is impossible."""
    z = A_T @ x
    d = float(B[:, m0] @ z)
    if d <= LIKELIHOOD_FLOOR:
        return None
    return _filter_from_propagated(B, z, m0, d)


def find_threshold_K(
    A: TransitionMatrix,
    B: ObservationMatrix,
    regime: int,
    alt_clause3: bool = False,
    tol: float = DEFAULT_TOL,
) -> Optional[int]:
    """Scan K = 2..Y for the clause-3 observation threshold.

    Regime 1 asks T(A'e_1, K) >=_r (A')^2 e_1 and T(A'e_X, K-1) <=_r
    (A')^2 e_1; regime 2 asks T(A'e_X, K) <=_r (A')^2 e_X and
    T(A'e_1, K-1) >=_r (A')^2 e_X.  ``alt_clause3`` swaps the reference
    vector of the second inequality (e_X <-> e_1).  Candidates whose
    filter branch has zero likelihood are skipped.
    """
    if regime not in (1, 2):
        raise ValueError(f"regime must be 1 or 2, got {regime}")
    A_T = A.rows.T
    Bm = B.rows
    X, Y = Bm.shape
    e_lo = np.zeros(X)
    e_lo[0] = 1.0
    e_hi = np.zeros(X)
    e_hi[-1] = 1.0
    z_lo = A_T @ e_lo  # A' e_1
    z_hi = A_T @ e_hi  # A' e_X
    zz_lo = A_T @ z_lo  # (A')^2 e_1
    zz_hi = A_T @ z_hi  # (A')^2 e_X

    for K in range(2, Y + 1):
        if regime == 1:
            first = _filter_of(A_T, Bm, z_lo, K - 1)
            second = _filter_of(A_T, Bm, z_hi, K - 2)
            ref = zz_hi if alt_clause3 else zz_lo
            if first is None or second is None:
                continue
            ok1, _ = _mlr_ge_arrays(first, zz_lo, tol)
            ok2, _ = _mlr_ge_arrays(ref, second, tol)
        else:
            first = _filter_of(A_T, Bm, z_hi, K - 1)
            second = _filter_of(A_T, Bm, z_lo, K - 2)
            ref = zz_lo if alt_clause3 else zz_hi
            if first is None or second is None:
                continue
            ok1, _ = _mlr_ge_arrays(zz_hi, first, tol)
            ok2, _ = _mlr_ge_arrays(second, ref, tol)
        if ok1 and ok2:
            return K
    return None


def _belief_chain_result(inst: ModelInstance, regime: int, tol: float) -> ClauseResult:
    """Clause 4: initial beliefs chained between the extreme rows of A."""
    rows = inst.A.rows
    chain = [rows[0]] + [x.probs for x in inst.initial_beliefs] + [rows[-1]]
    labels = ["A_1"] + [f"x0[{n}]" for n in range(1, inst.n_projects + 1)] + ["A_X"]
    clause = f"{regime}.4"
    for k in range(len(chain) - 1):
        lo, hi = chain[k], chain[k + 1]
        if regime == 2:
            lo, hi = hi, lo
        ok, _ = _mlr_ge_arrays(hi, lo, tol)
        if not ok:
            op = ">=_r" if regime == 2 else "<=_r"
            return ClauseResult(clause, False, f"{labels[k]} {op} {labels[k + 1]} fails")
    return ClauseResult(clause, True)


def _separation_result(inst: ModelInstance, regime: int) -> ClauseResult:
    clause = f"{regime}.5"
    try:
        dec = eigendecompose(inst.A)
    except (ComplexSpectrumError, NonDiagonalizableError) as e:
        return ClauseResult(clause, False, f"spectral failure: {e}")
    disc = discount_matrices(dec, inst.beta)
    sep = reward_separation_check(inst.R, disc.Q)
    if sep.passed:
        return ClauseResult(clause, True, f"min margin {sep.margins.min():.3e}")
    return ClauseResult(
        clause, False, f"separation fails at states {sep.witness}, margin {sep.margins.min():.3e}"
    )


def _verify(
    inst: ModelInstance, regime: int, alt_clause3: bool, tol: float
) -> AssumptionReport:
    direction = "ascending" if regime == 1 else "descending"
    results = []

    v1 = rows_mlr_ordered(inst.A, direction, tol)
    ok1 = v1.relation.value != "Incomparable"
    results.append(
        ClauseResult(
            f"{regime}.1",
            ok1,
            "" if ok1 else f"rows {v1.witness} break the {direction} MLR order",
        )
    )

    v2 = obs_columns_mlr_ordered(inst.B, tol)
    ok2 = v2.relation.value != "Incomparable"
    results.append(
        ClauseResult(
            f"{regime}.2",
            ok2,
            "" if ok2 else f"observation columns unordered at states {v2.witness}",
        )
    )

    K = find_threshold_K(inst.A, inst.B, regime, alt_clause3, tol)
    results.append(
        ClauseResult(
            f"{regime}.3",
            K is not None,
            f"K={K}" if K is not None else "no threshold K in 2..Y",
        )
    )

    results.append(_belief_chain_result(inst, regime, tol))
    results.append(_separation_result(inst, regime))

    all_pass = all(c.passed for c in results)
    return AssumptionReport(
        regime=f"Assumption{regime}" if all_pass else "Neither",
        clause_results=tuple(results),
        K=K,
    )


def verify_assumption1(
    inst: ModelInstance, alt_clause3: bool = False, tol: float = DEFAULT_TOL
) -> AssumptionReport:
    """Full clause 1.1-1.5 report for the ascending regime."""
    return _verify(inst, 1, alt_clause3, tol)


def verify_assumption2(
    inst: ModelInstance, alt_clause3: bool = False, tol: float = DEFAULT_TOL
) -> AssumptionReport:
    """Full clause 2.1-2.5 report for the descending regime."""
    return _verify(inst, 2, alt_clause3, tol)
