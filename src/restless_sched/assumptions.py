"""Per-clause verification of the two sufficient-condition regimes.

Regime 1 (ascending transition rows) and regime 2 (descending rows)
each consist of five clauses: row order, observation-column order, the
observation threshold K, the initial-belief chain, and reward
separation.  All clauses are always evaluated so reports are complete.
Each regime-2 order clause is its regime-1 clause with the order
reversed, on the same MLR predicate and chain walker (``orders``).

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
from .filtering import filter_rows, propagate_rows
from .orders import chain_break, obs_columns_mlr_ordered, rows_mlr_ordered
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


def find_threshold_K(
    A: TransitionMatrix, B: ObservationMatrix, regime: int, alt_clause3: bool = False
) -> Optional[int]:
    """Scan K = 2..Y for the clause-3 observation threshold.

    Regime 1 asks T(A'e_1, K) >=_r (A')^2 e_1 and T(A'e_X, K-1) <=_r
    (A')^2 e_1.  Regime 2 is its mirror image: e_1 and e_X swap and both
    inequalities reverse, so it asks T(A'e_X, K) <=_r (A')^2 e_X and
    T(A'e_1, K-1) >=_r (A')^2 e_X.  ``alt_clause3`` swaps the reference
    vector of the second inequality (e_X <-> e_1).  Candidates whose
    filter branch has zero likelihood are skipped.
    """
    if regime not in (1, 2):
        raise ValueError(f"regime must be 1 or 2, got {regime}")
    A_T = A.rows.T
    e = np.eye(B.n_states)
    # ``near`` is e_1 in regime 1 and e_X in regime 2; ``far`` the other.
    ends = e[[0, -1]] if regime == 1 else e[[-1, 0]]
    # T(A'e, m) filters the two-step image (A')^2 e, which is also the
    # reference vector: (A')^2 e_near, or (A')^2 e_far under ``alt_clause3``.
    zz = propagate_rows(A_T, propagate_rows(A_T, ends[None]))
    _, live, filtered = filter_rows(zz, B.rows)
    zz_near, zz_far = zz[0]
    ref = zz_far if alt_clause3 else zz_near
    descending = regime == 2

    for K in range(2, B.n_obs + 1):
        if not (live[0, 0, K - 1] and live[0, 1, K - 2]):
            continue
        first, second = filtered[:, K - 1, 0, 0], filtered[:, K - 2, 0, 1]
        # Regime 1: (A')^2 e_1 <=_r first and second <=_r ref; regime 2 reverses both.
        if all(chain_break(pair, descending) is None for pair in ((zz_near, first), (second, ref))):
            return K
    return None


def _belief_chain_result(inst: ModelInstance, regime: int) -> ClauseResult:
    """Clause 4: initial beliefs chained between the extreme rows of A."""
    rows = inst.A.rows
    chain = [rows[0]] + [x.probs for x in inst.initial_beliefs] + [rows[-1]]
    clause = f"{regime}.4"
    k = chain_break(chain, regime == 2)
    if k is None:
        return ClauseResult(clause, True)
    labels = ["A_1"] + [f"x0[{n}]" for n in range(1, inst.n_projects + 1)] + ["A_X"]
    op = ">=_r" if regime == 2 else "<=_r"
    return ClauseResult(clause, False, f"{labels[k]} {op} {labels[k + 1]} fails")


def _separation_result(inst: ModelInstance, regime: int) -> ClauseResult:
    clause = f"{regime}.5"
    try:
        dec = eigendecompose(inst.A)
    except (ComplexSpectrumError, NonDiagonalizableError) as e:
        return ClauseResult(clause, False, f"spectral failure: {e}")
    disc = discount_matrices(dec, inst.beta)
    sep = reward_separation_check(inst.R, disc.Q)
    if not sep.margins.size:
        # X = 1: there is no pair of adjacent states to separate.
        return ClauseResult(clause, True, "no adjacent states")
    if sep.passed:
        return ClauseResult(clause, True, f"min margin {sep.margins.min():.3e}")
    return ClauseResult(
        clause, False, f"separation fails at states {sep.witness}, margin {sep.margins.min():.3e}"
    )


def _verify(inst: ModelInstance, regime: int, alt_clause3: bool) -> AssumptionReport:
    direction = "ascending" if regime == 1 else "descending"
    rows = rows_mlr_ordered(inst.A, direction).witness
    cols = obs_columns_mlr_ordered(inst.B).witness
    K = find_threshold_K(inst.A, inst.B, regime, alt_clause3)
    results = (
        ClauseResult(
            f"{regime}.1",
            rows is None,
            "" if rows is None else f"rows {rows} break the {direction} MLR order",
        ),
        ClauseResult(
            f"{regime}.2",
            cols is None,
            "" if cols is None else f"observation columns unordered at states {cols}",
        ),
        ClauseResult(
            f"{regime}.3",
            K is not None,
            f"K={K}" if K is not None else "no threshold K in 2..Y",
        ),
        _belief_chain_result(inst, regime),
        _separation_result(inst, regime),
    )
    all_pass = all(c.passed for c in results)
    return AssumptionReport(
        regime=f"Assumption{regime}" if all_pass else "Neither",
        clause_results=results,
        K=K,
    )


def verify_assumption1(inst: ModelInstance, alt_clause3: bool = False) -> AssumptionReport:
    """Full clause 1.1-1.5 report for the ascending regime."""
    return _verify(inst, 1, alt_clause3)


def verify_assumption2(inst: ModelInstance, alt_clause3: bool = False) -> AssumptionReport:
    """Full clause 2.1-2.5 report for the descending regime."""
    return _verify(inst, 2, alt_clause3)
