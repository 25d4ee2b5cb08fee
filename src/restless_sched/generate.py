"""Random construction of instances that satisfy (or deliberately
violate) one of the two assumption regimes.

Rows of the transition and observation matrices are built as ordered
mixtures of two anchor distributions; mixtures of MLR-ordered anchors
are themselves MLR-ordered in the mixing weight, so the TP2-style row
structure holds by construction and rejection sampling only has to
clear the threshold-K and reward-separation clauses.

Regime 2 note: the printed form of clause 2.3 is incompatible with
ascending observation columns except for degenerate matrices, so
regime-2 generation targets the mirrored (``alt_clause3``) reading,
which is satisfied by flat observation columns at the threshold; with
Y <= 3 and stochastic rows that forces an uninformative observation
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assumptions import _verify
from .exceptions import CannotViolateError, GenerationExhaustedError
from .types import ModelInstance, check_integer, check_seed, validate_instance


@dataclass(frozen=True)
class GeneratorParams:
    x_range: tuple[int, int] = (2, 3)
    y_range: tuple[int, int] = (2, 3)
    n_range: tuple[int, int] = (2, 3)
    beta_range: tuple[float, float] = (0.2, 0.6)
    max_attempts: int = 1000

    def __post_init__(self):
        """A dimension bound or ``max_attempts`` that is not an integer
        raises ``TypeError``; an empty range, a dimension below 2, a beta
        outside [0, 1) or no attempt ``ValueError``."""
        for name in ("x_range", "y_range", "n_range"):
            lo, hi = getattr(self, name)
            check_integer(name, lo)
            check_integer(name, hi)
            if lo > hi or lo < 2:
                raise ValueError(f"{name} must be a nonempty range >= 2, got ({lo}, {hi})")
        lo, hi = self.beta_range
        if not (0.0 <= lo <= hi < 1.0):
            raise ValueError(f"beta_range must lie in [0, 1), got ({lo}, {hi})")
        check_integer("max_attempts", self.max_attempts)
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


def _geometric_anchors(dim: int, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """A decreasing and an increasing distribution, MLR-ordered low <= high."""
    low = ratio ** np.arange(dim, dtype=float)
    low /= low.sum()
    high = low[::-1].copy()
    return low, high


def _mixture_rows(low: np.ndarray, high: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.outer(1.0 - weights, low) + np.outer(weights, high)


def _increasing_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    lo = rng.uniform(0.0, 0.3)
    hi = rng.uniform(0.7, 1.0)
    return np.linspace(lo, hi, n)


def _increasing_rewards(rng: np.random.Generator, dim: int) -> np.ndarray:
    return np.cumsum(rng.uniform(0.25, 1.0, dim))


def _sample_dims(rng: np.random.Generator, params: GeneratorParams):
    X = int(rng.integers(params.x_range[0], params.x_range[1] + 1))
    Y = int(rng.integers(params.y_range[0], params.y_range[1] + 1))
    N = int(rng.integers(params.n_range[0], params.n_range[1] + 1))
    beta = float(rng.uniform(*params.beta_range))
    return X, Y, N, beta


def _generate(params: GeneratorParams, seed: int, regime: int) -> ModelInstance:
    """Rejection-sample an instance verified under ``regime``, regime 2
    under the mirrored clause-3 reading (see module docstring).  Both
    regimes draw the same variates in the same order; only the order of
    A's mixing weights, B and the initial chain depend on the regime.
    A seed that is not an integer raises ``TypeError`` and a negative
    one ``ValueError``."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    last_failure = "no attempt made"
    for _ in range(params.max_attempts):
        X, Y, N, beta = _sample_dims(rng, params)
        a_low, a_high = _geometric_anchors(X, rng.uniform(0.15, 0.5))
        weights = _increasing_weights(rng, X)
        if regime == 1:
            A = _mixture_rows(a_low, a_high, weights)
            # Informative observations: clause 3 needs the low branches to
            # push beliefs below the two-step image of the worst state.
            b_low, b_high = _geometric_anchors(Y, rng.uniform(0.005, 0.08))
            B = _mixture_rows(b_low, b_high, np.linspace(0.0, 1.0, X))
        else:
            # Descending rows: best transition law first.
            A = _mixture_rows(a_low, a_high, weights[::-1])
            # Flat observation columns: every row is the same distribution.
            b = rng.uniform(0.5, 1.5, Y)
            B = np.tile(b / b.sum(), (X, 1))
        R = _increasing_rewards(rng, X)
        chain = np.sort(rng.uniform(0.05, 0.95, N))
        if regime == 1:
            x0 = _mixture_rows(A[0], A[-1], chain)
        else:
            # Descending initial chain inside the band [A_X, A_1].
            x0 = _mixture_rows(A[-1], A[0], chain[::-1])
        inst = ModelInstance(N, X, Y, A, B, R, beta, x0)
        report = _verify(inst, regime, regime == 2)
        if report.satisfied:
            assert validate_instance(inst).ok
            return inst
        last_failure = next(c.clause for c in report.clause_results if not c.passed)
    raise GenerationExhaustedError(params.max_attempts, f"clause {last_failure}")


def gen_assumption1_instance(params: GeneratorParams, seed: int) -> ModelInstance:
    """Rejection-sample an instance verified under the ascending regime."""
    return _generate(params, seed, 1)


def gen_assumption2_instance(params: GeneratorParams, seed: int) -> ModelInstance:
    """Rejection-sample an instance verified under the descending regime,
    with the mirrored clause-3 reading (see module docstring)."""
    return _generate(params, seed, 2)


def perturb_violate(inst: ModelInstance, clause_id: str, seed: int) -> ModelInstance:
    """Minimally perturb a verified instance so one targeted clause fails.

    ``clause_id`` is e.g. "1.5" or "2.3".  The clause is checked under
    the reading the generators verify: printed for regime 1, mirrored
    for regime 2.  The result stays structurally well-formed; raises
    CannotViolateError when the clause cannot be broken at the
    instance's dimensions.  A seed that is not an integer raises
    ``TypeError`` and a negative one ``ValueError``.
    """
    check_seed(seed)
    regime_s, _, clause_s = clause_id.partition(".")
    if regime_s not in ("1", "2") or clause_s not in ("1", "2", "3", "4", "5"):
        raise ValueError(f"clause id must look like '1.3', got {clause_id!r}")
    regime, clause = int(regime_s), int(clause_s)
    rng = np.random.default_rng(seed)
    X, Y, N = inst.n_states, inst.n_obs, inst.n_projects
    A = inst.A.rows.copy()
    B = inst.B.rows.copy()
    R = inst.R.values.copy()
    beta = inst.beta
    x0 = [x.probs.copy() for x in inst.initial_beliefs]

    candidates: list[ModelInstance] = []
    if clause == 1:
        A2 = A.copy()
        A2[[0, -1]] = A2[[-1, 0]]
        candidates.append(ModelInstance(N, X, Y, A2, B, R, beta, x0))
    elif clause == 2:
        B2 = B.copy()
        B2[:, [0, -1]] = B2[:, [-1, 0]]
        candidates.append(ModelInstance(N, X, Y, A, B2, R, beta, x0))
        # Flat rows survive a column swap, so also try an anti-monotone
        # tilt (higher states favor lower observations).
        anti = np.outer(np.linspace(0, 1, X), np.linspace(1.4, 0.6, Y)) + np.outer(
            np.linspace(1, 0, X), np.linspace(0.6, 1.4, Y)
        )
        B2b = B * anti
        B2b /= B2b.sum(axis=1, keepdims=True)
        candidates.append(ModelInstance(N, X, Y, A, B2b, R, beta, x0))
    elif clause == 3:
        if regime == 1:
            # Uninformative observations leave no threshold branch.
            B3 = np.tile(B.mean(axis=0), (X, 1))
        else:
            # A mild informative tilt breaks the flat-column equalities.
            lowish = np.linspace(1.3, 0.7, Y)
            highish = lowish[::-1]
            tilt = np.outer(1 - np.linspace(0, 1, X), lowish) + np.outer(
                np.linspace(0, 1, X), highish
            )
            B3 = B * tilt
            B3 /= B3.sum(axis=1, keepdims=True)
        candidates.append(ModelInstance(N, X, Y, A, B3, R, beta, x0))
    elif clause == 4:
        x0b = [x.copy() for x in x0]
        extreme = np.zeros(X)
        extreme[-1 if regime == 1 else 0] = 1.0
        x0b[0] = extreme
        candidates.append(ModelInstance(N, X, Y, A, B, R, beta, x0b))
    elif clause == 5:
        # Push the discounted series toward divergence so the separation
        # margin flips sign; also try a lopsided reward at X >= 3.
        for beta_hi in (0.9, 0.97, 0.99, 0.997, 0.999):
            if beta_hi > beta:
                candidates.append(ModelInstance(N, X, Y, A, B, R, beta_hi, x0))
        if X >= 3:
            for _ in range(20):
                R5 = np.cumsum(rng.uniform(0.01, 1.0, X))
                R5[1:] = R5[0] + (R5[1:] - R5[0]) * rng.uniform(0.02, 1.0)
                R5 = np.sort(R5)
                if np.all(np.diff(R5) > 0):
                    candidates.append(ModelInstance(N, X, Y, A, B, R5, beta, x0))

    for cand in candidates:
        if not validate_instance(cand).ok:
            continue
        report = _verify(cand, regime, regime == 2)
        failed = {c.clause for c in report.clause_results if not c.passed}
        if f"{regime}.{clause}" in failed:
            return cand
    raise CannotViolateError(f"could not violate clause {clause_id} for this instance")
