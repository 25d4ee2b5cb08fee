"""Information-state dynamics.

The worked project's belief is updated by the HMM filter
``T(x, m) = B(m) A'x / d(x, m)`` with normalizer
``d(x, m) = 1' B(m) A'x``; every passive project propagates as
``A'x``.  Pure functions throughout; profiles are values.

``bayes_filter`` is the one scalar filter on raw numpy arrays;
``filter_update`` and the clause-3 threshold search both call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    ImpossibleObservationError,
    InvalidBeliefError,
)
from .types import BeliefVector, ModelInstance, ObservationMatrix, TransitionMatrix

#: d(x, m) below this is treated as an impossible observation.
LIKELIHOOD_FLOOR = 1e-300
#: Filter outputs must sum to 1 within this drift before renormalization.
FILTER_SUM_TOL = 1e-9


@dataclass(frozen=True)
class BeliefProfile:
    """The joint information state of all N projects at one slot."""

    beliefs: tuple[BeliefVector, ...]
    time: int = 0

    def __init__(self, beliefs, time: int = 0):
        beliefs = tuple(
            x if isinstance(x, BeliefVector) else BeliefVector(x) for x in beliefs
        )
        if not beliefs:
            raise InvalidBeliefError("profile needs at least one belief")
        if time < 0:
            raise ValueError(f"time must be nonnegative, got {time}")
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "time", int(time))

    @property
    def n_projects(self) -> int:
        return len(self.beliefs)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(x.probs for x in self.beliefs)


def bayes_filter(A_T: np.ndarray, B: np.ndarray, x: np.ndarray, m0: int) -> np.ndarray | None:
    """T(x, m) with A_T = A' and 0-based observation m0, or None when its
    likelihood d(x, m) is at most ``LIKELIHOOD_FLOOR``."""
    z = A_T @ x
    d = float(B[:, m0] @ z)
    if d <= LIKELIHOOD_FLOOR:
        return None
    out = B[:, m0] * z / d
    s = out.sum()
    if abs(s - 1.0) > FILTER_SUM_TOL:
        raise InvalidBeliefError(f"filter output sums to {s}; mass lost beyond tolerance")
    return out / s


def propagate(A: TransitionMatrix, x: BeliefVector) -> BeliefVector:
    """One passive Markov step: returns A'x."""
    if A.n_states != x.dim:
        raise DimensionMismatchError(f"A is {A.n_states}-state, belief has dim {x.dim}")
    return BeliefVector(A.rows.T @ x.probs)


def _check_step(A: TransitionMatrix, B: ObservationMatrix, x: BeliefVector, m: int) -> None:
    if not 1 <= m <= B.n_obs:
        raise IndexError(f"observation index {m} out of range 1..{B.n_obs}")
    if A.n_states != x.dim or B.n_states != x.dim:
        raise DimensionMismatchError("matrix/belief dimensions differ")


def obs_likelihood(
    A: TransitionMatrix, B: ObservationMatrix, x: BeliefVector, m: int
) -> float:
    """d(x, m): probability of observing m after working a project at belief x."""
    _check_step(A, B, x, m)
    z = A.rows.T @ x.probs
    return float(B.rows[:, m - 1] @ z)


def filter_update(
    A: TransitionMatrix, B: ObservationMatrix, x: BeliefVector, m: int
) -> BeliefVector:
    """Bayes update T(x, m) of the worked project's belief."""
    _check_step(A, B, x, m)
    out = bayes_filter(A.rows.T, B.rows, x.probs, m - 1)
    if out is None:
        raise ImpossibleObservationError(
            f"observation {m} has likelihood {obs_likelihood(A, B, x, m)}; "
            "zero-probability branch"
        )
    return BeliefVector(out)


def step_profile(
    inst: ModelInstance, profile: BeliefProfile, u: int, m: int
) -> BeliefProfile:
    """Advance a profile one slot: project u (1-based) is worked and
    filtered on observation m; everyone else propagates passively."""
    if not 1 <= u <= profile.n_projects:
        raise IndexError(f"project index {u} out of range 1..{profile.n_projects}")
    updated = []
    for n, x in enumerate(profile.beliefs, start=1):
        if n == u:
            updated.append(filter_update(inst.A, inst.B, x, m))
        else:
            updated.append(propagate(inst.A, x))
    return BeliefProfile(updated, time=profile.time + 1)
