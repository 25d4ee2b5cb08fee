"""Information-state dynamics.

The worked project's belief is updated by the HMM filter
``T(x, m) = B(m) A'x / d(x, m)`` with normalizer
``d(x, m) = 1' B(m) A'x``; every passive project propagates as
``A'x``.  Pure functions throughout; profiles are values.

``row_dot`` is the package's one product of beliefs with a matrix or a
vector: A'x is ``row_dot(x, A)``, the likelihoods of ``filter_rows``
are ``row_dot(z, B)``, and every immediate reward R'x is
``row_dot(x, R)``.  It adds each entry's products in order, one numpy
multiply and one add at a time, so its bits depend on no BLAS kernel
and on no shape or layout of its input: node counts and certificate
bits hang on them.  ``filter_rows`` is the one array form of T(x, m) on
every observation, and the tree kernels' one zero-likelihood rule (see
there).  The tree kernel (``policy.TreeEvaluator``), the clause-3
threshold search, the power terms of ``bounds`` and the validated
one-belief steps here all call the two.  ``row_sum`` is the one exact
sum, left to right from +0.0 along a last axis, of every backup, leaf
pass, interval table and simulator sum and of ``filter_rows``.

The simulator is the one exception: it propagates its history table
with one gemm and filters only the observation that occurred.  On the
simulate-mc workload the shared batch filter cost 4-19 %, running the
history table on ``expand`` cost about 10 % (faster in 2 of 30 pairs),
and ``row_dot`` took 1,041 us against the gemm's 28 us on 19,683
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    ImpossibleObservationError,
    InvalidBeliefError,
)
from .types import (
    BeliefVector,
    ModelInstance,
    ObservationMatrix,
    TransitionMatrix,
    check_integer,
)

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
        check_integer("time", time)
        if time < 0:
            raise ValueError(f"time must be nonnegative, got {time}")
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "time", int(time))

    @property
    def n_projects(self) -> int:
        return len(self.beliefs)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(x.probs for x in self.beliefs)


def row_dot(x: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``x @ M`` over the last axis of ``x`` (..., X), for ``M`` of shape
    (X,) or (X, K): every entry adds its X products in order,
    x_0 M_0 + x_1 M_1 + ..., each one numpy multiply and one add, with
    no BLAS and no FMA, so its bits are those of a scalar loop whatever
    the kernel, the shape or the layout.

    The products run over whole rows of a (K, rows) block, and the
    result is a (..., K) view of it: numpy runs an operation that
    broadcasts over a short last axis a few elements at a time.
    """
    rows = x.reshape(-1, x.shape[-1]).T
    if len(rows) != len(M):
        raise DimensionMismatchError(f"rows of length {len(rows)} times {len(M)} rows")
    cols = M.reshape(len(M), -1, 1)
    out = rows[0] * cols[0]
    for row, col in zip(rows[1:], cols[1:]):
        out += row * col
    return out.T.reshape(x.shape[:-1] + M.shape[1:])


def row_sum(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum along the last axis (at least one entry), into ``out`` if
    given, added column by column from +0.0, where ``values.sum(axis=-1)``
    adds 8 or more terms pairwise.  A lone -0.0 sums to +0.0."""
    out = np.add(values[..., 0], 0.0, out=out)
    for k in range(1, values.shape[-1]):
        out += values[..., k]
    return out


def filter_rows(z: np.ndarray, B: np.ndarray):
    """The filter T(x, m) of every propagated belief z = A'x in the
    (K, n, X) ``z`` on every observation m of B (X, Y).

    Returns (likelihood (K, n, Y), live, filtered (X, Y, K, n)), where
    ``live`` marks the likelihoods above ``LIKELIHOOD_FLOOR``.  A dead
    branch's row is its first live sibling's, so the DP merges it into
    that node, and a tree kernel that weights it by 0.0 adds nothing to
    a sum.  The likelihoods are ``row_dot(z, B)``, laid out (Y, K, n) as
    the filter is.  The filter itself is elementwise, so its bits do not
    depend on the layout, which puts the long axis last.  A live row
    whose ``row_sum`` over X drifts from 1 by more than
    ``FILTER_SUM_TOL`` raises ``InvalidBeliefError``.
    """
    d = row_dot(z, B)
    live = d > LIKELIHOOD_FLOOR
    live_t = live.transpose(2, 0, 1)
    filtered = B[:, :, None, None] * z.transpose(2, 0, 1)[:, None]
    filtered /= np.where(live, d, 1.0).transpose(2, 0, 1)
    s = row_sum(filtered.transpose(1, 2, 3, 0))
    drift = live_t & (np.abs(s - 1.0) > FILTER_SUM_TOL)
    if drift.any():
        first = s.transpose(1, 2, 0)[drift.transpose(1, 2, 0)][0]
        raise InvalidBeliefError(f"filter output sums to {first}; mass lost beyond tolerance")
    filtered /= np.where(live_t, s, 1.0)
    if not live.all():
        sibling = np.take_along_axis(filtered, live_t.argmax(axis=0)[None, None], axis=1)
        np.copyto(filtered, sibling, where=~live_t)
    return d, live, filtered


def _step(A: TransitionMatrix, x: BeliefVector, B: ObservationMatrix | None = None, m: int = 1):
    """A'x of one belief as a (1, 1, X) array, after checking that A,
    and B with its 1-based observation m (an integer) if given, fit
    it."""
    if B is not None:
        check_integer("m", m)
        if not 1 <= m <= B.n_obs:
            raise IndexError(f"observation index {m} out of range 1..{B.n_obs}")
    if A.n_states != x.dim or (B is not None and B.n_states != x.dim):
        raise DimensionMismatchError("matrix/belief dimensions differ")
    return row_dot(x.probs[None, None], A.rows)


def propagate(A: TransitionMatrix, x: BeliefVector) -> BeliefVector:
    """One passive Markov step: returns A'x."""
    return BeliefVector(_step(A, x)[0, 0])


def filter_update(
    A: TransitionMatrix, B: ObservationMatrix, x: BeliefVector, m: int
) -> BeliefVector:
    """Bayes update T(x, m) of the worked project's belief."""
    d, live, filtered = filter_rows(_step(A, x, B, m), B.rows)
    if not live[0, 0, m - 1]:
        raise ImpossibleObservationError(
            f"observation {m} has likelihood {d[0, 0, m - 1]}; zero-probability branch"
        )
    return BeliefVector(filtered[:, m - 1, 0, 0])


def step_profile(
    inst: ModelInstance, profile: BeliefProfile, u: int, m: int
) -> BeliefProfile:
    """Advance a profile one slot: project u (1-based) is worked and
    filtered on observation m; everyone else propagates passively.  A
    project or observation that is not an integer raises
    ``TypeError``."""
    check_integer("u", u)
    if not 1 <= u <= profile.n_projects:
        raise IndexError(f"project index {u} out of range 1..{profile.n_projects}")
    updated = []
    for n, x in enumerate(profile.beliefs, start=1):
        if n == u:
            updated.append(filter_update(inst.A, inst.B, x, m))
        else:
            updated.append(propagate(inst.A, x))
    return BeliefProfile(updated, time=profile.time + 1)
