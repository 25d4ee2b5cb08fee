"""Eigen-analysis of the transition matrix and the discounted-series
matrix Q that turns the geometric sum of transition powers into a closed
form.

For a row-stochastic A = V Lambda V^{-1} with real spectrum, the matrix
Q = V Upsilon V^{-1} with Upsilon = diag(1, beta*l2/(1-beta*l2), ...)
satisfies R' sum_{i>=1} (beta A')^i (x1 - x2) = R' Q' (x1 - x2) for any
two beliefs x1, x2 (the trivial eigenvalue 1 drops out on belief
differences).  The reward-separation condition for adjacent states is
phrased through Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ComplexSpectrumError, NonDiagonalizableError
from .types import RewardVector, TransitionMatrix

IMAG_TOL = 1e-9
UNIT_EIG_TOL = 1e-9
RESIDUAL_TOL = 1e-8
#: Slack allowed in each reward-separation margin.
SEPARATION_TOL = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real eigendecomposition A = V Lambda V^{-1}, eigenvalues descending."""

    eigenvalues: np.ndarray
    V: np.ndarray
    V_inv: np.ndarray
    Lambda: np.ndarray
    residual: float


@dataclass(frozen=True)
class DiscountMatrices:
    Upsilon: np.ndarray
    Q: np.ndarray


def eigendecompose(A: TransitionMatrix) -> SpectralDecomposition:
    """Diagonalize a row-stochastic matrix with real spectrum.

    The unit eigenvalue is pinned to the first slot with its eigenvector
    fixed to the normalized all-ones vector (always an eigenvector of a
    row-stochastic matrix), so outputs are deterministic.
    """
    a = A.rows
    X = a.shape[0]
    vals, vecs = np.linalg.eig(a)
    if np.abs(vals.imag).max() > IMAG_TOL:
        raise ComplexSpectrumError(f"complex eigenvalues: {vals}")
    vals = vals.real
    vecs = vecs.real

    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    if abs(vals[0] - 1.0) > UNIT_EIG_TOL:
        raise NonDiagonalizableError(f"largest eigenvalue {vals[0]} is not 1")
    if np.abs(vals).max() > 1.0 + UNIT_EIG_TOL:
        raise NonDiagonalizableError(f"eigenvalue magnitude exceeds 1: {vals}")

    # Deterministic column scaling: unit norm, first nonzero entry positive.
    V = vecs.copy()
    V[:, 0] = 1.0 / math.sqrt(X)
    for k in range(1, X):
        col = V[:, k]
        nrm = np.linalg.norm(col)
        if nrm == 0.0:
            raise NonDiagonalizableError(f"zero eigenvector column {k}")
        col = col / nrm
        lead = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
        if lead < 0:
            col = -col
        V[:, k] = col

    try:
        V_inv = np.linalg.inv(V)
    except np.linalg.LinAlgError as e:
        raise NonDiagonalizableError(f"eigenvector matrix singular: {e}") from e
    Lam = np.diag(vals)
    residual = float(np.abs(a - V @ Lam @ V_inv).max())
    if residual > RESIDUAL_TOL:
        raise NonDiagonalizableError(
            f"reconstruction residual {residual} exceeds {RESIDUAL_TOL}"
        )
    return SpectralDecomposition(
        eigenvalues=vals, V=V, V_inv=V_inv, Lambda=Lam, residual=residual
    )


def discount_matrices(dec: SpectralDecomposition, beta: float) -> DiscountMatrices:
    """Build Upsilon = diag(1, beta*l_i/(1 - beta*l_i), ...) and Q."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    ups = np.zeros_like(dec.eigenvalues)
    ups[0] = 1.0
    for k in range(1, ups.size):
        lam = dec.eigenvalues[k]
        ups[k] = beta * lam / (1.0 - beta * lam)
    Upsilon = np.diag(ups)
    Q = dec.V @ Upsilon @ dec.V_inv
    return DiscountMatrices(Upsilon=Upsilon, Q=Q)


@dataclass(frozen=True)
class SeparationReport:
    """Adjacent-state reward-separation margins (R - QR increments)."""

    passed: bool
    #: margin[i] = (R(i+2)-R(i+1)) - ((QR)(i+2)-(QR)(i+1)), adjacent pairs.
    margins: np.ndarray
    #: first failing adjacent pair (1-based), when any.
    witness: tuple[int, int] | None


def reward_separation_check(R: RewardVector, Q: np.ndarray) -> SeparationReport:
    """Check R'(e_{i+1}-e_i) >= R'Q'(e_{i+1}-e_i) for all adjacent i.

    Adjacent margins imply every i > j pair by telescoping; the all-pairs
    inequality is re-verified as a consistency assertion.
    """
    r = R.values
    qr = Q @ r
    margins = np.diff(r) - np.diff(qr)
    passed = bool(np.all(margins >= -SEPARATION_TOL))
    witness = None
    if not passed:
        i = int(np.nonzero(margins < -SEPARATION_TOL)[0][0])
        witness = (i + 1, i + 2)
    # Telescoping consistency: all-pairs margins are partial sums of the
    # adjacent ones, so a pass must extend to every pair.
    if passed:
        X = r.size
        for i in range(X):
            for j in range(i):
                pair = (r[i] - r[j]) - (qr[i] - qr[j])
                assert pair >= -SEPARATION_TOL * X, (i + 1, j + 1, pair)
    return SeparationReport(passed=passed, margins=margins, witness=witness)
