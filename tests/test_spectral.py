import numpy as np
import pytest

from restless_sched import (
    BeliefVector,
    ComplexSpectrumError,
    RewardVector,
    TransitionMatrix,
    discount_matrices,
    eigendecompose,
    reward_separation_check,
)

from conftest import default_series_terms, random_stochastic, series_difference_oracle

A2 = TransitionMatrix([[0.9, 0.1], [0.2, 0.8]])  # eigenvalues 1, 0.7


class TestEigendecompose:
    def test_two_state_spectrum(self):
        dec = eigendecompose(A2)
        assert np.allclose(dec.eigenvalues, [1.0, 0.7])
        assert dec.residual < 1e-12

    def test_trivial_eigenvector_pinned(self):
        dec = eigendecompose(A2)
        assert np.allclose(dec.V[:, 0], 1.0 / np.sqrt(2))

    def test_reconstruction(self):
        dec = eigendecompose(A2)
        assert np.allclose(dec.V @ dec.Lambda @ dec.V_inv, A2.rows)

    def test_deterministic_output(self):
        d1, d2 = eigendecompose(A2), eigendecompose(A2)
        assert np.array_equal(d1.V, d2.V)
        assert np.array_equal(d1.V_inv, d2.V_inv)

    def test_complex_spectrum_rejected(self):
        # A 3-cycle rotation has complex eigenvalues exp(+-2pi i/3).
        P = TransitionMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        with pytest.raises(ComplexSpectrumError):
            eigendecompose(P)

    def test_identity(self):
        dec = eigendecompose(TransitionMatrix(np.eye(3)))
        assert np.allclose(dec.eigenvalues, [1, 1, 1])


class TestDiscountMatrices:
    def test_upsilon_diagonal(self):
        dec = eigendecompose(A2)
        disc = discount_matrices(dec, 0.5)
        # beta*l2/(1 - beta*l2) = 0.35/0.65 = 7/13.
        assert np.allclose(np.diag(disc.Upsilon), [1.0, 7 / 13])

    def test_beta_zero_kills_series_part(self):
        dec = eigendecompose(A2)
        disc = discount_matrices(dec, 0.0)
        # Upsilon = diag(1, 0): Q projects onto the stationary direction,
        # so Q' annihilates belief differences.
        delta = np.array([0.3, -0.3])
        assert np.allclose(disc.Q.T @ delta, 0.0)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            discount_matrices(eigendecompose(A2), 1.0)


class TestSeriesIdentity:
    def test_closed_form_matches_series_hand_case(self):
        R = RewardVector([0.0, 1.0])
        beta = 0.5
        dec = eigendecompose(A2)
        disc = discount_matrices(dec, beta)
        x1, x2 = BeliefVector([0.9, 0.1]), BeliefVector([0.4, 0.6])
        n = default_series_terms(beta, dec.eigenvalues[1])
        series = series_difference_oracle(R, A2, beta, x1, x2, n)
        closed = float(R.values @ (disc.Q.T @ (x1.probs - x2.probs)))
        assert series == pytest.approx(closed, abs=1e-10)
        # Independent scalar check: zero-sum vectors are eigenvectors of
        # A' at l2 = 0.7 for 2 states, so the series is geometric:
        # sum (0.5*0.7)^i R'delta = (0.35/0.65) * (-0.5) = -7/26.
        assert closed == pytest.approx(-7 / 26, abs=1e-12)

    def test_identity_on_random_diagonalizable(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            X = int(rng.integers(2, 5))
            A = TransitionMatrix(random_stochastic(rng, X, X))
            try:
                dec = eigendecompose(A)
            except Exception:
                continue
            beta = float(rng.uniform(0.0, 0.9))
            R = RewardVector(np.sort(rng.uniform(0, 2, X)) + np.arange(X) * 1e-3)
            x1 = BeliefVector(rng.dirichlet(np.ones(X)))
            x2 = BeliefVector(rng.dirichlet(np.ones(X)))
            disc = discount_matrices(dec, beta)
            # Tail decay is governed by the largest nontrivial magnitude,
            # which can be a negative eigenvalue.
            n = default_series_terms(beta, float(np.abs(dec.eigenvalues[1:]).max()))
            series = series_difference_oracle(R, A, beta, x1, x2, n)
            closed = float(R.values @ (disc.Q.T @ (x1.probs - x2.probs)))
            assert series == pytest.approx(closed, abs=1e-8)
            checked += 1

    def test_truncation_rule_tail(self):
        assert default_series_terms(0.0, 0.7) == 1
        n = default_series_terms(0.9, 0.95)
        assert (0.9 * 0.95) ** n < 1e-12


class TestRewardSeparation:
    def test_pass_and_margins(self):
        dec = eigendecompose(A2)
        disc = discount_matrices(dec, 0.5)
        rep = reward_separation_check(RewardVector([0.0, 1.0]), disc.Q)
        assert rep.passed
        # margin = (1 - 0) - l2-weighted increment = 1 - 7/13*0.7... must
        # simply be positive here; the exact value is checked numerically.
        assert rep.margins.shape == (1,)
        assert rep.margins[0] > 0

    def test_failure_witness(self):
        # Large beta pushes the discounted series above the reward gap.
        dec = eigendecompose(A2)
        disc = discount_matrices(dec, 0.999)
        rep = reward_separation_check(RewardVector([0.0, 1.0]), disc.Q)
        assert not rep.passed
        assert rep.witness == (1, 2)
