import numpy as np
import pytest
from conftest import in_order_dot, obs_likelihood, same_bits

import restless_sched.filtering as filtering_module
from restless_sched import (
    BeliefProfile,
    BeliefVector,
    DimensionMismatchError,
    ImpossibleObservationError,
    InvalidBeliefError,
    ModelInstance,
    ObservationMatrix,
    TransitionMatrix,
    filter_update,
    find_threshold_K,
    propagate,
    step_profile,
)

A = TransitionMatrix([[0.9, 0.1], [0.2, 0.8]])
B = ObservationMatrix([[0.99, 0.01], [0.01, 0.99]])


class TestPropagate:
    def test_basis_vector(self):
        z = propagate(A, BeliefVector([1.0, 0.0]))
        assert np.allclose(z.probs, [0.9, 0.1])

    def test_stationary_point(self):
        # pi = (2/3, 1/3) solves pi = A' pi for this chain.
        pi = BeliefVector([2 / 3, 1 / 3])
        assert np.allclose(propagate(A, pi).probs, pi.probs)

    def test_mass_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = BeliefVector(rng.dirichlet([1, 1]))
            assert propagate(A, x).probs.sum() == pytest.approx(1.0)


class TestObsLikelihood:
    def test_likelihoods_sum_to_one(self):
        x = BeliefVector([0.6, 0.4])
        total = sum(obs_likelihood(A, B, x, m) for m in (1, 2))
        assert total == pytest.approx(1.0)

    def test_hand_value(self):
        # z = A'e_1 = (0.9, 0.1); d(e_1, 2) = 0.9*0.01 + 0.1*0.99 = 0.108.
        assert obs_likelihood(A, B, BeliefVector([1.0, 0.0]), 2) == pytest.approx(0.108)

    def test_bad_index(self):
        with pytest.raises(IndexError):
            obs_likelihood(A, B, BeliefVector([1.0, 0.0]), 3)


class TestFilterUpdate:
    def test_hand_posterior(self):
        # T(e_1, 2) = (0.9*0.01, 0.1*0.99)/0.108 = (1/12, 11/12).
        post = filter_update(A, B, BeliefVector([1.0, 0.0]), 2)
        assert np.allclose(post.probs, [1 / 12, 11 / 12])

    def test_identity_observation_pins_state(self):
        B_id = ObservationMatrix(np.eye(2))
        post = filter_update(A, B_id, BeliefVector([0.5, 0.5]), 1)
        assert np.allclose(post.probs, [1.0, 0.0])

    def test_uninformative_observation_is_propagation(self):
        B_flat = ObservationMatrix([[0.5, 0.5], [0.5, 0.5]])
        x = BeliefVector([0.3, 0.7])
        post = filter_update(A, B_flat, x, 2)
        assert np.allclose(post.probs, propagate(A, x).probs)

    def test_impossible_observation_raises(self):
        B_det = ObservationMatrix([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ImpossibleObservationError):
            filter_update(A, B_det, BeliefVector([0.5, 0.5]), 2)

    def test_bayes_consistency_against_joint(self):
        # Posterior from the filter equals the normalized joint
        # p(state, obs) computed longhand.
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.dirichlet([1, 1])
            z = A.rows.T @ x
            for m in (1, 2):
                joint = z * B.rows[:, m - 1]
                expected = joint / joint.sum()
                got = filter_update(A, B, BeliefVector(x), m)
                assert np.allclose(got.probs, expected)


class TestRowDot:
    """``row_dot`` is the package's one product: bit for bit the pure
    Python in-order dot, whatever the shape or layout of its input."""

    @staticmethod
    def rows(X: int) -> np.ndarray:
        """(4, 5, X) differences of distributions, with exact zeros in
        both the entries and the products, and -0.0 entries."""
        rng = np.random.default_rng(X)
        x = rng.dirichlet(np.ones(X), (4, 5)) - rng.dirichlet(np.ones(X), (4, 5))
        x[0] = 0.0
        x[1, :, 0] = -0.0
        x[2, :, -1] = 0.0
        return x

    @pytest.mark.parametrize("X", [2, 3, 9])
    @pytest.mark.parametrize("columns", [None, 1, 4], ids=["1-D", "K=1", "K=4"])
    def test_matches_in_order_dot(self, X, columns):
        rng = np.random.default_rng(10 * X + (columns or 0))
        shape = (X,) if columns is None else (X, columns)
        M = rng.uniform(-1.0, 1.0, shape)
        M[X // 2] = 0.0
        x = self.rows(X)
        want = in_order_dot(x, M)
        assert same_bits(filtering_module.row_dot(x, M), want)
        # The same bits for an F-ordered copy, one block and one row.
        assert same_bits(filtering_module.row_dot(np.asfortranarray(x), M), want)
        assert same_bits(filtering_module.row_dot(x[3], M), want[3])
        assert same_bits(filtering_module.row_dot(x[3, 1], M), want[3, 1])

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            filtering_module.row_dot(np.ones((4, 3)), np.ones(2))


class TestIntegerArguments:
    """The one-belief steps and the profile's slot take integers only;
    True would run as 1 and 1.5 as no project or a bare numpy error."""

    @pytest.mark.parametrize("u, m, name", [
        (1.5, 1, "u"), (True, 1, "u"), (1, True, "m"), (1, 1.5, "m"), (2, 1.0, "m"),
    ])
    def test_step_profile_rejects_non_integers(self, two_state_instance, u, m, name):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            step_profile(two_state_instance, prof, u, m)

    @pytest.mark.parametrize("m", [1.0, True])
    def test_filter_update_rejects_non_integers(self, m):
        with pytest.raises(TypeError, match="^m must be an integer"):
            filter_update(A, B, BeliefVector([0.5, 0.5]), m)

    @pytest.mark.parametrize("time", [2.5, True])
    def test_profile_time_rejects_non_integers(self, time):
        with pytest.raises(TypeError, match="^time must be an integer"):
            BeliefProfile([BeliefVector([0.5, 0.5])], time)

    def test_numpy_integers_accepted(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, np.int64(2))
        out = step_profile(two_state_instance, prof, np.int64(1), np.int32(2))
        assert out.time == 3 and type(out.time) is int


class TestStepProfile:
    def test_active_filtered_passive_propagated(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        out = step_profile(two_state_instance, prof, 1, 2)
        assert out.time == 1
        expect_active = filter_update(A, B, prof.beliefs[0], 2)
        expect_passive = propagate(A, prof.beliefs[1])
        assert np.allclose(out.beliefs[0].probs, expect_active.probs)
        assert np.allclose(out.beliefs[1].probs, expect_passive.probs)

    def test_bad_project_index(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        with pytest.raises(IndexError):
            step_profile(two_state_instance, prof, 3, 1)


class TestDriftCheck:
    """Every caller of ``filter_rows`` gets its drift check: with a
    negative tolerance every live filtered row has drifted.  The DP's
    case is ``test_dp.py::TestOptimalValue::test_filter_drift_raises``."""

    @pytest.mark.parametrize("call", [
        lambda inst: filter_update(inst.A, inst.B, inst.initial_beliefs[0], 1),
        lambda inst: find_threshold_K(inst.A, inst.B, 1),
    ], ids=["filter_update", "find_threshold_K"])
    def test_drift_raises(self, two_state_instance, monkeypatch, call):
        monkeypatch.setattr(filtering_module, "FILTER_SUM_TOL", -1.0)
        with pytest.raises(InvalidBeliefError):
            call(two_state_instance)


class TestDeadBranches:
    """``filter_rows`` is the tree kernels' one zero-likelihood rule: a
    dead branch's filtered row is its first live sibling's, bit for bit,
    while the live rows and every likelihood stay as the filter made
    them."""

    @pytest.mark.parametrize("B", [
        # absorbing_instance: state 1 never emits observation 2.
        [[1.0, 0.0], [0.3, 0.7]],
        # Its observations swapped: the dead branch comes first.
        [[0.0, 1.0], [0.7, 0.3]],
        # test_simulate.zero_likelihood_instance: each state has one
        # observation it cannot emit.
        [[0.6, 0.4, 0.0], [0.0, 0.5, 0.5], [0.2, 0.0, 0.8]],
    ], ids=["absorbing", "silent-first", "zero-likelihood"])
    def test_dead_row_is_first_live_sibling(self, B):
        B = np.array(B)
        X, Y = B.shape
        rng = np.random.default_rng(5)
        # Every point mass, each with a dead branch, and mixtures, which
        # have none; two leading blocks, as the DP's filter passes them.
        z = np.concatenate((np.eye(X), rng.dirichlet(np.ones(X), 3)))
        z = np.stack((z, z[::-1]))
        d, live, filtered = filtering_module.filter_rows(z, B)
        assert same_bits(d, in_order_dot(z, B))
        assert not live.all() and live.any(axis=-1).all()
        for k, i in np.ndindex(*z.shape[:2]):
            first = live[k, i].argmax()
            for m in range(Y):
                got = filtered[:, m, k, i]
                if not live[k, i, m]:
                    assert same_bits(got, filtered[:, first, k, i])
                    continue
                # The filter's own operations, row sum in order.
                want = B[:, m] * z[k, i] / d[k, i, m]
                s = want[0]
                for w in want[1:]:
                    s += w
                assert same_bits(got, want / s)


class TestInOrderNormaliser:
    def test_one_node_at_one_observation(self):
        """At Y = 1 one node's row sum is a reduction over a lone
        contiguous axis, which ``np.sum`` adds pairwise from 8 terms on.
        A seeded search of 400 random beliefs at X = 9 finds those whose
        pairwise and in-order sums differ; on each, ``filter_rows`` (and
        so ``filter_update``) must match the filter with its row sum in
        order, bit for bit."""
        X = 9
        B = np.ones((X, 1))
        found = []
        for z in np.random.default_rng(0).dirichlet(np.ones(X), 400):
            want = z / float(in_order_dot(z, B[:, 0]))
            s = want[0]
            for w in want[1:]:
                s += w
            if np.sum(want) != s:
                found.append((z, want / s))
        assert len(found) >= 50
        for z, want in found:
            d, live, filtered = filtering_module.filter_rows(z[None, None], B)
            assert live.all()
            assert same_bits(filtered[:, 0, 0, 0], want)
