import numpy as np
import pytest

from restless_sched import (
    BeliefProfile,
    ModelInstance,
    estimate_value,
    gen_assumption1_instance,
    myopic_policy,
    policy_value,
    sample_trajectory,
    stay_policy,
)
from restless_sched.simulate import _cdf, _inverse_cdf


def deterministic_instance() -> ModelInstance:
    """Identity dynamics and observations: nothing is random."""
    return ModelInstance(
        2, 2, 2, np.eye(2), np.eye(2), [0.0, 1.0], 0.5,
        [[1.0, 0.0], [0.0, 1.0]],
    )


class TestSampleTrajectory:
    def test_identity_chain_constant(self):
        inst = deterministic_instance()
        tr = sample_trajectory(inst, stay_policy(2), 4, 0)
        assert np.all(tr.states[0] == 1)
        assert np.all(tr.states[1] == 2)
        # Observing project 2 always reads its (constant) state.
        assert np.all(tr.observations == 2)
        assert np.all(tr.rewards == 1.0)

    def test_discounted_total_identity(self, small_params):
        inst = gen_assumption1_instance(small_params, 2)
        tr = sample_trajectory(inst, myopic_policy(inst), 6, 9)
        manual = sum(inst.beta ** t * tr.rewards[t] for t in range(7))
        assert tr.discounted_total == pytest.approx(manual, abs=1e-12)

    def test_beta_zero(self):
        inst = deterministic_instance()
        inst0 = ModelInstance(2, 2, 2, inst.A, inst.B, inst.R, 0.0, inst.initial_beliefs)
        tr = sample_trajectory(inst0, stay_policy(1), 5, 3)
        assert tr.discounted_total == pytest.approx(tr.rewards[0])

    def test_seed_replay_bit_identical(self, small_params):
        inst = gen_assumption1_instance(small_params, 2)
        a = sample_trajectory(inst, myopic_policy(inst), 8, 123)
        b = sample_trajectory(inst, myopic_policy(inst), 8, 123)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.observations, b.observations)
        assert a.discounted_total == b.discounted_total

    def test_shapes(self, small_params):
        inst = gen_assumption1_instance(small_params, 2)
        T = 5
        tr = sample_trajectory(inst, myopic_policy(inst), T, 1)
        assert tr.states.shape == (inst.n_projects, T + 1)
        assert tr.actions.shape == (T + 1,)
        assert set(np.unique(tr.actions)) <= set(range(1, inst.n_projects + 1))
        assert set(np.unique(tr.observations)) <= set(range(1, inst.n_obs + 1))


class TestInverseCdf:
    def test_explicit_uniforms(self):
        cdf = _cdf(np.array([[0.25, 0.5, 0.25], [0.0, 0.0, 1.0]]))
        u = np.array([0.0, 0.2499, 0.25, 0.7499, 0.75, 0.999999])
        assert _inverse_cdf(cdf, 0, u).tolist() == [0, 0, 1, 1, 2, 2]
        assert _inverse_cdf(cdf, 1, u).tolist() == [2] * 6
        assert _inverse_cdf(cdf, np.array([1, 0]), np.array([0.5, 0.5])).tolist() == [2, 1]

    def test_top_of_short_distribution(self):
        # Validation accepts rows summing to 1 within 1e-9; a uniform
        # above the raw last cumulative sum must still draw the last state.
        pmf = np.array([[0.3, 0.7 - 1e-9]])
        assert np.cumsum(pmf)[-1] < 1 - 1e-10
        cdf = _cdf(pmf)
        assert cdf[0, -1] == 1.0
        assert _inverse_cdf(cdf, 0, np.array([1 - 1e-10])).tolist() == [1]

    def test_trailing_zero_probability_never_drawn(self):
        cdf = _cdf(np.array([[0.5, 0.5 - 1e-9, 0.0]]))
        u = np.array([1 - 1e-10, 0.9999999999999999])
        assert _inverse_cdf(cdf, 0, u).tolist() == [1, 1]


class TestEstimateValue:
    def test_totals_do_not_change_estimate(self, small_params):
        inst = gen_assumption1_instance(small_params, 2)
        pol = myopic_policy(inst)
        plain = estimate_value(inst, pol, 5, 500, 11)
        with_totals = estimate_value(inst, pol, 5, 500, 11, return_totals=True)
        assert with_totals[:2] == plain
        assert float(with_totals[2].mean()) == plain[0]

    def test_deterministic_instance_zero_stderr(self):
        inst = deterministic_instance()
        mean, stderr = estimate_value(inst, stay_policy(2), 3, 50, 0)
        assert stderr == 0.0
        assert mean == pytest.approx(sum(0.5 ** t for t in range(4)))

    def test_n_traj_minimum(self):
        with pytest.raises(ValueError):
            estimate_value(deterministic_instance(), stay_policy(1), 2, 1, 0)

    def test_batched_matches_exact_within_error(self, small_params):
        inst = gen_assumption1_instance(small_params, 2)
        pol = myopic_policy(inst)
        T = 6
        exact = policy_value(inst, BeliefProfile(inst.initial_beliefs, 0), 0, T, pol)
        mean, stderr = estimate_value(inst, pol, T, 20000, 77)
        assert abs(mean - exact) <= 4.0 * stderr

    def test_slow_path_matches_exact_within_error(self, small_params):
        inst = gen_assumption1_instance(small_params, 2)
        pol = myopic_policy(inst)
        T = 5
        exact = policy_value(inst, BeliefProfile(inst.initial_beliefs, 0), 0, T, pol)
        mean, stderr, totals = estimate_value(inst, pol, T, 3000, 7, return_totals=True)
        assert totals.shape == (3000,)
        assert abs(mean - exact) <= 4.0 * stderr

    def test_two_seeds_statistically_consistent(self, small_params):
        inst = gen_assumption1_instance(small_params, 2)
        pol = myopic_policy(inst)
        m1, s1 = estimate_value(inst, pol, 5, 20000, 1)
        m2, s2 = estimate_value(inst, pol, 5, 20000, 2)
        assert abs(m1 - m2) <= 6.0 * max(s1, s2)

    def test_passive_marginal_matches_propagation(self, small_params):
        # Empirical state distribution of a never-worked project after t
        # steps must match (A')^t x0 within multinomial noise.
        inst = gen_assumption1_instance(small_params, 2)
        n, t_check = 20000, 3
        counts = np.zeros(inst.n_states)
        pol = stay_policy(1)
        for i in range(n):
            tr = sample_trajectory(inst, pol, t_check, 5000 + i)
            counts[tr.states[-1, t_check] - 1] += 1
        expect = inst.initial_beliefs[-1].probs.copy()
        for _ in range(t_check):
            expect = inst.A.rows.T @ expect
        emp = counts / n
        sigma = np.sqrt(expect * (1 - expect) / n)
        assert np.all(np.abs(emp - expect) <= 3.5 * sigma + 1e-12)
