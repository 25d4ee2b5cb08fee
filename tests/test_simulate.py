import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_simplex, random_stochastic
from restless_sched import (
    BeliefProfile,
    ModelInstance,
    PolicyRule,
    estimate_value,
    gen_assumption1_instance,
    myopic_policy,
    policy_value,
    round_robin_policy,
    seeded_random_policy,
    stay_policy,
)
from restless_sched.simulate import _BLOCK, _cdf, _inverse_cdf

#: The deep base instance (X=Y=N=3), which perfbench's simulate-mc runs at T=8.
DEEP = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "simulate.json"


def deterministic_instance() -> ModelInstance:
    """Identity dynamics and observations: nothing is random."""
    return ModelInstance(
        2, 2, 2, np.eye(2), np.eye(2), [0.0, 1.0], 0.5,
        [[1.0, 0.0], [0.0, 1.0]],
    )


def mixed_dims_instance() -> ModelInstance:
    """N=2 projects, X=3 states, Y=4 observations: confusing any two of
    the dimensions in an index breaks the engine."""
    rng = np.random.default_rng(3)
    return ModelInstance(
        2, 3, 4, random_stochastic(rng, 3, 3), random_stochastic(rng, 3, 4),
        [0.0, 0.4, 1.0], 0.7, [random_simplex(rng, 3) for _ in range(2)],
    )


def zero_likelihood_instance() -> ModelInstance:
    """N=3, X=3, Y=3 where each state cannot emit one observation, so
    some branches of the history tree have likelihood 0."""
    rng = np.random.default_rng(8)
    B = [[0.6, 0.4, 0.0], [0.0, 0.5, 0.5], [0.2, 0.0, 0.8]]
    return ModelInstance(
        3, 3, 3, random_stochastic(rng, 3, 3), B, [0.0, 0.5, 1.0], 0.8,
        [random_simplex(rng, 3) for _ in range(3)],
    )


def all_policies(inst) -> list:
    n = inst.n_projects
    return [myopic_policy(inst), round_robin_policy(n), stay_policy(1), seeded_random_policy(n, 4)]


def reference_totals(inst, policy, T, n_traj, seed):
    """The engine as first written, for comparison: stacked matmuls,
    two-index gathers and a row-sum filter, with the same RNG calls in
    the same order (blocks of ``_BLOCK`` trajectories from one
    generator)."""
    rng = np.random.default_rng(seed)
    N, X = inst.n_projects, inst.n_states
    A, B, R = inst.A.rows, inst.B.rows, inst.R.values
    x0 = np.stack([x.probs for x in inst.initial_beliefs])

    def cdf(pmf):
        c = np.cumsum(pmf, axis=-1)
        return c / c[..., -1:]

    def draw(c, row, u):
        out = np.zeros(u.shape, dtype=np.int64)
        for k in range(c.shape[-1] - 1):
            out += c[row, k] <= u
        return out

    blocks = []
    for start in range(0, n_traj, _BLOCK):
        n = min(_BLOCK, n_traj - start)
        rows = np.arange(n)
        beliefs = np.broadcast_to(x0, (n, N, X)).copy()
        current = draw(cdf(x0), np.arange(N), rng.random((N, n)).T)
        totals, scale = np.zeros(n), 1.0
        for t in range(T + 1):
            u = policy.decide(t, beliefs)
            totals += scale * R[current[rows, u]]
            scale *= inst.beta
            nxt = draw(cdf(A), current, rng.random((n, N)))
            obs = draw(cdf(B), nxt[rows, u], rng.random(n))
            if t < T:
                beliefs = beliefs @ A
                num = beliefs[rows, u] * B[:, obs].T
                beliefs[rows, u] = num / num.sum(axis=1, keepdims=True)
            current = nxt
        blocks.append(totals)
    return np.concatenate(blocks)


class TestEngineMatchesReference:
    @pytest.mark.parametrize("seed", [5, 2024])
    def test_totals_bit_identical_across_a_block_boundary(self, seed):
        inst = mixed_dims_instance()
        for policy in (myopic_policy(inst), round_robin_policy(2)):
            _, _, totals = estimate_value(inst, policy, 5, _BLOCK + 3, seed, return_totals=True)
            assert np.array_equal(totals, reference_totals(inst, policy, 5, _BLOCK + 3, seed))

    # Once Y^t exceeds n_traj nearly every trajectory has a history of
    # its own; below it, many trajectories share one table row.
    @pytest.mark.parametrize("T, n_traj", [(10, 40), (3, _BLOCK + 3)])
    def test_totals_bit_identical_for_every_policy(self, T, n_traj):
        inst = mixed_dims_instance()
        for policy in all_policies(inst):
            _, _, totals = estimate_value(inst, policy, T, n_traj, 31, return_totals=True)
            assert np.array_equal(totals, reference_totals(inst, policy, T, n_traj, 31))

    @pytest.mark.parametrize("T, n_traj", [(10, 40), (4, 3000)])
    def test_totals_bit_identical_with_impossible_observations(self, T, n_traj):
        inst = zero_likelihood_instance()
        for policy in all_policies(inst):
            _, _, totals = estimate_value(inst, policy, T, n_traj, 9, return_totals=True)
            assert np.array_equal(totals, reference_totals(inst, policy, T, n_traj, 9))

    # At _BLOCK the one block fills the workspace; at 2 * _BLOCK + 1 the
    # last block is a one-trajectory view of it.
    @pytest.mark.parametrize("n_traj", [_BLOCK, 2 * _BLOCK + 1])
    def test_totals_bit_identical_at_block_multiples(self, n_traj):
        inst = mixed_dims_instance()
        for policy in (myopic_policy(inst), seeded_random_policy(2, 4)):
            _, _, totals = estimate_value(inst, policy, 3, n_traj, 17, return_totals=True)
            assert np.array_equal(totals, reference_totals(inst, policy, 3, n_traj, 17))

    def test_consecutive_calls_identical(self):
        # Nothing a call leaves behind reaches the next one.
        inst = zero_likelihood_instance()
        policy = myopic_policy(inst)
        first = estimate_value(inst, policy, 4, _BLOCK + 5, 3, return_totals=True)
        estimate_value(inst, policy, 6, 700, 8)
        second = estimate_value(inst, policy, 4, _BLOCK + 5, 3, return_totals=True)
        assert first[:2] == second[:2]
        assert np.array_equal(first[2], second[2])

    def test_myopic_decisions_vary(self):
        # The comparisons above mean something only if the myopic policy
        # works both projects.
        inst = mixed_dims_instance()
        policy, calls = myopic_policy(inst), []
        estimate_value(inst, spy_rule(policy, calls), 10, 40, 31)
        decisions = np.concatenate([policy.decide(t, beliefs) for t, beliefs in calls])
        assert set(decisions.tolist()) == {0, 1}


def constant_rule(project: int) -> PolicyRule:
    """A rule that returns one 0-based project for every row, in range or not."""
    return PolicyRule(f"always-{project}", lambda t, beliefs: np.full(len(beliefs), project))


def spy_rule(inner: PolicyRule, calls: list) -> PolicyRule:
    """``inner``, recording the slot and the profiles of every call."""

    def decide(t, beliefs):
        calls.append((t, beliefs.copy()))
        return inner.decide(t, beliefs)

    return PolicyRule(inner.name, decide)


class TestHistoryTable:
    @pytest.mark.parametrize("T, n_traj", [(6, 40), (5, 5000)])
    def test_decide_sees_one_profile_per_history(self, T, n_traj):
        inst = mixed_dims_instance()
        calls = []
        estimate_value(inst, spy_rule(myopic_policy(inst), calls), T, n_traj, 2)
        assert [t for t, _ in calls] == list(range(T + 1))
        x0 = np.stack([x.probs for x in inst.initial_beliefs])
        assert np.array_equal(calls[0][1], x0[None])
        for t, beliefs in calls:
            assert 1 <= len(beliefs) <= min(n_traj, inst.n_obs ** t)
            assert np.allclose(beliefs.sum(axis=-1), 1.0)
        # Trajectories do spread over distinct histories.
        assert len(calls[-1][1]) > len(calls[1][1]) > 1


def shaped_rule(shape) -> PolicyRule:
    """A rule that answers n profiles with zeros of shape ``shape(n)``."""
    return PolicyRule("misshapen", lambda t, beliefs: np.zeros(shape(len(beliefs)), dtype=np.int64))


#: A rule whose in-range decisions are floats, and the error it must raise.
FLOAT_RULE = PolicyRule("floating", lambda t, beliefs: np.ones(len(beliefs)))
FLOAT_DECISIONS = "policy 'floating' returned decisions of dtype float64; expected integers"


class TestRejectedInput:
    # Small n only: an (n, 1) decision broadcast against n trajectories
    # would make an (n, n) array.
    @pytest.mark.parametrize("shape, shown", [(lambda n: (n, 1), r"\(1, 1\)"), (lambda n: (), r"\(\)")])
    def test_misshapen_decision_raises(self, shape, shown):
        inst = mixed_dims_instance()
        rule = shaped_rule(shape)
        message = f"policy 'misshapen' returned decisions of shape {shown} for 1 profiles"
        with pytest.raises(ValueError, match=message):
            estimate_value(inst, rule, 3, 20, 0)
        with pytest.raises(ValueError, match=message):
            policy_value(inst, BeliefProfile(inst.initial_beliefs, 0), 0, 3, rule)

    def test_float_decision_raises_in_estimate_value(self):
        with pytest.raises(ValueError, match=FLOAT_DECISIONS):
            estimate_value(mixed_dims_instance(), FLOAT_RULE, 3, 20, 0)

    def test_float_decision_raises_in_policy_value(self):
        inst = mixed_dims_instance()
        with pytest.raises(ValueError, match=FLOAT_DECISIONS):
            policy_value(inst, BeliefProfile(inst.initial_beliefs, 0), 0, 3, FLOAT_RULE)

    @pytest.mark.parametrize("project", [-1, 2])
    def test_out_of_range_decision_raises(self, project):
        inst = mixed_dims_instance()
        rule = constant_rule(project)
        with pytest.raises(IndexError, match=f"chose project {project + 1} of 2"):
            estimate_value(inst, rule, 3, 100, 0)

    def test_negative_horizon_raises(self):
        inst = mixed_dims_instance()
        pol = myopic_policy(inst)
        with pytest.raises(ValueError, match="horizon"):
            estimate_value(inst, pol, -1, 100, 0)

    @pytest.mark.parametrize("T, n_traj, shown", [(2.5, 100, "T"), (3, 100.0, "n_traj")])
    def test_non_integer_horizon_or_count_raises(self, T, n_traj, shown):
        inst = mixed_dims_instance()
        with pytest.raises(TypeError, match=f"^{shown} must be an integer"):
            estimate_value(inst, myopic_policy(inst), T, n_traj, 0)

    def test_numpy_integer_horizon_and_count_accepted(self):
        inst = mixed_dims_instance()
        pol = myopic_policy(inst)
        assert estimate_value(inst, pol, np.int64(3), np.int32(100), 0) == estimate_value(
            inst, pol, 3, 100, 0
        )

    # isinstance(True, int) holds: unchecked, True ran a horizon-1
    # estimate.
    @pytest.mark.parametrize(
        "T, n_traj, shown", [(True, 100, "T"), (np.True_, 100, "T"), (3, True, "n_traj")]
    )
    def test_bool_horizon_or_count_raises(self, T, n_traj, shown):
        inst = mixed_dims_instance()
        with pytest.raises(TypeError, match=f"^{shown} must be an integer, got .*True_?$"):
            estimate_value(inst, myopic_policy(inst), T, n_traj, 0)

    @pytest.mark.parametrize("seed, shown", [(0.5, "0.5"), (2.0, "2.0"), (True, "True")])
    def test_non_integer_seed_raises(self, seed, shown):
        inst = mixed_dims_instance()
        with pytest.raises(TypeError, match=f"^seed must be an integer, got {shown}$"):
            estimate_value(inst, myopic_policy(inst), 3, 100, seed)

    def test_numpy_and_negative_seeds_accepted(self):
        """A numpy integer seed draws as the Python int of its value, and
        a negative seed is taken modulo 2**64, as ``simulate --seed``
        accepts any int."""
        inst = mixed_dims_instance()
        pol = myopic_policy(inst)
        for seed, same in ((np.int64(5), 5), (np.uint64(7), 7), (np.int32(-3), 2**64 - 3),
                           (-1, 2**64 - 1)):
            assert estimate_value(inst, pol, 3, 100, seed) == estimate_value(inst, pol, 3, 100, same)


def inverse_cdf(cdf: np.ndarray, row, u: np.ndarray) -> np.ndarray:
    """``_inverse_cdf`` into freshly allocated buffers: ``intp`` draws."""
    return _inverse_cdf(
        cdf, row, u,
        out=np.empty(u.shape, dtype=np.intp),
        threshold=np.empty(np.shape(row)),
        mask=np.empty(u.shape, dtype=bool),
        count=np.empty(u.shape, dtype=np.min_scalar_type(cdf.shape[-1] - 1)),
    )


class TestInverseCdf:
    def test_explicit_uniforms(self):
        cdf = _cdf(np.array([[0.25, 0.5, 0.25], [0.0, 0.0, 1.0]]))
        u = np.array([0.0, 0.2499, 0.25, 0.7499, 0.75, 0.999999])
        assert inverse_cdf(cdf, 0, u).tolist() == [0, 0, 1, 1, 2, 2]
        assert inverse_cdf(cdf, 1, u).tolist() == [2] * 6
        assert inverse_cdf(cdf, np.array([1, 0]), np.array([0.5, 0.5])).tolist() == [2, 1]

    def test_top_of_short_distribution(self):
        # Validation accepts rows summing to 1 within 1e-9; a uniform
        # above the raw last cumulative sum must still draw the last state.
        pmf = np.array([[0.3, 0.7 - 1e-9]])
        assert np.cumsum(pmf)[-1] < 1 - 1e-10
        cdf = _cdf(pmf)
        assert cdf[0, -1] == 1.0
        assert inverse_cdf(cdf, 0, np.array([1 - 1e-10])).tolist() == [1]

    def test_trailing_zero_probability_never_drawn(self):
        cdf = _cdf(np.array([[0.5, 0.5 - 1e-9, 0.0]]))
        u = np.array([1 - 1e-10, 0.9999999999999999])
        assert inverse_cdf(cdf, 0, u).tolist() == [1, 1]

    @pytest.mark.parametrize("X", [2, 3, 257])
    def test_matches_argmax_reference(self, X):
        # The first entry above each uniform, found by argmax over the
        # whole row; uniforms include every cdf entry below 1 exactly,
        # and rows have zero-probability states (repeated entries).
        rng = np.random.default_rng(X)
        pmf = rng.uniform(0.0, 1.0, (4, X))
        pmf[rng.uniform(size=pmf.shape) < 0.3] = 0.0
        pmf[:, 0] += 1e-3
        cdf = _cdf(pmf / pmf.sum(axis=1, keepdims=True))
        u = [np.concatenate(([0.0], c[c < 1.0], rng.random(50))) for c in cdf]
        row = np.repeat(np.arange(4), [len(v) for v in u])
        u = np.concatenate(u)
        assert np.isin(cdf[cdf < 1.0], u).all()
        got = inverse_cdf(cdf, row, u)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, np.argmax(cdf[row] > u[:, None], axis=1))


class TestWorkspaceMemory:
    def test_deep_batch_memory(self):
        """One workspace serves every block and slot of a call: 400,000
        trajectories of the deep instance at T=8 peaked at 11.4 MiB of
        traced memory with fresh temporaries per slot, 13.4 MiB with
        draw buffers shared by the draws, and 18.7 MiB with one buffer
        per role."""
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instance"])
        tracemalloc.start()
        try:
            mean, _ = estimate_value(inst, myopic_policy(inst), 8, 400_000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(mean)
        assert peak < 16 * 2**20


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

    def test_beta_zero_counts_only_slot_0(self):
        # The horizon-0 run draws a prefix of the horizon-5 run's
        # uniforms, and with beta = 0 every later slot adds 0.0.
        inst = mixed_dims_instance()
        inst0 = ModelInstance(2, 3, 4, inst.A, inst.B, inst.R, 0.0, inst.initial_beliefs)
        pol = myopic_policy(inst0)
        totals = estimate_value(inst0, pol, 5, 300, 3, return_totals=True)[2]
        first = estimate_value(inst0, pol, 0, 300, 3, return_totals=True)[2]
        assert np.array_equal(totals, first)
        assert set(totals.tolist()) <= set(inst.R.values.tolist())

    def test_passive_marginal_matches_propagation(self, small_params):
        # A hidden chain moves by A whether its project is worked or not,
        # so project j's slot-T state follows (A')^T x0_j within
        # multinomial noise.  With R = 0..X-1 and one block, the horizon
        # T-1 run draws a prefix of the horizon-T run's uniforms, so a
        # trajectory's two totals differ by beta^T times its worked
        # project's slot-T state.
        gen = gen_assumption1_instance(small_params, 2)
        X = gen.n_states
        inst = ModelInstance(
            gen.n_projects, X, gen.n_obs, gen.A, gen.B, np.arange(X, dtype=float), gen.beta,
            gen.initial_beliefs,
        )
        n, T = 20000, 3
        for j, x0 in enumerate(inst.initial_beliefs, start=1):
            pol = stay_policy(j)
            last = estimate_value(inst, pol, T, n, 5000, return_totals=True)[2]
            before = estimate_value(inst, pol, T - 1, n, 5000, return_totals=True)[2]
            state = (last - before) / inst.beta ** T
            assert np.allclose(state, np.rint(state), rtol=0.0, atol=1e-6)
            emp = np.bincount(np.rint(state).astype(int), minlength=X) / n
            expect = np.linalg.matrix_power(inst.A.rows.T, T) @ x0.probs
            sigma = np.sqrt(expect * (1 - expect) / n)
            assert np.all(np.abs(emp - expect) <= 3.5 * sigma + 1e-12)
