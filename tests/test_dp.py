import numpy as np
import pytest

import restless_sched.policy as policy_module
from restless_sched import (
    BeliefProfile,
    DimensionMismatchError,
    InvalidBeliefError,
    NodeBudgetExceededError,
    certify_myopic,
    gen_assumption1_instance,
    optimal_value,
    policy_value,
    round_robin_policy,
    seeded_random_policy,
    stay_policy,
)
from restless_sched.filtering import filter_update, obs_likelihood, propagate
from restless_sched.types import ModelInstance


def _successors(inst: ModelInstance, beliefs, u):
    """(likelihood, next beliefs) per possible observation after working u."""
    for m in range(1, inst.n_obs + 1):
        d = obs_likelihood(inst.A, inst.B, beliefs[u], m)
        if d <= 0.0:
            continue
        nxt = [
            filter_update(inst.A, inst.B, b, m) if k == u else propagate(inst.A, b)
            for k, b in enumerate(beliefs)
        ]
        yield d, nxt


def brute_force_optimal(inst: ModelInstance, T: int) -> float:
    """Exhaustive maximum over all history-dependent deterministic policies.

    Written independently of the DP code: enumerates the action at every
    reachable (t, observation-history) node by direct recursion and takes
    the max over actions at each node.  Exponential; only for tiny cases.
    """

    def value(t, beliefs):
        best = -np.inf
        for u in range(inst.n_projects):
            v = float(inst.R.values @ beliefs[u].probs)
            if t < T:
                acc = 0.0
                for d, nxt in _successors(inst, beliefs, u):
                    acc += d * value(t + 1, nxt)
                v += inst.beta * acc
            best = max(best, v)
        return best

    return value(0, list(inst.initial_beliefs))


def brute_force_node_counts(inst: ModelInstance, T: int) -> tuple[int, ...]:
    """Distinct rounded profiles per depth over every observation history
    and action, enumerated without merging along the way."""
    level = [list(inst.initial_beliefs)]
    counts = []
    for t in range(T + 1):
        counts.append(len({b"".join(b.key() for b in beliefs) for beliefs in level}))
        if t < T:
            level = [
                nxt
                for beliefs in level
                for u in range(inst.n_projects)
                for _, nxt in _successors(inst, beliefs, u)
            ]
    return tuple(counts)


def recursive_policy_value(inst: ModelInstance, pol, T: int) -> float:
    """A policy's value by direct recursion over observation histories."""

    def value(t, beliefs):
        u = int(pol.decide(t, np.array([[b.probs for b in beliefs]]))[0])
        v = float(inst.R.values @ beliefs[u].probs)
        if t < T:
            v += inst.beta * sum(d * value(t + 1, nxt) for d, nxt in _successors(inst, beliefs, u))
        return v

    return value(0, list(inst.initial_beliefs))


class TestOptimalValue:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(3)
        for k in range(20):
            M = rng.uniform(0.05, 1.0, (2, 2))
            A = M / M.sum(axis=1, keepdims=True)
            M = rng.uniform(0.05, 1.0, (2, 2))
            B = M / M.sum(axis=1, keepdims=True)
            R = np.sort(rng.uniform(0.0, 2.0, 2))
            R[1] += 0.01
            x0 = [rng.dirichlet([1, 1]) for _ in range(2)]
            inst = ModelInstance(2, 2, 2, A, B, R, float(rng.uniform(0.1, 0.9)), x0)
            prof = BeliefProfile(inst.initial_beliefs, 0)
            got, _ = optimal_value(inst, prof, 0, 2)
            want = brute_force_optimal(inst, 2)
            assert got == pytest.approx(want, abs=1e-10), f"instance {k}"

    def test_horizon_zero_is_best_immediate(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        got, action = optimal_value(two_state_instance, prof, 0, 0)
        immediate = [float(two_state_instance.R.values @ b.probs) for b in prof.beliefs]
        assert got == pytest.approx(max(immediate))
        assert action == int(np.argmax(immediate)) + 1

    def test_tie_breaks_lowest_action(self, two_state_instance):
        prof = BeliefProfile([[0.5, 0.5], [0.5, 0.5]], 0)
        _, action = optimal_value(two_state_instance, prof, 0, 1)
        assert action == 1

    def test_t_beyond_horizon_rejected(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        with pytest.raises(ValueError):
            optimal_value(two_state_instance, prof, 3, 2)

    def test_node_budget_enforced(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        with pytest.raises(NodeBudgetExceededError):
            optimal_value(two_state_instance, prof, 0, 6, node_budget=10)

    def test_node_budget_boundary(self, small_params):
        inst = gen_assumption1_instance(small_params, 0)
        prof = BeliefProfile(inst.initial_beliefs, 0)
        total = sum(certify_myopic(inst, 3).per_depth_node_counts)
        assert certify_myopic(inst, 3, node_budget=total).horizon == 3
        optimal_value(inst, prof, 0, 3, node_budget=total)
        with pytest.raises(NodeBudgetExceededError):
            certify_myopic(inst, 3, node_budget=total - 1)
        with pytest.raises(NodeBudgetExceededError):
            optimal_value(inst, prof, 0, 3, node_budget=total - 1)

    def test_zero_likelihood_branch(self, absorbing_instance):
        inst = absorbing_instance
        prof = BeliefProfile(inst.initial_beliefs, 0)
        T = 4
        got, _ = optimal_value(inst, prof, 0, T)
        assert got == pytest.approx(brute_force_optimal(inst, T), abs=1e-10)
        counts = certify_myopic(inst, T).per_depth_node_counts
        assert counts == brute_force_node_counts(inst, T)

    def test_node_counts_match_enumeration(self, small_params):
        for seed in (0, 5):
            inst = gen_assumption1_instance(small_params, seed)
            counts = certify_myopic(inst, 3).per_depth_node_counts
            assert counts == brute_force_node_counts(inst, 3), f"seed {seed}"

    def test_depends_only_on_slots_left(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        prof = BeliefProfile(inst.initial_beliefs, 0)
        for t in (1, 2, 4):
            assert optimal_value(inst, prof, t, 4) == optimal_value(inst, prof, 0, 4 - t)

    def test_filter_drift_raises(self, two_state_instance, monkeypatch):
        monkeypatch.setattr(policy_module, "FILTER_SUM_TOL", -1.0)
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        with pytest.raises(InvalidBeliefError):
            optimal_value(two_state_instance, prof, 0, 1)

    def test_returns_python_scalars(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        value, action = optimal_value(two_state_instance, prof, 0, 2)
        assert type(value) is float
        assert type(action) is int

    def test_profile_must_fit_instance(self, two_state_instance):
        inst = two_state_instance
        for beliefs in ([[0.5, 0.5]] * 3, [[0.2, 0.3, 0.5]] * 2):
            with pytest.raises(DimensionMismatchError):
                optimal_value(inst, BeliefProfile(beliefs, 0), 0, 2)


class TestPolicyValueLevels:
    def test_belief_blind_policies_match_recursion(self, small_params, absorbing_instance):
        for inst in (gen_assumption1_instance(small_params, 4), absorbing_instance):
            prof = BeliefProfile(inst.initial_beliefs, 0)
            for pol in (
                round_robin_policy(inst.n_projects),
                seeded_random_policy(inst.n_projects, 11),
            ):
                got = policy_value(inst, prof, 0, 4, pol)
                assert got == pytest.approx(recursive_policy_value(inst, pol, 4), abs=1e-12)

    def test_out_of_range_decision_raises(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        with pytest.raises(IndexError):
            policy_value(two_state_instance, prof, 0, 2, stay_policy(3))


class TestCertifyMyopic:
    def test_certified_instance_zero_gap(self, small_params):
        inst = gen_assumption1_instance(small_params, 0)
        rep = certify_myopic(inst, 3)
        assert rep.gap <= 1e-9
        assert rep.argmax_agreement == 1.0
        assert rep.optimal_value >= rep.myopic_value - 1e-12

    def test_negative_horizon_rejected(self, two_state_instance):
        with pytest.raises(ValueError, match="horizon"):
            certify_myopic(two_state_instance, -1)

    def test_report_fields(self, small_params):
        inst = gen_assumption1_instance(small_params, 1)
        rep = certify_myopic(inst, 2)
        assert rep.horizon == 2
        assert len(rep.per_depth_node_counts) == 3
        assert rep.per_depth_node_counts[0] == 1
        doc = rep.to_json_dict()
        assert set(doc) == {
            "optimal_value", "myopic_value", "gap", "per_depth_node_counts",
            "argmax_agreement", "best_action", "horizon",
        }

    def test_report_holds_python_scalars(self, small_params):
        doc = certify_myopic(gen_assumption1_instance(small_params, 1), 2).to_json_dict()
        for key in ("optimal_value", "myopic_value", "gap", "argmax_agreement"):
            assert type(doc[key]) is float, key
        for key in ("best_action", "horizon"):
            assert type(doc[key]) is int, key
        assert all(type(c) is int for c in doc["per_depth_node_counts"])

    def test_probe_outside_verified_regime(self):
        # Outside the verified regimes nothing is guaranteed, but the
        # certifier must still produce a well-formed report.  (Empirically
        # the gap is almost always zero even here, matching the
        # conjecture that the separation clause is not necessary.)
        rng = np.random.default_rng(5)
        for _ in range(60):
            M = rng.uniform(0.02, 1.0, (2, 2))
            A = M / M.sum(axis=1, keepdims=True)
            M = rng.uniform(0.02, 1.0, (2, 2))
            B = M / M.sum(axis=1, keepdims=True)
            R = np.array([0.0, 1.0])
            x0 = [rng.dirichlet([1, 1]) for _ in range(2)]
            inst = ModelInstance(2, 2, 2, A, B, R, 0.95, x0)
            rep = certify_myopic(inst, 3)
            assert rep.gap >= -1e-12
            assert 0.0 <= rep.argmax_agreement <= 1.0
