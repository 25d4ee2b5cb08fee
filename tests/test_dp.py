import json
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    dirichlet_instance,
    reference_expand,
    reference_filter,
    reference_leaves,
    reference_merge,
    reference_solve,
    report_bits,
    row_keys,
)

import restless_sched.filtering as filtering_module
import restless_sched.policy as policy_module
from restless_sched import (
    BeliefProfile,
    BeliefVector,
    DimensionMismatchError,
    InvalidBeliefError,
    NodeBudgetExceededError,
    certify_myopic,
    gen_assumption1_instance,
    myopic_policy,
    optimal_value,
    policy_value,
    round_robin_policy,
    seeded_random_policy,
    stay_policy,
)
from restless_sched.cli import main
from restless_sched.policy import TreeEvaluator, distinct_nodes
from restless_sched.types import ModelInstance

DEEP = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "deep.json"


def _successors(inst: ModelInstance, beliefs, u):
    """(likelihood, next beliefs) per possible observation after working u."""
    A, B = inst.A.rows, inst.B.rows
    for m in range(inst.n_obs):
        d, worked = reference_filter(A, B, beliefs[u].probs, m)
        if worked is None:
            continue
        nxt = [
            BeliefVector(worked) if k == u else BeliefVector(A.T @ b.probs)
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
        monkeypatch.setattr(filtering_module, "FILTER_SUM_TOL", -1.0)
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


def rank_one_instance() -> ModelInstance:
    """Every row of A is the same law, so every parent propagates to the
    same profile and children of different parents coincide."""
    A = np.array([[0.3, 0.5, 0.2]] * 3)
    B = np.array([[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]])
    x0 = [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]
    return ModelInstance(2, 3, 2, A, B, np.array([0.0, 0.5, 1.0]), 0.8, x0)


#: Instances whose leaf levels the leaf pass must value and count bit
#: for bit as built children: zero-likelihood leaves, unequal N, X and
#: Y, X=9 (numpy sums 8 or more contiguous terms pairwise, but the
#: filter's row sums add them in order), and children of different
#: parents that coincide.
LEAF_INSTANCES = {
    "absorbing": None,
    "mixed N=4 X=2 Y=5": lambda: dirichlet_instance(41, 4, 2, 5),
    "X=9": lambda: dirichlet_instance(9, 2, 9, 3),
    "rank-one A": rank_one_instance,
}


@pytest.fixture(params=list(LEAF_INSTANCES))
def leaf_instance(request, absorbing_instance) -> ModelInstance:
    make = LEAF_INSTANCES[request.param]
    return absorbing_instance if make is None else make()


def initial_level(inst: ModelInstance, depth: int) -> np.ndarray:
    """The DP's merged level at ``depth`` below the initial profile."""
    ev = TreeEvaluator(inst, depth)
    level = np.array((tuple(x.probs for x in inst.initial_beliefs),))
    for _ in range(depth):
        every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
        children = ev.expand(level, every_action)[0]
        level = children[distinct_nodes(children)[0]]
    return level


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestLeafPass:
    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    def test_reports_match_reference(self, leaf_instance, T):
        inst = leaf_instance
        beliefs = [x.probs for x in inst.initial_beliefs]
        want = reference_solve(inst, beliefs, 0, T)
        assert report_bits(certify_myopic(inst, T)) == report_bits(want)
        prof = BeliefProfile(inst.initial_beliefs, 0)
        for t in (T - 1, T - 2):
            if t >= 0:
                want = reference_solve(inst, beliefs, t, T)
                value, action = optimal_value(inst, prof, t, T)
                assert (value.hex(), action) == (want.optimal_value.hex(), want.best_action)

    def test_deep_input_matches_reference(self):
        # Input 14's T=6 leaves straddle rounding lines, so its node
        # count (137,282 with this build) depends on the last bits.
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][14]["instance"])
        beliefs = [x.probs for x in inst.initial_beliefs]
        want = reference_solve(inst, beliefs, 0, doc["horizon"])
        assert report_bits(certify_myopic(inst, doc["horizon"])) == report_bits(want)

    @pytest.mark.parametrize("depth", [0, 2])
    def test_leaves_match_built_children(self, leaf_instance, depth):
        inst = leaf_instance
        level = initial_level(inst, depth)
        ev = TreeEvaluator(inst, depth + 1)
        *got, count = ev.leaves(level.copy())
        *want, obs, want_count = reference_leaves(ev, level)
        # The leaf pass lists children observation-major.
        segment = want[2]
        order = np.lexsort((segment // ev.N, segment % ev.N, obs))
        for g, w in zip(got, want):
            assert same_bits(g, w[order])
        assert count == want_count

    @pytest.mark.parametrize("K", [1, 2, "every"])
    def test_expand_matches_reference(self, leaf_instance, K):
        inst = leaf_instance
        level = initial_level(inst, 2)
        ev = TreeEvaluator(inst, 3)
        if K == "every":
            actions = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
        else:
            actions = np.random.default_rng(K).integers(0, ev.N, (len(level), K))
        got = ev.expand(level, actions)
        want = reference_expand(ev, level, actions)
        for g, w in zip(got, want):
            assert same_bits(g, w)

    def test_children_of_different_parents_compared_whole(self, exact_merges):
        inst = rank_one_instance()
        level = initial_level(inst, 2)
        ev = TreeEvaluator(inst, 3)
        every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
        children, parent, _, _, _ = reference_expand(ev, level, every_action)
        _, first, inverse = np.unique(row_keys(children), return_index=True, return_inverse=True)
        # Some child shares its key with a child of another parent.
        assert (parent[first][inverse.ravel()] != parent).any()
        assert ev.leaves(level)[-1] == reference_leaves(ev, level)[-1] == len(first)
        assert not exact_merges

    @pytest.mark.parametrize(
        "multipliers, instance",
        [
            pytest.param(multipliers, instance, id=name + suffix)
            for instance, suffix in [
                ("mixed N=4 X=2 Y=5", ""),
                # Zero-likelihood children: the key rows of the live
                # children are found through their live indices.
                ("absorbing", "-absorbing"),
            ]
            for name, multipliers in [
                # Every fingerprint is zero: every child ties.
                ("zero", lambda n: np.zeros(n, dtype=np.uint64)),
                # Only key column 0 counts: children that differ only
                # in later columns tie.
                ("column-0", lambda n: (np.arange(n) == 0).astype(np.uint64)),
            ]
        ],
    )
    def test_fingerprint_collision_falls_back_to_exact_count(
        self, monkeypatch, exact_merges, multipliers, instance, absorbing_instance
    ):
        make = LEAF_INSTANCES[instance]
        inst = absorbing_instance if make is None else make()
        level = initial_level(inst, 2)
        ev = TreeEvaluator(inst, 3)
        want = reference_leaves(ev, level)[-1]
        # The leaf count merges key rows built from the parents' key
        # bits: it neither builds the level nor goes through
        # distinct_nodes, whose fingerprints would tie again.
        calls = []
        merge, expand = policy_module.distinct_nodes, TreeEvaluator.expand
        monkeypatch.setattr(
            policy_module, "distinct_nodes", lambda *a: calls.append("merge") or merge(*a)
        )
        monkeypatch.setattr(
            TreeEvaluator, "expand", lambda *a: calls.append("expand") or expand(*a)
        )
        monkeypatch.setattr(policy_module, "fingerprint_multipliers", multipliers)
        assert ev.leaves(level)[-1] == want
        assert exact_merges == [1] and not calls


class TestLevelMerge:
    def test_deep_level_merged_without_the_exact_merge(self, exact_merges):
        # Input 14's depth-5 level: 21,609 children of 2,401 nodes.
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][14]["instance"])
        level = initial_level(inst, 4)
        ev = TreeEvaluator(inst, doc["horizon"])
        every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
        children = ev.expand(level, every_action)[0]
        assert len(children) == 21_609
        want = reference_merge(children)
        first, inverse = distinct_nodes(children)
        assert not exact_merges
        assert np.array_equal(first, want[0]) and np.array_equal(inverse, want[1])


class TestGapWitnesses:
    """Instances where the myopic policy is not optimal, so that a
    certifier that misvalues myopic play cannot pass for one that works:
    about 1 seed in 4 of ``dirichlet_instance`` at N = X = Y = 3 makes
    myopic suboptimal at T=3."""

    @pytest.mark.parametrize("seed", [3, 10, 29])
    def test_gap_reported_and_checked_by_recursion(self, seed):
        inst = dirichlet_instance(seed, 3, 3, 3)
        rep = certify_myopic(inst, 3)
        assert rep.gap > 1e-9
        assert rep.argmax_agreement < 1
        assert rep.optimal_value == pytest.approx(brute_force_optimal(inst, 3), abs=1e-10)
        myopic = recursive_policy_value(inst, myopic_policy(inst), 3)
        assert rep.myopic_value == pytest.approx(myopic, abs=1e-10)

    def test_compare_exits_one(self, tmp_path):
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(dirichlet_instance(10, 3, 3, 3).to_json_dict()))
        out = tmp_path / "report.json"
        assert main(["compare", str(path), "--horizon", "3", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["gap"] > 1e-9
