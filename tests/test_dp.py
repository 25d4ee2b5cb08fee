import json
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    canonical_ids,
    dirichlet_instance,
    exact_certificate,
    in_order_dot,
    reference_expand,
    reference_filter,
    reference_leaves,
    reference_merge,
    reference_solve,
    reference_sweep,
    report_bits,
    row_keys,
    same_bits,
    same_partition,
    segment_backup,
)

import restless_sched.filtering as filtering_module
import restless_sched.policy as policy_module
from restless_sched import (
    BeliefProfile,
    BeliefVector,
    DimensionMismatchError,
    InvalidBeliefError,
    NodeBudgetExceededError,
    avf_evaluate,
    certify_myopic,
    gen_assumption1_instance,
    myopic_policy,
    optimal_value,
    policy_value,
    round_robin_policy,
    seeded_random_policy,
    stay_policy,
    verify_assumption1,
)
from restless_sched.cli import main
from restless_sched.policy import TreeEvaluator
from restless_sched.types import ModelInstance

DEEP = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "deep.json"
#: The deep base instance (N = X = Y = 3), as the simulate-mc workload holds it.
DEEP_BASE = DEEP.parent / "simulate.json"


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

    @pytest.mark.parametrize("budget, error", [
        (2.5, TypeError), (True, TypeError), (-1, ValueError), (0, ValueError),
    ])
    def test_bad_node_budget_rejected(self, two_state_instance, budget, error):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        with pytest.raises(error, match="node_budget"):
            optimal_value(two_state_instance, prof, 0, 2, node_budget=budget)
        with pytest.raises(error, match="node_budget"):
            certify_myopic(two_state_instance, 2, node_budget=budget)

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

    def test_bool_horizon_rejected(self, two_state_instance):
        # isinstance(True, int) holds: unchecked, True ran a horizon-1
        # certificate.
        for T in (True, np.True_):
            with pytest.raises(TypeError, match="^T must be an integer, got "):
                certify_myopic(two_state_instance, T)

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


def silent_first_instance() -> ModelInstance:
    """``absorbing_instance`` with its two observations swapped: the
    zero-likelihood branch is the first observation, not the last."""
    A = np.array([[1.0, 0.0], [0.4, 0.6]])
    B = np.array([[0.0, 1.0], [0.7, 0.3]])
    x0 = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
    return ModelInstance(2, 2, 2, A, B, np.array([0.0, 1.0]), 0.9, x0)


#: Instances whose leaf levels the leaf pass must value and count bit
#: for bit as built children: zero-likelihood leaves, on the last or
#: the first observation, unequal N, X and Y, X=9 (numpy sums 8 or more
#: contiguous terms pairwise, but the filter's row sums add them in
#: order), and children of different parents that coincide.
LEAF_INSTANCES = {
    "absorbing": None,
    "silent first": silent_first_instance,
    "mixed N=4 X=2 Y=5": lambda: dirichlet_instance(41, 4, 2, 5),
    "X=9": lambda: dirichlet_instance(9, 2, 9, 3),
    "rank-one A": rank_one_instance,
}


@pytest.fixture(params=list(LEAF_INSTANCES))
def leaf_instance(request, absorbing_instance) -> ModelInstance:
    make = LEAF_INSTANCES[request.param]
    return absorbing_instance if make is None else make()


def initial_level(inst: ModelInstance, depth: int) -> np.ndarray:
    """The DP's merged level at ``depth`` below the initial profile,
    built by ``reference_expand`` and merged by ``reference_merge``."""
    ev = TreeEvaluator(inst, depth)
    level = np.array((tuple(x.probs for x in inst.initial_beliefs),))
    for _ in range(depth):
        every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
        children = reference_expand(ev, level, every_action)[0]
        level = children[reference_merge(children)[0]]
    return level


def initial_table(inst: ModelInstance, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """The DP's own (table, ids) at ``depth`` below the initial profile,
    built by ``TreeEvaluator.next_level``."""
    ev = TreeEvaluator(inst, depth)
    table = np.array([x.probs for x in inst.initial_beliefs])
    ids = np.arange(ev.N)[None]
    for _ in range(depth):
        table, ids = ev.next_level(table, ids)[:2]
    return table, ids


def factorings(inst: ModelInstance, depth: int):
    """The level at ``depth`` as built children, and two (table, ids)
    pairs for it: the trivial factoring of the built level, one table
    row per project row, and the DP's own table."""
    level = initial_level(inst, depth)
    n, N, X = level.shape
    trivial = level.reshape(-1, X), np.arange(n * N).reshape(n, N)
    return level, [trivial, initial_table(inst, depth)]


class TestLeafPass:
    # T=0 values the root as its own leaf through the same per-level step.
    @pytest.mark.parametrize("T", [0, 1, 2, 3, 4])
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

    @pytest.mark.parametrize(
        "seed, N, X, Y",
        [
            # One-node levels, whose likelihood products BLAS would take
            # through gemv where a longer level goes through gemm.
            (3, 2, 9, 3),
            # One project: the one-row table and its transposed filtered
            # rows are F-ordered, a strided layout.
            (7, 1, 9, 2),
        ],
    )
    def test_table_layout_keeps_the_reference_bits(self, seed, N, X, Y):
        inst = dirichlet_instance(seed, N, X, Y)
        beliefs = [x.probs for x in inst.initial_beliefs]
        for T in (1, 2, 3):
            want = reference_solve(inst, beliefs, 0, T)
            assert report_bits(certify_myopic(inst, T)) == report_bits(want)

    # Inputs 14's and 16's T=6 leaves straddle rounding lines, so their
    # leaf counts (117,674 with this build, where most inputs count
    # 117,649) depend on the last bits.  Input 10's depth-5 count
    # (16,907) moved to 16,932 when rows were interned by their rounded
    # keys.  Twelve of the 49 inputs take about 0.7 s.
    @pytest.mark.parametrize("index", [0, 4, 10, 14, 16, 19, 23, 28, 33, 38, 43, 47])
    def test_deep_input_matches_reference(self, index):
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][index]["instance"])
        beliefs = [x.probs for x in inst.initial_beliefs]
        want = reference_solve(inst, beliefs, 0, doc["horizon"])
        assert report_bits(certify_myopic(inst, doc["horizon"])) == report_bits(want)

    @pytest.mark.parametrize("depth", [0, 2])
    def test_leaves_match_built_children(self, leaf_instance, depth):
        inst = leaf_instance
        level, tables = factorings(inst, depth)
        ev = TreeEvaluator(inst, depth + 1)
        *want, want_count = reference_leaf_pass(ev, level)
        for table, ids in tables:
            # The DP's table holds the built level's rows bit for bit.
            assert same_bits(table[ids], level)
            *got, count = ev.leaf_pass(table.copy(), ids, in_order_dot(level, ev.R))
            for g, w in zip(got, want):
                assert same_bits(g, w)
            assert count == want_count

    @pytest.mark.parametrize("seed", [1, 2, "every"])
    def test_expand_matches_reference(self, leaf_instance, seed):
        """Random actions from ``seed``, or, for "every", each node once
        per project, working it."""
        inst = leaf_instance
        level = initial_level(inst, 2)
        ev = TreeEvaluator(inst, 3)
        if seed == "every":
            level, actions = level.repeat(ev.N, axis=0), np.tile(np.arange(ev.N), len(level))
        else:
            actions = np.random.default_rng(seed).integers(0, ev.N, len(level))
        got_children, got_d = ev.expand(level, actions)
        children, parent, _, obs, d = reference_expand(ev, level, actions[:, None])
        live, dead, sibling = live_and_dead(parent, obs, ev.Y, len(got_d))
        assert same_bits(got_children[live], children) and same_bits(got_d[live], d)
        # A dead child is its first live sibling at likelihood 0.0.
        assert same_bits(got_children[dead], got_children[sibling])
        assert same_bits(got_d[dead], np.zeros(len(dead)))

    def test_children_of_different_parents_compared_whole(self, exact_merges):
        inst = rank_one_instance()
        level, tables = factorings(inst, 2)
        ev = TreeEvaluator(inst, 3)
        every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
        children, parent, _, _, _ = reference_expand(ev, level, every_action)
        _, first, inverse = np.unique(row_keys(children), return_index=True, return_inverse=True)
        # Some child shares its key with a child of another parent.
        assert (parent[first][inverse.ravel()] != parent).any()
        for table, ids in tables:
            count = ev.leaf_pass(table, ids, in_order_dot(level, ev.R))[-1]
            assert count == reference_leaves(ev, level)[-1] == len(first)
        assert not exact_merges

    @pytest.mark.parametrize(
        "multipliers, instance",
        [
            pytest.param(multipliers, instance, id=name + suffix)
            for instance, suffix in [
                ("mixed N=4 X=2 Y=5", ""),
                # Zero-likelihood children: the keys of the live children
                # are found through their live indices.
                ("absorbing", "-absorbing"),
            ]
            for name, multipliers in [
                # Every fingerprint is zero: every table row ties.
                ("zero", lambda n: np.zeros(n, dtype=np.uint64)),
                # Only the low three bits of key column 0 count.  On rows
                # of two states column 0 alone would tell every two
                # rows apart, so it is cut to let different rows tie.
                ("column-0", lambda n: (np.arange(n) == 0).astype(np.uint64) << np.uint64(61)),
            ]
        ],
    )
    def test_fingerprint_collision_falls_back_to_exact_count(
        self, monkeypatch, exact_merges, multipliers, instance, absorbing_instance
    ):
        make = LEAF_INSTANCES[instance]
        inst = absorbing_instance if make is None else make()
        level, tables = factorings(inst, 2)
        ev = TreeEvaluator(inst, 3)
        want = reference_level(ev, level)
        # The DP interns the next table's rows through
        # _group_rows, which falls back to the exact merge once per
        # level; it never builds the level.
        calls = []
        expand = TreeEvaluator.expand
        monkeypatch.setattr(
            TreeEvaluator, "expand", lambda *a: calls.append("expand") or expand(*a)
        )
        monkeypatch.setattr(policy_module, "fingerprint_multipliers", multipliers)
        for k, (table, ids) in enumerate(tables, start=1):
            check_level(ev, table, ids, want)
            assert exact_merges == [1] * 2 * k and not calls


class TestSweepBackup:
    @pytest.mark.parametrize("T", [1, 3])
    def test_policy_values_match_reference(self, leaf_instance, T):
        """``policy_value`` and ``avf_evaluate`` back a sweep's levels up
        bit for bit as built levels summed by segment in child order."""
        inst = leaf_instance
        beliefs = [x.probs for x in inst.initial_beliefs]
        prof = BeliefProfile(inst.initial_beliefs, 0)
        N = inst.n_projects
        for policy in (myopic_policy(inst), round_robin_policy(N), seeded_random_policy(N, 3)):
            want = reference_sweep(inst, beliefs, 0, T, policy)
            assert policy_value(inst, prof, 0, T, policy).hex() == want.hex()
        for u in range(N):
            want = reference_sweep(inst, beliefs, 0, T, myopic_policy(inst), first=u)
            assert avf_evaluate(inst, prof, 0, T, u + 1).hex() == want.hex()


def reference_leaf_pass(ev: TreeEvaluator, level: np.ndarray):
    """The leaf pass below the built ``level``, from
    ``reference_leaves``: the level's optimal and myopic action values
    (n, N) by ``segment_backup`` of the built leaves' values, and the
    number of distinct leaves."""
    optimal, myopic, segment, d, _, count = reference_leaves(ev, level)
    rewards = in_order_dot(level, ev.R)
    return (*(segment_backup(rewards, segment, d, v, ev.beta) for v in (optimal, myopic)), count)


def reference_level(ev: TreeEvaluator, level: np.ndarray):
    """The references ``check_level`` compares the DP with, below the
    built ``level``: ``reference_leaf_pass``, ``reference_expand``'s
    children under every action and their ``reference_merge``."""
    every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
    children, parent, u, obs, d = reference_expand(ev, level, every_action)
    leaf_pass = reference_leaf_pass(ev, level)
    return leaf_pass, (children, parent, u, obs, d), reference_merge(children)


def live_and_dead(segment: np.ndarray, obs: np.ndarray, Y: int, n_children: int):
    """Split ``n_children`` children, Y per segment in observation order,
    by the reference's live children (``segment``, ``obs``): the live
    ones' indices, the dead ones', and per dead child its first live
    sibling's index."""
    live = segment * Y + obs
    dead = np.setdiff1d(np.arange(n_children), live)
    return live, dead, live[np.searchsorted(segment, dead // Y)]


def check_level(ev: TreeEvaluator, table: np.ndarray, ids: np.ndarray, want) -> None:
    """``leaf_pass`` and ``next_level`` of ``table`` and ``ids`` agree
    bit for bit with ``reference_level`` of the level they factor: each
    live child's likelihood and key at its (parent, action,
    observation); a dead child of ``next_level`` has likelihood 0.0 and
    its first live sibling's key."""
    (*values, count), (children, parent, u, obs, d), (first, inverse) = want
    *got, got_count = ev.leaf_pass(table.copy(), ids, in_order_dot(table[ids], ev.R))
    for g, w in zip(got, values):
        assert same_bits(g, w)
    assert got_count == count == len(first)
    n = len(ids)
    table, ids, got_d, got_inverse = ev.next_level(table, ids)
    assert got_d.shape == got_inverse.shape == (n, ev.N, ev.Y)
    assert same_bits(got_d[parent, u, obs], d)
    assert np.array_equal(got_inverse[parent, u, obs], inverse)
    assert same_bits(table[ids], children[first])
    _, dead, sibling = live_and_dead(parent * ev.N + u, obs, ev.Y, got_d.size)
    got_d, got_inverse = got_d.ravel(), got_inverse.ravel()
    assert same_bits(got_d[dead], np.zeros(len(dead)))
    assert np.array_equal(got_inverse[dead], got_inverse[sibling])


def many_projects_instance() -> ModelInstance:
    """N=16 projects of X=2 states and Y=2 observations, each starting
    from its own belief: a next table has at least 17 distinct rows, and
    17**16 > 2**64, so packed child keys would overflow."""
    A = np.array([[0.8, 0.2], [0.3, 0.7]])
    B = np.array([[0.75, 0.25], [0.35, 0.65]])
    x0 = [[p, 1.0 - p] for p in np.linspace(0.05, 0.95, 16)]
    return ModelInstance(16, 2, 2, A, B, np.array([0.0, 1.0]), 0.7, x0)


def verified_many_projects_instance() -> ModelInstance:
    """The deep base instance with N=9 projects, project i starting at
    (1 - w_i) A[0] + w_i A[-1] for w = linspace(0.1, 0.9, 9): on the
    segment between the extreme rows, so it verifies as Assumption 1.
    The next table below depth 2 has 243 distinct rows, and 243**9 >
    2**64, so packed child keys overflow from there on."""
    base = ModelInstance.from_json_dict(json.loads(DEEP_BASE.read_text())["instance"])
    A = base.A.rows
    x0 = [(1 - w) * A[0] + w * A[-1] for w in np.linspace(0.1, 0.9, 9)]
    return ModelInstance(9, base.n_states, base.n_obs, base.A, base.B, base.R, base.beta, x0)


class TestPackedKeys:
    """A child's key is its N canonical table-row ids packed into one
    uint64 while they fit, and the rank of its id row among the distinct
    ones (``_exact_merge``) when not."""

    def test_verified_instance_overflows_in_both_passes(self, exact_merges, monkeypatch):
        inst = verified_many_projects_instance()
        assert verify_assumption1(inst).regime == "Assumption1"
        shapes = []
        monkeypatch.setattr(
            policy_module, "_exact_merge",
            lambda a, merge=policy_module._exact_merge: shapes.append(a.shape) or merge(a),
        )
        rep = certify_myopic(inst, 4)
        assert rep.per_depth_node_counts == (1, 19, 361, 6859, 130321)
        assert rep.gap == 0.0 and rep.best_action == 9
        assert rep.optimal_value == rep.myopic_value == 3.5372748022877536
        # Once in next_level (depth 2's children) and once in leaf_pass.
        assert shapes == [(9747, 9), (185193, 9)]
        assert exact_merges == [1, 1]

    def test_overflowing_keys_take_the_exact_merge(self, exact_merges):
        inst = many_projects_instance()
        want = reference_solve(inst, [x.probs for x in inst.initial_beliefs], 0, 2)
        assert report_bits(certify_myopic(inst, 2)) == report_bits(want)
        assert len(exact_merges) == 2
        for depth in (0, 1):
            level, tables = factorings(inst, depth)
            ev = TreeEvaluator(inst, depth + 1)
            want = reference_level(ev, level)
            for table, ids in tables:
                del exact_merges[:]
                check_level(ev, table, ids, want)
                assert exact_merges == [1, 1]

    def test_fitting_keys_skip_the_exact_merge(self, exact_merges):
        inst = dirichlet_instance(10, 3, 3, 3)
        want = reference_solve(inst, [x.probs for x in inst.initial_beliefs], 0, 3)
        assert report_bits(certify_myopic(inst, 3)) == report_bits(want)
        level, tables = factorings(inst, 2)
        ev = TreeEvaluator(inst, 3)
        want = reference_level(ev, level)
        for table, ids in tables:
            check_level(ev, table, ids, want)
        assert not exact_merges


def reference_children_merge(keys: np.ndarray):
    """``np.unique`` over the children's ``keys`` (Y, N, n) or key rows
    (Y, N, n, k), read in expansion order (parent, action, observation):
    the kept children's flat positions in ascending order, and per child
    (n, N, Y) the position of its key among them."""
    Y, N, n = keys.shape[:3]
    rows = keys.transpose(2, 1, 0, *range(3, keys.ndim)).reshape(n * N * Y, -1)
    _, index, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(index), dtype=np.intp)
    rank[np.argsort(index)] = np.arange(len(index))
    return np.sort(index), rank[inverse.ravel()].reshape(n, N, Y)


def reference_child_ids(ids: np.ndarray, M: int, Y: int) -> np.ndarray:
    """Every child's ids (n, N, Y, N) into the next table of M + Y*M
    rows, by (parent, action, observation): its parent's ids, the worked
    project's id i replaced by M + m*M + i."""
    n, N = ids.shape
    kids = np.broadcast_to(ids[:, None, None], (n, N, Y, N)).copy()
    a = np.arange(N)
    kids[:, a, :, a] = ids.T[..., None] + M * (1 + np.arange(Y))
    return kids


def check_merge(keys: np.ndarray) -> None:
    """``_merge_children`` of ``keys`` (Y, N, n), which it packs and
    sorts in place, agrees with ``reference_children_merge``."""
    first, inverse = policy_module._merge_children(keys.copy())
    want_first, want_inverse = reference_children_merge(keys)
    assert np.array_equal(first, want_first) and np.array_equal(inverse, want_inverse)


class TestPackedMerge:
    """``_merge_children`` sorts each child's key packed above its
    position in one uint64 word.  Its branches against ``np.unique``:
    exact ranks, packed keys that fit beside their positions, and packed
    keys that fit in 64 bits only alone, which are ranked first."""

    def test_exact_rank_keys(self, exact_merges):
        # Depth 2 of the N=9 instance: 243**9 > 2**64, so the children
        # are keyed by the ranks of their rows of canonical ids.
        inst = verified_many_projects_instance()
        table, ids = initial_table(inst, 2)
        ev = TreeEvaluator(inst, 3)
        (n, N), M, Y = ids.shape, len(table), ev.Y
        _, _, canon, K = ev._next_table(table)
        assert K ** N > 2 ** 64
        keys = ev._child_keys(canon, K, np.ascontiguousarray(ids.T)).reshape(Y, N, n)
        assert exact_merges == [1]
        first, inverse = policy_module._merge_children(keys.copy())
        # The reference merges the children's rows of canonical ids.
        kids = reference_child_ids(ids, M, Y)
        want_first, want_inverse = reference_children_merge(canon[kids].transpose(2, 1, 0, 3))
        assert np.array_equal(first, want_first) and np.array_equal(inverse, want_inverse)
        got = policy_module._child_ids(ids, first, M, Y)
        assert np.array_equal(got, kids.reshape(-1, N)[want_first])

    @pytest.mark.parametrize("seed", [1, 2])
    def test_keys_that_fit_only_alone_are_ranked_first(self, seed):
        # 3 x 2 x 700 children take 13 position bits, so keys from 2**60
        # up fit in 64 bits but not beside their positions.  Keys that
        # differ only in their top bits would merge if those were cut.
        rng = np.random.default_rng(seed)
        small = rng.integers(0, 900, (3, 2, 700)).astype(np.uint64)
        assert 2 ** 60 << (small.size - 1).bit_length() > 2 ** 64
        for keys in (small, small + np.uint64(2 ** 60), small << np.uint64(54)):
            check_merge(keys)

    def test_deep_level_keys_shifted_past_their_positions(self):
        # The packed keys of input 14's depth-4 level, as they are and
        # moved into the top bits, merge alike.
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][14]["instance"])
        table, ids = initial_table(inst, 4)
        ev = TreeEvaluator(inst, 6)
        (n, N), Y = ids.shape, ev.Y
        _, _, canon, K = ev._next_table(table)
        keys = ev._child_keys(canon, K, np.ascontiguousarray(ids.T)).reshape(Y, N, n)
        assert keys.size == 21_609
        shifted = keys << np.uint64(64 - int(keys.max()).bit_length())
        assert int(shifted.max()) << (keys.size - 1).bit_length() >= 2 ** 64
        check_merge(keys)
        check_merge(shifted)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 1), (1, 3, 2), (3, 3, 5)])
    def test_small_levels(self, shape):
        keys = np.random.default_rng(0).integers(0, 3, shape).astype(np.uint64)
        check_merge(keys)


def chunk_splits(n: int) -> tuple[int, ...]:
    """Parents per leaf-pass chunk for a level of n nodes: one chunk,
    one parent per chunk, and, where some size does not divide n,
    chunks that do not divide the nodes evenly."""
    uneven = next((k for k in range(2, n + 1) if n % k), None)
    return (n, 1) if uneven is None else (n, 1, uneven)


class TestLeafChunks:
    """The leaf pass values its nodes ``policy._LEAF_CHUNK`` children at
    a time, in whole parents; where the chunks split the nodes must not
    move a bit of the values or the count."""

    @pytest.mark.parametrize("instance", [*LEAF_INSTANCES, "many projects"])
    def test_chunks_match_one_chunk(self, monkeypatch, exact_merges, instance, absorbing_instance):
        make = {**LEAF_INSTANCES, "many projects": many_projects_instance}[instance]
        inst = absorbing_instance if make is None else make()
        table, ids = initial_table(inst, 2)
        ev = TreeEvaluator(inst, 3)
        rewards = in_order_dot(table[ids], ev.R)
        got = []
        for parents in chunk_splits(len(ids)):
            monkeypatch.setattr(policy_module, "_LEAF_CHUNK", parents * ev.N * ev.Y)
            del exact_merges[:]
            got.append(ev.leaf_pass(table.copy(), ids, rewards))
            # Keys that do not fit in 64 bits take one exact merge per
            # pass, whatever the chunks.
            assert len(exact_merges) == (instance == "many projects")
        (*want, want_count), *chunked = got
        for *values, count in chunked:
            assert all(same_bits(g, w) for g, w in zip(values, want))
            assert count == want_count


def tied_projects_instance(N: int, gap: float = 0.0) -> ModelInstance:
    """The deep base instance with N projects that all start from its
    first belief, project j's moved by j * gap of mass from the worst
    state to the best one: passive projects that are never worked keep
    rewards that tie exactly (gap 0) or lie about 1e-14 apart."""
    base = ModelInstance.from_json_dict(json.loads(DEEP_BASE.read_text())["instance"])
    x = base.initial_beliefs[0].probs
    shift = np.zeros_like(x)
    shift[0], shift[-1] = -1.0, 1.0
    x0 = [x + j * gap * shift for j in range(N)]
    return ModelInstance(N, base.n_states, base.n_obs, base.A, base.B, base.R, base.beta, x0)


def worked_tie_instance() -> ModelInstance:
    """Two static projects (A = I) whose rewards lie far apart, the
    second starting where the first's belief goes on observation 0: a
    leaf's worked reward ties the other project's passive one, while no
    two passive rewards of its parent tie."""
    B = np.array([[0.7, 0.3], [0.2, 0.8]])
    x = np.array([0.5, 0.5])
    y = x * B[:, 0] / (x @ B[:, 0])
    return ModelInstance(2, 2, 2, np.eye(2), B, np.array([0.0, 1.0]), 0.9, [x, y])


#: Leaf levels with leaves whose two largest immediate rewards lie within
#: ARGMAX_TOL, the only leaves the leaf pass takes through the tie rule
#: (``_greatest_array_index``), and the same without a second project.
TIE_INSTANCES = {
    "equal N=3": lambda: tied_projects_instance(3),
    "equal N=2": lambda: tied_projects_instance(2),
    "near N=3": lambda: tied_projects_instance(3, 1e-14),
    "near N=2": lambda: tied_projects_instance(2, 1e-14),
    "worked ties passive": worked_tie_instance,
    "N=1": lambda: tied_projects_instance(1),
}


class TestLeafTies:
    @pytest.mark.parametrize("instance", list(TIE_INSTANCES))
    @pytest.mark.parametrize("depth", [0, 2])
    def test_near_ties_match_reference(self, monkeypatch, exact_merges, instance, depth):
        inst = TIE_INSTANCES[instance]()
        level, tables = factorings(inst, depth)
        ev = TreeEvaluator(inst, depth + 1)
        *want, want_count = reference_leaf_pass(ev, level)
        rewards = in_order_dot(level, ev.R)
        if instance == "near N=3" and depth:
            # The tie rule picks the lower project's smaller reward.
            assert not same_bits(*want)
        if instance == "worked ties passive":
            assert (np.abs(rewards[:, 0] - rewards[:, 1]) > 1e-3).all()
        # The leaf pass calls the tie rule only in its tie branch, once
        # per chunk of (pair, observation, project) leaf rewards.
        ties = []
        rule = policy_module._greatest_array_index
        monkeypatch.setattr(
            policy_module, "_greatest_array_index", lambda r: ties.append(len(r)) or rule(r)
        )
        for table, ids in tables:
            for parents in chunk_splits(len(ids)):
                monkeypatch.setattr(policy_module, "_LEAF_CHUNK", parents * ev.N * ev.Y)
                del ties[:]
                *got, count = ev.leaf_pass(table.copy(), ids, rewards)
                assert all(same_bits(g, w) for g, w in zip(got, want))
                assert count == want_count
                # The tie branch ran, on near-tie actions only; with one
                # project no leaf has a runner-up.
                assert (sum(ties) > 0) == (ev.N > 1)
                assert sum(ties) < ids.size or depth == 0
        assert not exact_merges

    @pytest.mark.parametrize("instance", list(TIE_INSTANCES))
    def test_root_as_its_own_leaf_matches_reference(self, instance):
        """At T=0 the root takes the step of every other level: its best
        reward, and the tie rule's pick among near ties."""
        inst = TIE_INSTANCES[instance]()
        want = reference_solve(inst, [x.probs for x in inst.initial_beliefs], 0, 0)
        assert report_bits(certify_myopic(inst, 0)) == report_bits(want)
        if instance.startswith("near"):
            # The tie rule picks the lower project's smaller reward.
            assert want.myopic_value < want.optimal_value

    def test_tied_projects_certificate(self):
        """The deep base instance with every x0 row equal, whose T=6
        certificate CI runs through ``compare``, matches the reference
        at T=4."""
        inst = tied_projects_instance(3)
        want = reference_solve(inst, [x.probs for x in inst.initial_beliefs], 0, 4)
        assert report_bits(certify_myopic(inst, 4)) == report_bits(want)


def release_leaf_scratch() -> None:
    """Drop this thread's kept leaf-pass scratch, so that the next leaf
    pass allocates it again."""
    vars(policy_module._LEAF_SCRATCH).clear()


def kept_leaf_scratch() -> np.ndarray | None:
    """This thread's kept leaf-pass scratch, if any."""
    return getattr(policy_module._LEAF_SCRATCH, "buffer", None)


def deep_leaf_parents():
    """The deep base instance's T=6 evaluator and its leaf-parent level:
    (ev, table, ids, rewards)."""
    doc = json.loads(DEEP.read_text())
    inst = ModelInstance.from_json_dict(doc["instances"][0]["instance"])
    table, ids = initial_table(inst, 5)
    ev = TreeEvaluator(inst, 6)
    return ev, table, ids, in_order_dot(table, ev.R).take(ids)


class TestLeafMemory:
    """The two traced peaks start from a released leaf-pass scratch, so
    that they count its allocation: a warm one would pass without
    measuring."""

    def test_deep_certificate_memory(self):
        """The leaf pass holds the leaf-parent level's values and one key
        per leaf, not four arrays per leaf: the deep base instance's T=7
        certificate peaked at 76.3 MiB of traced memory when it did."""
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][0]["instance"])
        release_leaf_scratch()
        tracemalloc.start()
        try:
            rep = certify_myopic(inst, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(rep.per_depth_node_counts) == 960_800
        assert peak < 48 * 2**20

    def test_deep_leaf_pass_memory(self):
        """The deep base instance's T=6 leaf pass holds one count key per
        leaf, and besides it no array as long as the leaves: its traced
        peak stays below the keys, (2, n, N) values and one chunk's four
        scratch arrays.  Keeping the keys through the values, as it did,
        peaked at 3.09 MB against this bound's 2.28 MB."""
        ev, table, ids, rewards = deep_leaf_parents()
        (n, N), Y = ids.shape, ev.Y
        release_leaf_scratch()
        tracemalloc.start()
        try:
            count = ev.leaf_pass(table, ids, rewards)[-1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (n, count) == (16_807, 117_649)
        assert kept_leaf_scratch() is not None
        assert peak < 8 * (Y * n * N + 2 * n * N + 4 * policy_module._LEAF_CHUNK)

    def test_scratch_above_the_keep_bound_is_not_kept(self, monkeypatch):
        """A deep T=6 leaf pass takes about 1.66 MB of scratch; under a
        keep bound of 1.5 MB its certificate leaves nothing kept, and its
        report keeps its bits."""
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][0]["instance"])
        want = report_bits(certify_myopic(inst, 6))
        assert len(kept_leaf_scratch()) > 1_500_000
        release_leaf_scratch()
        monkeypatch.setattr(policy_module, "_LEAF_KEEP_BYTES", 1_500_000)
        assert report_bits(certify_myopic(inst, 6)) == want
        assert kept_leaf_scratch() is None


class TestLeafScratch:
    """The leaf pass keeps its working buffers per thread between calls;
    nothing it returns may alias them, and reuse must not move a bit."""

    def test_nothing_returned_aliases_the_scratch(self):
        ev, table, ids, rewards = deep_leaf_parents()
        optimal, myopic, _ = ev.leaf_pass(table, ids, rewards)
        kept = kept_leaf_scratch()
        assert not np.shares_memory(optimal, kept) and not np.shares_memory(myopic, kept)
        # The tie branch's myopic values are a copy of their own.
        inst = tied_projects_instance(3)
        table, ids = initial_table(inst, 3)
        ev = TreeEvaluator(inst, 4)
        optimal, myopic, _ = ev.leaf_pass(table, ids, in_order_dot(table, ev.R).take(ids))
        assert myopic is not optimal
        kept = kept_leaf_scratch()
        assert not np.shares_memory(optimal, kept) and not np.shares_memory(myopic, kept)
        doc = json.loads(DEEP.read_text())
        deep = ModelInstance.from_json_dict(doc["instances"][3]["instance"])
        for rep in (certify_myopic(deep, 6), certify_myopic(inst, 4)):
            kept = kept_leaf_scratch()
            assert not any(np.shares_memory(np.asarray(v), kept) for v in vars(rep).values())

    def test_regrown_scratch_keeps_reports(self):
        """T=6, then T=7, then T=6 again in one thread: the scratch grows
        for T=7 and the second T=6 certificate reuses it."""
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][5]["instance"])
        release_leaf_scratch()
        first = report_bits(certify_myopic(inst, 6))
        small = len(kept_leaf_scratch())
        certify_myopic(inst, 7)
        grown = kept_leaf_scratch()
        assert len(grown) > small
        assert report_bits(certify_myopic(inst, 6)) == first
        assert kept_leaf_scratch() is grown

    def test_threads_match_sequential_calls(self):
        """Two threads certifying eight deep inputs each at the same time
        give the reports of sequential calls, bit for bit."""
        doc = json.loads(DEEP.read_text())
        insts = [ModelInstance.from_json_dict(e["instance"]) for e in doc["instances"][:16]]
        want = [report_bits(certify_myopic(inst, 6)) for inst in insts]
        got = [None] * len(insts)
        barrier = threading.Barrier(2)

        def certify(offset: int) -> None:
            barrier.wait()
            for k in range(offset, len(insts), 2):
                got[k] = report_bits(certify_myopic(insts[k], 6))

        # Daemon threads with a timed join: one scratch shared between
        # threads has hung an in-place sort of the keys.  A short switch
        # interval interleaves the two passes finely.
        threads = [threading.Thread(target=certify, args=(k,), daemon=True) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_over_budget_request_refused_after_the_count(self, monkeypatch):
        """A budget one below the deep T=6 total is refused as soon as the
        leaves are counted, with the budget's message: the others' top
        rewards are never taken, and the refusal keeps only the scratch
        the count used."""
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][0]["instance"])
        release_leaf_scratch()
        total = sum(certify_myopic(inst, 6).per_depth_node_counts)
        assert total == 137_257
        held = len(kept_leaf_scratch())
        release_leaf_scratch()
        calls = []
        monkeypatch.setattr(
            policy_module, "_top_two_others",
            lambda *a, top=policy_module._top_two_others, **k: calls.append(1) or top(*a, **k),
        )
        with pytest.raises(NodeBudgetExceededError) as refused:
            certify_myopic(inst, 6, node_budget=total - 1)
        assert str(refused.value) == f"node budget {total - 1} exceeded for N=3, Y=3, T=6"
        assert not calls
        assert len(kept_leaf_scratch()) == held
        # The same budget with one node more certifies.
        assert certify_myopic(inst, 6, node_budget=total).horizon == 6
        assert calls == [1]


class TestLevelMerge:
    def test_deep_level_merged_without_the_exact_merge(self, exact_merges):
        # Input 14's depth-5 level: 21,609 children of 2,401 nodes,
        # grouped as ``_next_table`` groups a table's rows.
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][14]["instance"])
        level = initial_level(inst, 4)
        ev = TreeEvaluator(inst, doc["horizon"])
        every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
        children = reference_expand(ev, level, every_action)[0]
        assert len(children) == 21_609
        first, inverse = reference_merge(children)
        canon, K = canonical_ids(children)
        assert not exact_merges
        assert K == len(first) and same_partition(canon, inverse)

    def test_deep_table_merged_as_built_children(self, exact_merges):
        # The same level merged by the DP from its table of depth 4.
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][14]["instance"])
        table, ids = initial_table(inst, 4)
        ev = TreeEvaluator(inst, doc["horizon"])
        level = table[ids]
        assert same_bits(level, initial_level(inst, 4))
        every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
        children, parent, u, obs, d = reference_expand(ev, level, every_action)
        want = reference_merge(children)
        n = len(ids)
        table, ids, likelihood, inverse = ev.next_level(table, ids)
        assert not exact_merges
        assert likelihood.shape == inverse.shape == (n, ev.N, ev.Y)
        # Every child is live, so the reference has one per entry.
        assert len(d) == likelihood.size
        assert same_bits(likelihood[parent, u, obs], d)
        assert np.array_equal(inverse[parent, u, obs], want[1])
        assert same_bits(table[ids], children[want[0]])
        # The table keeps only the rows the kept children use.
        assert len(np.unique(ids)) == len(table)


class TestFilterWork:
    def test_certificate_filters_each_table_row_once(self, monkeypatch):
        """Built levels filter every project row of every node under
        every action: 58,824 rows for the deep base instance at T=6.
        The DP filters each row of its per-depth tables once (2,093)."""
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][0]["instance"])
        rows, expands = [], []
        filter_rows = policy_module.filter_rows
        monkeypatch.setattr(
            policy_module,
            "filter_rows",
            lambda z, B: rows.append(z.shape[0] * z.shape[1]) or filter_rows(z, B),
        )
        expand = TreeEvaluator.expand
        monkeypatch.setattr(
            TreeEvaluator, "expand", lambda *a: expands.append(1) or expand(*a)
        )
        rep = certify_myopic(inst, doc["horizon"])
        assert rep.per_depth_node_counts == (1, 7, 49, 343, 2401, 16807, 117649)
        assert len(rows) == doc["horizon"] and sum(rows) < 5_000
        assert not expands

    def test_certificate_groups_table_rows_not_children(self, monkeypatch):
        """Fingerprint grouping runs on the rows of the next tables
        only (8,372 rows on the deep base instance at T=6): the children,
        151,263 on its leaf level alone, are grouped by their packed
        integer keys."""
        doc = json.loads(DEEP.read_text())
        inst = ModelInstance.from_json_dict(doc["instances"][0]["instance"])
        rows = []
        group = policy_module._group_rows
        monkeypatch.setattr(
            policy_module,
            "_group_rows",
            lambda r: rows.append(len(r)) or group(r),
        )
        certify_myopic(inst, doc["horizon"])
        assert len(rows) == doc["horizon"] and sum(rows) < 10_000


class TestTieRuleCalls:
    def test_certificate_calls_the_tie_rule_through_the_policy_module(self, monkeypatch):
        """The per-layer tracer counts the tie rule by wrapping
        ``policy._greatest_array_index``; the DP must call it through
        the module to be counted."""
        inst = dirichlet_instance(10, 3, 3, 3)
        calls = []
        rule = policy_module._greatest_array_index
        monkeypatch.setattr(
            policy_module, "_greatest_array_index", lambda v: calls.append(len(v)) or rule(v)
        )
        rep = certify_myopic(inst, 3)
        # One call per level above the leaves, deepest first, and one on
        # the root's action values for the best first action.
        assert calls == [*rep.per_depth_node_counts[-2::-1], 1]


class TestExactOracle:
    """``certify_myopic`` against ``conftest.exact_certificate``, the same
    certificate in exact rational arithmetic: values within 1e-12, the
    sign of the gap, and the distinct profiles per depth, which says
    that rounding keys to ``KEY_DECIMALS`` merged exactly the profiles
    that are equal."""

    @pytest.mark.parametrize(
        "instance, T",
        [
            # The deep base instance, whose exact gap is 0.
            ("deep", 4),
            # Gap witnesses: myopic play is not optimal.
            (3, 3),
            (10, 3),
            (29, 3),
            # Zero-likelihood branches; children of different parents
            # that coincide.
            ("absorbing", 4),
            ("rank-one A", 4),
        ],
    )
    def test_certificate_matches_exact_dp(self, instance, T, absorbing_instance):
        if instance == "deep":
            doc = json.loads(DEEP.read_text())
            inst = ModelInstance.from_json_dict(doc["instances"][0]["instance"])
        elif instance == "absorbing":
            inst = absorbing_instance
        elif isinstance(instance, str):
            inst = LEAF_INSTANCES[instance]()
        else:
            inst = dirichlet_instance(instance, 3, 3, 3)
        rep = certify_myopic(inst, T)
        optimal, myopic, counts = exact_certificate(inst, T)
        assert rep.optimal_value == pytest.approx(float(optimal), rel=1e-12, abs=1e-12)
        assert rep.myopic_value == pytest.approx(float(myopic), rel=1e-12, abs=1e-12)
        if optimal == myopic:
            assert abs(rep.gap) <= 1e-12
        else:
            assert optimal > myopic and rep.gap > 1e-12
        assert rep.per_depth_node_counts == counts


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
