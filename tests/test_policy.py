import numpy as np
import pytest

from conftest import myopic_pick, recursive_avf, reference_filter, same_bits
from restless_sched import (
    BeliefProfile,
    BeliefVector,
    DimensionMismatchError,
    ModelInstance,
    avf_evaluate,
    certify_myopic,
    gen_assumption1_instance,
    gen_assumption2_instance,
    myopic_policy,
    optimal_value,
    policy_value,
    round_robin_policy,
    seeded_random_policy,
    stay_policy,
)
from restless_sched.policy import (
    ARGMAX_TOL,
    TreeEvaluator,
    _greatest_array_index,
    horizon_for_tolerance,
    row_max,
    row_sum,
)
from restless_sched.types import RewardVector


def reference_tie_rule(row) -> int:
    """The lowest index within ``ARGMAX_TOL`` of the largest value."""
    return next(i for i, v in enumerate(row) if v >= max(row) - ARGMAX_TOL)


class TestMyopicAction:
    def test_picks_mlr_greatest(self):
        prof = BeliefProfile([[0.6, 0.4], [0.2, 0.8]], 0)
        assert myopic_pick(prof, RewardVector([0.0, 1.0])) == 2

    def test_tie_breaks_lowest_index(self):
        prof = BeliefProfile([[0.5, 0.5], [0.5, 0.5]], 0)
        assert myopic_pick(prof, RewardVector([0.0, 1.0])) == 1

    def test_fosd_fallback_when_mlr_incomparable(self):
        # MLR-incomparable pair, FOSD-ordered: second dominates.
        prof = BeliefProfile([[0.1, 0.5, 0.4], [0.05, 0.55, 0.4]], 0)
        assert myopic_pick(prof, RewardVector([0.0, 1.0, 2.0])) == 2

    def test_incomparable_in_mlr_and_fosd(self):
        # Neither order ranks the pair; the immediate rewards 1.0 and 1.1 do.
        prof = BeliefProfile([[0.2, 0.6, 0.2], [0.3, 0.3, 0.4]], 0)
        assert myopic_pick(prof, RewardVector([0.0, 1.0, 2.0])) == 2

    def test_batch_decide_matches_myopic_action(self, small_params):
        inst = gen_assumption1_instance(small_params, 2)
        N, X = inst.n_projects, inst.n_states
        rng = np.random.default_rng(0)
        stack = rng.dirichlet(np.ones(X), size=(200, N))
        # Exact ties: every project shares one belief, or every project
        # but the first shares the top one.
        stack[:10] = stack[:10, :1]
        stack[10:20, 0] = np.eye(X)[0]
        stack[10:20, 1:] = np.eye(X)[-1]
        got = myopic_policy(inst).decide(0, stack)
        want = [reference_tie_rule([float(inst.R.values @ x) for x in row]) for row in stack]
        assert got.tolist() == want
        assert [myopic_pick(BeliefProfile(row), inst.R) - 1 for row in stack] == want
        assert np.all(got[:10] == 0)
        assert np.all(got[10:20] == 1)


class TestBatchTieRule:
    """``row_max`` and the batch tie rule against a per-row reference:
    ``max``, and the lowest index within ``ARGMAX_TOL`` of it."""

    @staticmethod
    def check(values):
        assert np.array_equal(row_max(values), values.max(axis=-1))
        want = [reference_tie_rule(row) for row in values.reshape(-1, values.shape[-1]).tolist()]
        got = _greatest_array_index(values)
        assert got.shape == values.shape[:-1]
        assert got.ravel().tolist() == want
        return got

    def test_exact_and_near_ties_go_to_lowest_index(self):
        values = np.array([
            [0.5, 0.5, 0.5],
            [0.1, 0.7, 0.7],
            [0.7, 0.7 - ARGMAX_TOL / 2, 0.2],
            [0.7 - ARGMAX_TOL / 2, 0.7, 0.7],
            [0.7 - 2 * ARGMAX_TOL, 0.7, 0.1],
        ])
        assert self.check(values).tolist() == [0, 1, 0, 0, 1]

    def test_maximum_in_last_column(self):
        values = np.array([[0.1, 0.2, 0.9], [-3.0, -2.0, -1.0]])
        assert self.check(values).tolist() == [2, 2]

    def test_leading_shape(self):
        values = np.random.default_rng(1).random((2, 5, 3))
        values[0, 0] = values[0, 0, 2]
        self.check(values)

    def test_single_column(self):
        values = np.array([[0.3], [-1.0]])
        assert self.check(values).tolist() == [0, 0]
        # A fresh array, not a view of the input.
        assert not np.shares_memory(row_max(values), values)


class TestRowSum:
    """``row_sum`` against a left fold from 0.0 on Python floats."""

    @staticmethod
    def left_fold(values) -> list:
        out = []
        for row in values.reshape(-1, values.shape[-1]).tolist():
            total = 0.0
            for v in row:
                total += v
            out.append(total)
        return out

    @pytest.mark.parametrize("width", range(1, 10))
    def test_bits_of_a_left_fold(self, width):
        # Magnitudes spread over 16 decades, so the order of the sum
        # shows in the last bits.
        rng = np.random.default_rng(width)
        values = rng.standard_normal((3, 200, width)) * 10.0 ** rng.integers(-8, 8, (3, 200, width))
        want = np.array(self.left_fold(values)).reshape(values.shape[:-1])
        got = row_sum(values)
        assert got.shape == values.shape[:-1]
        assert same_bits(got, want)
        # Into a view of a larger buffer, as the leaf pass sums.
        buffer = np.empty((2,) + values.shape[:-1])
        out = buffer[1]
        assert row_sum(values, out=out) is out
        assert same_bits(buffer[1], want)
        if width >= 8:
            # numpy sums 8 or more contiguous terms pairwise.
            assert not same_bits(values.sum(axis=-1), want)

    def test_lone_negative_zero_sums_to_positive_zero(self):
        got = row_sum(np.array([[-0.0], [-0.0], [2.0]]))
        assert same_bits(got, np.array([0.0, 0.0, 2.0]))
        assert same_bits(row_sum(np.array([[-0.0, -0.0]])), np.array([0.0]))


#: Profiles that do not fit the two-state, two-project fixture: one
#: project too many, and one state too many.
MISFITS = ([[0.5, 0.5]] * 3, [[0.2, 0.3, 0.5]] * 2)


class TestHorizonForTolerance:
    def test_beta_zero(self):
        assert horizon_for_tolerance(0.0, 1.0, 1e-6) == 0

    def test_tail_below_tol(self):
        T = horizon_for_tolerance(0.5, 1.0, 1e-6)
        assert 0.5 ** (T + 1) / 0.5 < 1e-6
        assert 0.5 ** T / 0.5 >= 1e-6

    def test_infinite_r_max_rejected(self):
        # The tail stays infinite, so the search used to loop forever.
        with pytest.raises(ValueError, match="r_max"):
            horizon_for_tolerance(0.5, float("inf"), 1e-6)

    def test_nan_r_max_rejected(self):
        with pytest.raises(ValueError, match="r_max"):
            horizon_for_tolerance(0.5, float("nan"), 1e-6)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol"):
            horizon_for_tolerance(0.5, 1.0, float("nan"))


class TestAvfEvaluate:
    def test_terminal_slot_is_immediate_reward(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        for u in (1, 2):
            want = float(two_state_instance.R.values @ prof.beliefs[u - 1].probs)
            assert avf_evaluate(two_state_instance, prof, 3, 3, u) == pytest.approx(want)

    def test_one_step_hand_expansion(self, two_state_instance):
        # W^u_0 over horizon 1 unrolled by hand with the reference filter.
        inst = two_state_instance
        A, B = inst.A.rows, inst.B.rows
        prof = BeliefProfile(inst.initial_beliefs, 0)
        u = 1
        got = avf_evaluate(inst, prof, 0, 1, u)
        want = float(inst.R.values @ prof.beliefs[0].probs)
        for m in (0, 1):
            d, worked = reference_filter(A, B, prof.beliefs[0].probs, m)
            stepped = [BeliefVector(worked), BeliefVector(A.T @ prof.beliefs[1].probs)]
            nxt = myopic_pick(BeliefProfile(stepped, 1), inst.R)
            want += inst.beta * d * float(inst.R.values @ stepped[nxt - 1].probs)
        assert got == pytest.approx(want, abs=1e-12)

    def test_beta_zero_collapses_to_immediate(self, two_state_instance):
        inst0 = ModelInstance(
            2, 2, 2, two_state_instance.A, two_state_instance.B,
            two_state_instance.R, 0.0, two_state_instance.initial_beliefs,
        )
        prof = BeliefProfile(inst0.initial_beliefs, 0)
        got = avf_evaluate(inst0, prof, 0, 4, 2)
        assert got == pytest.approx(float(inst0.R.values @ prof.beliefs[1].probs))

    def test_bad_action_raises(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        with pytest.raises(IndexError):
            avf_evaluate(two_state_instance, prof, 0, 2, 3)

    @pytest.mark.parametrize("u", [1.5, 1.0, True])
    def test_non_integer_action_raises(self, two_state_instance, u):
        # 1.5 failed inside numpy's indexing, and True ran as action 1.
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        with pytest.raises(TypeError, match="first_action must be an integer"):
            avf_evaluate(two_state_instance, prof, 0, 2, u)

    def test_numpy_integer_action_accepted(self, two_state_instance):
        prof = BeliefProfile(two_state_instance.initial_beliefs, 0)
        got = avf_evaluate(two_state_instance, prof, 0, 2, np.int64(2))
        assert got == avf_evaluate(two_state_instance, prof, 0, 2, 2)

    def test_profile_must_fit_instance(self, two_state_instance):
        for beliefs in MISFITS:
            with pytest.raises(DimensionMismatchError):
                avf_evaluate(two_state_instance, BeliefProfile(beliefs, 0), 0, 2, 1)


class TestAuxiliarySweep:
    def test_matches_memo_free_recursion(self, small_params, absorbing_instance):
        # Many roots in one level, duplicates among them (with equal and
        # with different first actions), against a recursion that merges
        # nothing; both regimes, a zero-likelihood branch, t > 0, T = 0.
        rng = np.random.default_rng(4)
        for inst in (
            gen_assumption1_instance(small_params, 3),
            gen_assumption2_instance(small_params, 1009),
            absorbing_instance,
        ):
            N, X = inst.n_projects, inst.n_states
            base = np.array([x.probs for x in inst.initial_beliefs])
            drawn = rng.dirichlet(np.ones(X), size=(3, N))
            roots = np.concatenate([[base, base, base], drawn, drawn[:1]])
            first = np.array([0, 0, 1, 0, N - 1, 1 % N, N - 1])
            policy = myopic_policy(inst)
            for T in (0, 1, 3):
                for t in range(T + 1):
                    got = TreeEvaluator(inst, T).sweep(t, roots, policy, first)
                    want = [recursive_avf(inst, r, t, T, u) for r, u in zip(roots, first)]
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("regime", [1, 2])
    def test_mixed_horizons_match_one_sweep_per_horizon(self, small_params, regime):
        # Roots of horizons 0..4 interleaved in one sweep, against one
        # sweep per horizon of that horizon's roots in the same order:
        # the same bits.  The same profile recurs with two horizons,
        # which must not merge, and with one horizon, which may.
        gen = gen_assumption1_instance if regime == 1 else gen_assumption2_instance
        inst = gen(small_params, 3 if regime == 1 else 1009)
        N, X = inst.n_projects, inst.n_states
        rng = np.random.default_rng(regime)
        base = np.array([x.probs for x in inst.initial_beliefs])
        roots = np.concatenate([[base] * 4, rng.dirichlet(np.ones(X), size=(12, N))])
        horizons = np.array([4, 2, 4, 0] + [0, 1, 2, 3, 4, 1, 3, 0, 2, 4, 3, 1])
        first = rng.integers(0, N, len(roots))
        for policy in (myopic_policy(inst), round_robin_policy(N)):
            for t, given in ((0, first), (0, None), (1, None)):
                at = np.maximum(horizons, t)
                got = TreeEvaluator(inst, 7).sweep(t, roots, policy, given, at)
                for T in set(at.tolist()):
                    picked = at == T
                    alone = TreeEvaluator(inst, T).sweep(
                        t, roots[picked], policy, None if given is None else given[picked]
                    )
                    np.testing.assert_array_equal(got[picked].view(np.uint64),
                                                  alone.view(np.uint64))


class TestPolicyValue:
    def test_stay_policy_expected_value(self, two_state_instance):
        # Always working project 1 never observes project 2; value is a
        # discounted sum of R'(A')^t x0(1) terms plus filter corrections
        # only on project 1.  Cross-check against a manual recursion.
        inst = two_state_instance
        prof = BeliefProfile(inst.initial_beliefs, 0)
        T = 3

        def manual(t, x):
            v = float(inst.R.values @ x.probs)
            if t == T:
                return v
            acc = 0.0
            for m in (0, 1):
                d, worked = reference_filter(inst.A.rows, inst.B.rows, x.probs, m)
                acc += d * manual(t + 1, BeliefVector(worked))
            return v + inst.beta * acc

        got = policy_value(inst, prof, 0, T, stay_policy(1))
        assert got == pytest.approx(manual(0, prof.beliefs[0]), abs=1e-12)

    def test_myopic_policy_value_matches_avf(self, two_state_instance):
        inst = two_state_instance
        prof = BeliefProfile(inst.initial_beliefs, 0)
        u = myopic_pick(prof, inst.R)
        assert policy_value(inst, prof, 0, 3, myopic_policy(inst)) == pytest.approx(
            avf_evaluate(inst, prof, 0, 3, u), abs=1e-12
        )

    def test_round_robin_cycles(self, two_state_instance):
        pol = round_robin_policy(2)
        beliefs = np.array([BeliefProfile(two_state_instance.initial_beliefs, 0).arrays()])
        assert pol.decide(0, beliefs).tolist() == [0]
        assert pol.decide(1, beliefs).tolist() == [1]
        assert pol.decide(2, beliefs).tolist() == [0]

    def test_profile_must_fit_instance(self, two_state_instance):
        for beliefs in MISFITS:
            with pytest.raises(DimensionMismatchError):
                policy_value(two_state_instance, BeliefProfile(beliefs, 0), 0, 2,
                             myopic_policy(two_state_instance))

    def test_seeded_random_deterministic(self, two_state_instance):
        beliefs = np.array([BeliefProfile(two_state_instance.initial_beliefs, 0).arrays()])
        p1, p2 = seeded_random_policy(2, 7), seeded_random_policy(2, 7)
        assert [p1.decide(t, beliefs).tolist() for t in range(10)] == [
            p2.decide(t, beliefs).tolist() for t in range(10)
        ]

    @pytest.mark.parametrize("n_projects, seed, value", [(3, -1, "-1"), (0, 7, "0"), (-2, 7, "-2")])
    def test_seeded_random_rejects_bad_arguments(self, n_projects, seed, value):
        # At construction, not at the first decision inside numpy.
        with pytest.raises(ValueError, match=f"got {value}$"):
            seeded_random_policy(n_projects, seed)

    @pytest.mark.parametrize("n_projects", [0, -1])
    def test_round_robin_rejects_fewer_than_one_project(self, n_projects):
        # At construction: 0 would divide by zero at the first decision,
        # and -1 would work project 1 every slot.
        with pytest.raises(ValueError, match=f"got {n_projects}$"):
            round_robin_policy(n_projects)

    @pytest.mark.parametrize("project", [0, -1])
    def test_stay_rejects_a_project_below_one(self, project):
        with pytest.raises(ValueError, match=f"got {project}$"):
            stay_policy(project)

    # Each of these ran another policy: stay-1.5 worked project 1,
    # round-robin over 2.5 projects worked 0, 1, 2, 0, 1, 0, ..., and
    # random over 2.5 projects never picked project 3.
    @pytest.mark.parametrize(
        "make, name",
        [
            pytest.param(lambda: stay_policy(1.5), "project", id="stay-1.5"),
            pytest.param(lambda: stay_policy(True), "project", id="stay-True"),
            pytest.param(lambda: round_robin_policy(2.5), "n_projects", id="round-robin-2.5"),
            pytest.param(lambda: round_robin_policy(True), "n_projects", id="round-robin-True"),
            pytest.param(lambda: seeded_random_policy(2.5, 1), "n_projects", id="random-2.5"),
            pytest.param(lambda: seeded_random_policy(True, 1), "n_projects", id="random-True"),
            pytest.param(lambda: seeded_random_policy(3, 1.0), "seed", id="random-seed-1.0"),
            pytest.param(lambda: seeded_random_policy(3, True), "seed", id="random-seed-True"),
        ],
    )
    def test_non_integer_project_or_count_rejected(self, make, name):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            make()

    def test_numpy_integer_project_and_count_accepted(self, two_state_instance):
        beliefs = np.array([BeliefProfile(two_state_instance.initial_beliefs, 0).arrays()])
        assert stay_policy(np.int64(2)).decide(0, beliefs).tolist() == [1]
        assert round_robin_policy(np.int32(2)).decide(3, beliefs).tolist() == [1]
        p1, p2 = seeded_random_policy(np.int64(2), np.uint8(7)), seeded_random_policy(2, 7)
        assert [p1.decide(t, beliefs).tolist() for t in range(10)] == [
            p2.decide(t, beliefs).tolist() for t in range(10)
        ]


class TestSlotAndHorizonChecks:
    def test_negative_slot_rejected(self, two_state_instance):
        inst = two_state_instance
        prof = BeliefProfile(inst.initial_beliefs, 0)
        calls = (
            lambda t, T: policy_value(inst, prof, t, T, myopic_policy(inst)),
            lambda t, T: avf_evaluate(inst, prof, t, T, 1),
            lambda t, T: optimal_value(inst, prof, t, T),
        )
        for call in calls:
            for t, T in ((-2, 1), (-1, 0), (0, -1)):
                with pytest.raises(ValueError):
                    call(t, T)

    def test_non_integer_slot_or_horizon_rejected(self, two_state_instance):
        # Unchecked, the sweep would value a float T as its floor, and
        # the DP would fail deep inside on its per-depth count list.
        inst = two_state_instance
        prof = BeliefProfile(inst.initial_beliefs, 0)
        calls = (
            lambda t, T: policy_value(inst, prof, t, T, myopic_policy(inst)),
            lambda t, T: avf_evaluate(inst, prof, t, T, 1),
            lambda t, T: optimal_value(inst, prof, t, T),
            lambda t, T: certify_myopic(inst, T) if t == 0 else optimal_value(inst, prof, t, T),
        )
        for call in calls:
            for t, T, name, shown in ((0, 2.5, "T", "2.5"), (0, 2.0, "T", "2.0"),
                                      (1.0, 2, "t", "1.0"), (0, np.float64(2.0), "T", "2.0")):
                with pytest.raises(TypeError, match=f"^{name} must be an integer, got .*{shown}"):
                    call(t, T)
            # Python and numpy integers stay accepted.
            assert call(np.int64(0), np.int32(2)) == call(0, 2)
