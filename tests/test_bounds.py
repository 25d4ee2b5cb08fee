import numpy as np
import pytest

from conftest import lemma_intervals, per_sample_bounds_suite, recursive_avf, reference_sweep
import restless_sched.bounds as bounds_module
from restless_sched import (
    BeliefProfile,
    BeliefVector,
    GeneratorParams,
    IncomparablePairError,
    ModelInstance,
    avf_evaluate,
    check_bounds_suite,
    gen_assumption1_instance,
    gen_assumption2_instance,
    lemma2_bounds,
    lemma4_bounds,
    myopic_policy,
    stay_policy,
    verify_assumption1,
)
from restless_sched.bounds import _interval_table
from restless_sched.policy import PolicyRule, TreeEvaluator

#: (case, T, u, u') of the samples of two twelve-sample suites, keyed by
#: (regime, instance seed, suite seed), as ``per_sample_bounds_suite``
#: draws them; evaluation must not change the draws.
PINNED_DRAWS = {
    (1, 3, 5): [
        ("C1", 3, 2, 2), ("C2", 4, 2, 2), ("C3", 3, 1, 2), ("C1", 1, 1, 1),
        ("C2", 0, 2, 2), ("C3", 4, 1, 2), ("C1", 1, 2, 2), ("C2", 4, 2, 2),
        ("C3", 2, 1, 2), ("C1", 1, 2, 2), ("C2", 2, 2, 2), ("C3", 0, 1, 2),
    ],
    (2, 1009, 11): [
        ("D1", 0, 2, 2), ("D2", 2, 3, 3), ("D3", 3, 2, 3), ("D1", 2, 3, 3),
        ("D2", 1, 2, 2), ("D3", 1, 1, 2), ("D1", 4, 2, 2), ("D2", 4, 3, 3),
        ("D3", 0, 1, 3), ("D1", 4, 3, 3), ("D2", 3, 3, 3), ("D3", 1, 2, 3),
    ],
}


def sample_fields(s) -> tuple:
    """Every field of a bound sample, floats and arrays by their bits."""
    return (s.case, s.t, s.T, s.x_low.tobytes(), s.x_high.tobytes(), s.u, s.u_prime,
            s.delta_w.hex(), s.lower.hex(), s.upper.hex(), s.verdict)


@pytest.fixture
def draw_rounds(monkeypatch) -> list:
    """(target cases, candidates per sample) of each round of draws the
    suites of a test make, recorded around ``bounds._draw_candidates``."""
    rounds = []
    draw = bounds_module._draw_candidates

    def spy(rng, want, n, *args):
        rounds.append((want.tolist(), n))
        return draw(rng, want, n, *args)

    monkeypatch.setattr(bounds_module, "_draw_candidates", spy)
    return rounds


def reference_fields(reference) -> list:
    """``sample_fields`` of each sample of ``per_sample_bounds_suite``."""
    return [
        (case, t, T, x_low.tobytes(), x_high.tobytes(), u, u_prime,
         gap.hex(), lower.hex(), upper.hex(), verdict)
        for case, t, T, x_low, x_high, u, u_prime, gap, lower, upper, verdict in reference
    ]


def mlr_deltas(rng, inst, regime, n):
    """n differences x̌ - x of pairs on the segment between the extreme
    rows of A, ordered as the regime's suite orders them."""
    low, high = inst.A.rows[-1], inst.A.rows[0]
    if regime == 1:
        low, high = high, low
    w = np.sort(rng.uniform(0.0, 1.0, (n, 2)), axis=1)
    return np.outer(w[:, 1] - w[:, 0], high - low)


@pytest.mark.parametrize("bound_fn", [lemma2_bounds, lemma4_bounds])
class TestLemmaInputChecks:
    def test_slot_outside_horizon(self, two_state_instance, bound_fn):
        delta = np.array([-0.2, 0.2])
        with pytest.raises(ValueError, match="negative"):
            bound_fn(two_state_instance, -1, 2, delta)
        with pytest.raises(ValueError, match="exceeds horizon"):
            bound_fn(two_state_instance, 3, 2, delta)

    def test_wrong_delta_shape(self, two_state_instance, bound_fn):
        for delta in (np.zeros(3), np.zeros((1, 2)), 0.0):
            with pytest.raises(ValueError, match="shape"):
                bound_fn(two_state_instance, 0, 2, delta)

    def test_nonzero_sum(self, two_state_instance, bound_fn):
        with pytest.raises(ValueError, match="sum 0"):
            bound_fn(two_state_instance, 0, 2, np.array([0.3, 0.3]))

    def test_negative_fosd_tail(self, two_state_instance, bound_fn):
        with pytest.raises(ValueError, match="MLR-ordered"):
            bound_fn(two_state_instance, 0, 2, np.array([0.3, -0.3]))

    def test_non_integer_slot_or_horizon(self, two_state_instance, bound_fn):
        # Unchecked, T = 2.5 gave T = 2's intervals, t = 0.5 and T = True
        # the span-1 intervals, and T = '3' a bare comparison error.
        delta = np.array([-0.2, 0.2])
        for t, T, name in ((0, 2.5, "T"), (0.5, 2, "t"), (0, True, "T"), (np.True_, 2, "t"),
                           (0, "3", "T"), ("0", 2, "t"), (0, 2.0, "T")):
            with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
                bound_fn(two_state_instance, t, T, delta)
        # numpy integers stay accepted, with the same intervals.
        got = bound_fn(two_state_instance, np.int64(1), np.int32(3), delta)
        assert got == bound_fn(two_state_instance, 1, 3, delta)

    def test_non_finite_delta(self, small_params, bound_fn):
        inst = gen_assumption1_instance(small_params, 3)
        for delta in ([np.nan, 0.0, 0.0], [np.inf, -np.inf, 0.0], [0.0, np.inf, 0.0],
                      [-np.inf, 0.0, np.nan]):
            with pytest.raises(ValueError, match="finite"):
                bound_fn(inst, 0, 2, np.array(delta))


class TestIntervalTable:
    @pytest.mark.parametrize("regime", [1, 2])
    def test_rows_match_per_delta_loop(self, small_params, regime):
        # Spans past 6 (8 terms or more) would reach numpy's pairwise
        # summation; the table adds the terms in order, as the loop does.
        gen = gen_assumption1_instance if regime == 1 else gen_assumption2_instance
        inst = gen(small_params, 3 if regime == 1 else 1009)
        bound_fn = lemma2_bounds if regime == 1 else lemma4_bounds
        deltas = mlr_deltas(np.random.default_rng(regime), inst, regime, 7)
        for span in (0, 1, 4, 9, 20):
            table = _interval_table(inst, regime, span, deltas)
            assert table.shape == (7, 3, 2)
            for delta, row in zip(deltas, table.tolist()):
                want = lemma_intervals(inst, span, delta, regime)
                assert bound_fn(inst, 0, span, delta) == want
                assert [tuple(pair) for pair in row] == list(want.values())

    @pytest.mark.parametrize("regime", [1, 2])
    def test_mixed_spans_match_per_span_tables(self, small_params, regime):
        # Rows of spans 0..6 in one table, interleaved, against one table
        # per span: the same bits, row for row.
        gen = gen_assumption1_instance if regime == 1 else gen_assumption2_instance
        inst = gen(small_params, 3 if regime == 1 else 1009)
        deltas = mlr_deltas(np.random.default_rng(regime), inst, regime, 42)
        spans = np.random.default_rng(7).permutation(np.arange(42) % 7)
        table = _interval_table(inst, regime, spans, deltas)
        for span in range(7):
            picked = spans == span
            want = _interval_table(inst, regime, span, deltas[picked])
            np.testing.assert_array_equal(table[picked].view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("regime", [1, 2])
    def test_long_spans_match_one_row_tables(self, small_params, regime):
        # Spans 7..10 in one table of 11 columns, against each row's own
        # table: numpy would sum a padded row of 8 or more terms pairwise.
        gen = gen_assumption1_instance if regime == 1 else gen_assumption2_instance
        inst = gen(small_params, 3 if regime == 1 else 1009)
        deltas = mlr_deltas(np.random.default_rng(regime + 10), inst, regime, 40)
        spans = np.random.default_rng(8).permutation(np.arange(40) % 4 + 7)
        table = _interval_table(inst, regime, spans, deltas)
        for row, span, delta in zip(table, spans, deltas):
            want = _interval_table(inst, regime, span, delta[None])[0]
            np.testing.assert_array_equal(row.view(np.uint64), want.view(np.uint64))

    def test_rejects_any_bad_row(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        deltas = mlr_deltas(np.random.default_rng(0), inst, 1, 4)
        deltas[2] = -deltas[2]
        with pytest.raises(ValueError, match="MLR-ordered"):
            _interval_table(inst, 1, 2, deltas)
        deltas[2, 0] += 1e-6
        with pytest.raises(ValueError, match="sum 0"):
            _interval_table(inst, 1, 2, deltas)


class TestLemma2Bounds:
    def test_zero_delta_all_zero(self, two_state_instance):
        b = lemma2_bounds(two_state_instance, 0, 3, np.zeros(2))
        for lo, hi in b.values():
            assert lo == 0.0 and hi == 0.0

    def test_terminal_collapse(self, two_state_instance):
        delta = np.array([-0.2, 0.2])
        b = lemma2_bounds(two_state_instance, 3, 3, delta)
        r_delta = float(two_state_instance.R.values @ delta)
        assert b["C1"] == (pytest.approx(r_delta), pytest.approx(r_delta))
        assert b["C2"] == (0.0, pytest.approx(0.0))

    def test_power_accumulation_hand_loop(self, two_state_instance):
        # Accumulate beta^i R'(A')^i delta by an explicit loop and
        # compare against the returned intervals.
        inst = two_state_instance
        delta = np.array([-0.3, 0.3])
        terms = []
        v = delta.copy()
        for i in range(3):
            terms.append(inst.beta ** i * float(inst.R.values @ v))
            v = inst.A.rows.T @ v
        b = lemma2_bounds(inst, 0, 2, delta)
        assert b["C1"][0] == pytest.approx(terms[0])
        assert b["C1"][1] == pytest.approx(sum(terms))
        assert b["C2"][1] == pytest.approx(sum(terms[1:]))
        assert b["C3"] == (0.0, pytest.approx(sum(terms)))

    def test_negative_slot_rejected(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        with pytest.raises(ValueError, match="negative"):
            lemma2_bounds(inst, -3, 1, np.zeros(inst.n_states))

    def test_order_precondition_enforced(self, two_state_instance):
        with pytest.raises(ValueError):
            lemma2_bounds(two_state_instance, 0, 2, np.array([0.3, -0.3]))
        with pytest.raises(ValueError):
            lemma2_bounds(two_state_instance, 0, 2, np.array([0.3, 0.3]))


class TestLemma4Bounds:
    def test_span_zero(self, two_state_instance):
        delta = np.array([-0.2, 0.2])
        r_delta = float(two_state_instance.R.values @ delta)
        b = lemma4_bounds(two_state_instance, 2, 2, delta)
        assert b["D1"] == (pytest.approx(r_delta), pytest.approx(r_delta))
        assert b["D2"] == (pytest.approx(0.0), pytest.approx(0.0))

    def test_negative_slot_rejected(self, small_params):
        inst = gen_assumption2_instance(small_params, 1003)
        with pytest.raises(ValueError, match="negative"):
            lemma4_bounds(inst, -3, 1, np.zeros(inst.n_states))

    def test_span_one_single_odd_power(self, two_state_instance):
        inst = two_state_instance
        delta = np.array([-0.2, 0.2])
        r_delta = float(inst.R.values @ delta)
        odd1 = inst.beta * float(inst.R.values @ (inst.A.rows.T @ delta))
        b = lemma4_bounds(inst, 1, 2, delta)
        assert b["D1"] == (pytest.approx(r_delta + odd1), pytest.approx(r_delta))
        assert b["D2"] == (pytest.approx(odd1), pytest.approx(0.0))
        assert b["D3"] == (pytest.approx(odd1), pytest.approx(r_delta))

    def test_measured_gap_inside_interval(self, small_params):
        # Case D1 measured directly with the auxiliary evaluator on a
        # descending-regime instance.
        inst = gen_assumption2_instance(small_params, 1003)
        lo_anchor, hi_anchor = inst.A.rows[-1], inst.A.rows[0]
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.uniform(0.3, 0.7)
            x = (1 - w) * lo_anchor + w * hi_anchor
            raised = 0.5 * x + 0.5 * hi_anchor
            delta = raised - x
            T = int(rng.integers(0, 4))
            others = [x.copy() for _ in range(inst.n_projects - 1)]
            prof_lo = BeliefProfile([BeliefVector(b) for b in [raised * 0 + x] + others], 0)
            prof_hi = BeliefProfile([BeliefVector(b) for b in [raised] + others], 0)
            dw = avf_evaluate(inst, prof_hi, 0, T, 1) - avf_evaluate(inst, prof_lo, 0, T, 1)
            lo, hi = lemma4_bounds(inst, 0, T, delta)["D1"]
            assert lo - 1e-9 <= dw <= hi + 1e-9


class TestCheckBoundsSuite:
    def test_regime1_no_violations(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        samples = check_bounds_suite(inst, 90, 11)
        assert len(samples) == 90
        assert {s.case for s in samples} == {"C1", "C2", "C3"}
        assert all(s.verdict == "Pass" for s in samples)
        assert min(s.slack_low for s in samples) >= -1e-9
        assert min(s.slack_high for s in samples) >= -1e-9

    def test_regime2_no_violations(self, small_params):
        inst = gen_assumption2_instance(small_params, 1009)
        samples = check_bounds_suite(inst, 90, 11)
        assert {s.case for s in samples} == {"D1", "D2", "D3"}
        assert all(s.verdict == "Pass" for s in samples)

    def test_unknown_regime_rejected(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        for regime in (0, 3):
            with pytest.raises(ValueError, match="regime"):
                check_bounds_suite(inst, 3, 0, regime=regime)

    def test_non_integer_regime_rejected(self, small_params):
        # True == 1 and 1.0 == 1, so a membership test alone runs both
        # as regime 1.
        inst = gen_assumption1_instance(small_params, 3)
        for regime in (True, 1.0):
            with pytest.raises(TypeError, match="regime"):
                check_bounds_suite(inst, 3, 0, regime=regime)

    def test_no_samples_rejected(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        for n_samples in (0, -5):
            with pytest.raises(ValueError, match="n_samples"):
                check_bounds_suite(inst, n_samples, 0)

    def test_non_integer_sample_count_rejected(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        with pytest.raises(TypeError, match="^n_samples must be an integer, got 3.5"):
            check_bounds_suite(inst, 3.5, 0)
        # Python and numpy integers stay accepted.
        got, want = check_bounds_suite(inst, np.int64(3), 0), check_bounds_suite(inst, 3, 0)
        assert [(s.case, s.T, s.delta_w, s.lower, s.upper) for s in got] == [
            (s.case, s.T, s.delta_w, s.lower, s.upper) for s in want
        ]

    def test_bool_sample_count_rejected(self, small_params):
        # isinstance(True, int) holds: unchecked, True failed inside numpy.
        inst = gen_assumption1_instance(small_params, 3)
        for n_samples in (True, np.True_):
            with pytest.raises(TypeError, match="^n_samples must be an integer, got "):
                check_bounds_suite(inst, n_samples, 0)

    def test_bad_seed_rejected(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        for seed in (0.5, 2.0, True):
            with pytest.raises(TypeError, match=f"^seed must be an integer, got {seed}$"):
                check_bounds_suite(inst, 3, seed)
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            check_bounds_suite(inst, 3, -1)
        # Python and numpy integers stay accepted.
        got, want = check_bounds_suite(inst, 3, np.int64(4)), check_bounds_suite(inst, 3, 4)
        assert [(s.case, s.T, s.delta_w, s.lower, s.upper) for s in got] == [
            (s.case, s.T, s.delta_w, s.lower, s.upper) for s in want
        ]

    def test_one_project_rejected(self, monkeypatch):
        # Cases 2 and 3 need a project other than l; nothing is drawn.
        inst = ModelInstance(1, 2, 2, [[0.9, 0.1], [0.2, 0.8]], [[0.99, 0.01], [0.01, 0.99]],
                             [0.0, 1.0], 0.5, [[0.6, 0.4]])
        monkeypatch.setattr(np.random, "default_rng", None)
        for regime in (None, 1, 2):
            with pytest.raises(ValueError, match="N=1"):
                check_bounds_suite(inst, 30, 0, regime=regime)

    def test_equal_extreme_rows_rejected(self, monkeypatch):
        # A rank-one A verifies as Assumption 1, but every profile on the
        # segment between its equal extreme rows is the same point, so no
        # case can be realized; nothing is drawn.
        A = np.array([[0.3, 0.5, 0.2]] * 3)
        B = np.array([[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]])
        inst = ModelInstance(2, 3, 2, A, B, np.array([0.0, 0.5, 1.0]), 0.8, [A[0], A[0]])
        monkeypatch.setattr(np.random, "default_rng", None)
        for regime in (None, 1, 2):
            with pytest.raises(ValueError, match="distinct first and last rows of A"):
                check_bounds_suite(inst, 30, 0, regime=regime)

    def test_constant_reward_rejected(self, monkeypatch):
        # A constant R still verifies as Assumption 1, but every drawn
        # belief then ties on immediate reward, so case C3 (u' = l != u)
        # can never be realized; the suite refuses before any draw.
        gen = gen_assumption1_instance(GeneratorParams(), 3)
        inst = ModelInstance(
            gen.n_projects, gen.n_states, gen.n_obs, gen.A, gen.B,
            np.ones(gen.n_states), gen.beta, gen.initial_beliefs,
        )
        assert verify_assumption1(inst).regime == "Assumption1"
        assert not np.array_equal(inst.A.rows[0], inst.A.rows[-1])
        monkeypatch.setattr(np.random, "default_rng", None)
        for regime in (None, 1, 2):
            with pytest.raises(ValueError, match="immediate rewards differ"):
                check_bounds_suite(inst, 30, 0, regime=regime)

    @pytest.mark.parametrize("regime, gen, case", [
        (1, gen_assumption1_instance, "C3"),
        (2, gen_assumption2_instance, "D3"),
    ])
    def test_unrealized_case_gives_up_after_200_draws(self, small_params, monkeypatch,
                                                      draw_rounds, regime, gen, case):
        # A rule that always works project 0 never gives u' = l != u.
        inst = gen(small_params, 3 if regime == 1 else 1009)
        monkeypatch.setattr(bounds_module, "myopic_policy", lambda inst: stay_policy(1))
        with pytest.raises(IncomparablePairError, match=f"case {case} in 200 draws"):
            check_bounds_suite(inst, 3, 0, regime=regime)
        # The case-3 sample is in every round and draws exactly 200
        # candidates; the last rounds hold it alone.
        assert all(want[-1] == 3 for want, _ in draw_rounds)
        assert sum(n for _, n in draw_rounds) == 200
        assert draw_rounds[-1][0] == [3]

    @pytest.mark.parametrize("regime, gen", [(1, gen_assumption1_instance),
                                             (2, gen_assumption2_instance)])
    def test_draws_do_not_depend_on_classification(self, small_params, monkeypatch,
                                                   regime, gen):
        # The first round's profiles, as handed to the one decision call,
        # have the same bits under the myopic rule and under a rule that
        # classifies every candidate otherwise.
        inst = gen(small_params, 3 if regime == 1 else 1009)
        seen = []

        def recording(rule):
            return PolicyRule(rule.name, lambda t, b: seen.append(b.copy()) or rule.decide(t, b))

        monkeypatch.setattr(bounds_module, "myopic_policy",
                            lambda inst: recording(myopic_policy(inst)))
        check_bounds_suite(inst, 30, 4, regime=regime)
        mark = len(seen)
        monkeypatch.setattr(bounds_module, "myopic_policy", lambda inst: recording(stay_policy(1)))
        with pytest.raises(IncomparablePairError):
            check_bounds_suite(inst, 30, 4, regime=regime)
        first, other = seen[0], seen[mark]
        assert first.shape == (2 * 30 * bounds_module._CANDIDATES, inst.n_projects, inst.n_states)
        np.testing.assert_array_equal(first.view(np.uint64), other.view(np.uint64))

    @pytest.mark.parametrize("regime, gen", [(1, gen_assumption1_instance),
                                             (2, gen_assumption2_instance)])
    def test_later_round_matches_reference(self, draw_rounds, regime, gen):
        # With N = 2, a case-3 candidate whose top weight is in the last
        # slot is rejected, half of them.  Suite seed 39 leaves one case-3
        # sample unrealized after the first round.
        inst = gen(GeneratorParams(x_range=(2, 2), n_range=(2, 2)), 7)
        samples = check_bounds_suite(inst, 30, 39)
        assert len(draw_rounds) == 2 and draw_rounds[1][0] == [3]
        assert [sample_fields(s) for s in samples] == reference_fields(
            per_sample_bounds_suite(inst, 30, 39, regime)
        )

    @pytest.mark.parametrize("regime", [1, 2])
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("X", [2, 3])
    def test_matches_per_sample_reference(self, regime, N, X):
        gen = gen_assumption1_instance if regime == 1 else gen_assumption2_instance
        inst = gen(GeneratorParams(x_range=(X, X), n_range=(N, N)), 7)
        samples = check_bounds_suite(inst, 60, 5)
        reference = per_sample_bounds_suite(inst, 60, 5, regime)
        assert [sample_fields(s) for s in samples] == reference_fields(reference)

    def test_identical_pair_zero_gap(self, small_params):
        # alpha -> 0 limit checked directly through the bound functions:
        # a zero difference puts the measured gap (also zero for C2/D2)
        # inside every interval.
        inst = gen_assumption1_instance(small_params, 3)
        b = lemma2_bounds(inst, 0, 3, np.zeros(inst.n_states))
        for lo, hi in b.values():
            assert lo <= 0.0 <= hi

    def test_case_classification_recorded(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        for s in check_bounds_suite(inst, 30, 5):
            if s.case == "C1":
                assert s.u == s.u_prime
            elif s.case == "C2":
                assert s.u == s.u_prime
            else:
                assert s.u != s.u_prime

    def test_deterministic_in_seed(self, small_params):
        inst = gen_assumption1_instance(small_params, 3)
        a = check_bounds_suite(inst, 30, 9)
        b = check_bounds_suite(inst, 30, 9)
        assert [(s.case, s.delta_w, s.lower, s.upper) for s in a] == [
            (s.case, s.delta_w, s.lower, s.upper) for s in b
        ]

    def test_gaps_match_unmerged_reference_bit_for_bit(self, monkeypatch):
        # Regime 2, instance seed 1, suite seed 1: in sample 62 (D3) and
        # six others, histories below one profile round to the same key
        # but carry other bits, so a sweep that merged by rounded key
        # moved the gaps' last bits.
        inst = gen_assumption2_instance(GeneratorParams(), 1)
        sweeps = []
        sweep = TreeEvaluator.sweep

        def spy(ev, t, roots, policy, first=None, horizons=None):
            sweeps.append((roots, first, horizons))
            return sweep(ev, t, roots, policy, first, horizons)

        monkeypatch.setattr(TreeEvaluator, "sweep", spy)
        samples = check_bounds_suite(inst, 300, 1)
        assert samples[62].case == "D3"
        (roots, first, _), = sweeps
        policy = myopic_policy(inst)
        for i, s in enumerate(samples):
            low, high = (reference_sweep(inst, roots[k], 0, s.T, policy, first=first[k])
                         for k in (2 * i, 2 * i + 1))
            assert s.delta_w.hex() == (high - low).hex(), i

    @pytest.mark.parametrize("regime, inst_seed, seed", sorted(PINNED_DRAWS))
    def test_gaps_match_memo_free_recursion(self, small_params, monkeypatch,
                                            regime, inst_seed, seed):
        gen = gen_assumption1_instance if regime == 1 else gen_assumption2_instance
        inst = gen(small_params, inst_seed)
        sweeps = []
        sweep = TreeEvaluator.sweep

        def spy(ev, t, roots, policy, first=None, horizons=None):
            sweeps.append((roots, first, horizons))
            return sweep(ev, t, roots, policy, first, horizons)

        monkeypatch.setattr(TreeEvaluator, "sweep", spy)
        samples = check_bounds_suite(inst, 12, seed)
        assert [(s.case, s.T, s.u, s.u_prime) for s in samples] == PINNED_DRAWS[
            (regime, inst_seed, seed)
        ]
        # One sweep per suite, holding each sample's pair in draw order,
        # both profiles valued up to the sample's lookahead.
        assert len(sweeps) == 1
        roots, first, horizons = sweeps[0]
        pairs = zip(roots[0::2], roots[1::2], first[0::2], first[1::2],
                    horizons[0::2], horizons[1::2], strict=True)
        for s, (lo, hi, u, u_prime, T_lo, T_hi) in zip(samples, pairs, strict=True):
            assert (T_lo, T_hi) == (s.T, s.T)
            assert (u + 1, u_prime + 1) == (s.u, s.u_prime)
            changed = np.flatnonzero(np.any(lo != hi, axis=1))
            assert changed.size == 1
            np.testing.assert_allclose(lo[changed[0]], s.x_low, rtol=0, atol=1e-12)
            np.testing.assert_allclose(hi[changed[0]], s.x_high, rtol=0, atol=1e-12)
            want = recursive_avf(inst, hi, 0, s.T, u_prime) - recursive_avf(inst, lo, 0, s.T, u)
            assert s.delta_w == pytest.approx(want, abs=1e-12)
