import numpy as np
import pytest

from restless_sched import (
    ClauseResult,
    ModelInstance,
    find_threshold_K,
    verify_assumption1,
    verify_assumption2,
)
from restless_sched.types import ObservationMatrix, TransitionMatrix


def clause(report, cid):
    return next(c for c in report.clause_results if c.clause == cid)


class TestVerifyAssumption1:
    def test_hand_instance_satisfies(self, two_state_instance):
        rep = verify_assumption1(two_state_instance)
        assert rep.satisfied
        assert rep.regime == "Assumption1"
        assert rep.K == 2
        assert all(c.passed for c in rep.clause_results)

    def test_all_clauses_always_reported(self, two_state_instance):
        # Break clause 1 and confirm the others are still evaluated.
        bad = ModelInstance(
            2, 2, 2,
            np.array([[0.2, 0.8], [0.9, 0.1]]),  # descending rows
            two_state_instance.B, two_state_instance.R, 0.5,
            [[0.5, 0.5], [0.5, 0.5]],
        )
        rep = verify_assumption1(bad)
        assert not rep.satisfied
        assert rep.regime == "Neither"
        assert len(rep.clause_results) == 5
        assert not clause(rep, "1.1").passed
        assert clause(rep, "1.2").passed

    def test_chain_clause_failure_detail(self, two_state_instance):
        bad = ModelInstance(
            2, 2, 2, two_state_instance.A, two_state_instance.B,
            two_state_instance.R, 0.5,
            # Reversed chain: x0(1) >_r x0(2).
            [[0.1, 0.9], [0.6, 0.4]],
        )
        rep = verify_assumption1(bad)
        assert not clause(rep, "1.4").passed

    def test_separation_clause_beta(self, two_state_instance):
        hot = ModelInstance(
            2, 2, 2, two_state_instance.A, two_state_instance.B,
            two_state_instance.R, 0.999, two_state_instance.initial_beliefs,
        )
        rep = verify_assumption1(hot)
        assert not clause(rep, "1.5").passed
        assert "separation" in clause(rep, "1.5").detail

    def test_json_dict_shape(self, two_state_instance):
        doc = verify_assumption1(two_state_instance).to_json_dict()
        assert doc["regime"] == "Assumption1"
        assert doc["K"] == 2
        assert len(doc["clauses"]) == 5


class TestThresholdK:
    def test_hand_instance_k2(self, two_state_instance):
        assert find_threshold_K(two_state_instance.A, two_state_instance.B, 1) == 2

    def test_uninformative_obs_no_threshold_regime1(self, two_state_instance):
        B_flat = ObservationMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert find_threshold_K(two_state_instance.A, B_flat, 1) is None

    def test_uninformative_obs_threshold_regime2_alt(self):
        A = TransitionMatrix([[0.2, 0.8], [0.9, 0.1]])  # descending
        B_flat = ObservationMatrix([[0.5, 0.5], [0.5, 0.5]])
        # Mirrored reading: flat observations satisfy both inequalities
        # with equality at the threshold.
        assert find_threshold_K(A, B_flat, 2, alt_clause3=True) == 2

    def test_regime2_literal_reading_fails_flat(self):
        A = TransitionMatrix([[0.2, 0.8], [0.9, 0.1]])
        B_flat = ObservationMatrix([[0.5, 0.5], [0.5, 0.5]])
        # Literal second inequality references the two-step image of the
        # opposite extreme; flat observations cannot bridge it.
        assert find_threshold_K(A, B_flat, 2, alt_clause3=False) is None

    @pytest.mark.parametrize("regime", [True, 1.0])
    def test_non_integer_regime_rejected(self, two_state_instance, regime):
        # True == 1 and 1.0 == 1, so a membership test alone runs both
        # as regime 1.
        with pytest.raises(TypeError, match="regime"):
            find_threshold_K(two_state_instance.A, two_state_instance.B, regime)


class TestVerifyAssumption2:
    def _descending_instance(self):
        # Rows descending: A_1 = (0.2, 0.8) >=_r A_2 = (0.9, 0.1).
        A = np.array([[0.2, 0.8], [0.9, 0.1]])
        B = np.array([[0.5, 0.5], [0.5, 0.5]])
        # Descending chain: ratios 7/3 then 13/7, inside [A_2, A_1].
        x0 = [[0.3, 0.7], [0.35, 0.65]]
        return ModelInstance(2, 2, 2, A, B, [0.0, 1.0], 0.4, x0)

    def test_descending_instance_satisfies_alt(self):
        rep = verify_assumption2(self._descending_instance(), alt_clause3=True)
        assert rep.satisfied
        assert rep.regime == "Assumption2"

    def test_descending_chain_direction(self):
        inst = self._descending_instance()
        rep = verify_assumption2(inst, alt_clause3=True)
        assert clause(rep, "2.4").passed
        # Ascending initial chain must break the descending clause.
        flipped = ModelInstance(
            2, 2, 2, inst.A, inst.B, inst.R, inst.beta,
            [[0.35, 0.65], [0.3, 0.7]],
        )
        rep2 = verify_assumption2(flipped, alt_clause3=True)
        assert not clause(rep2, "2.4").passed

    def test_generated_instances_reverify(self, small_params):
        from restless_sched import gen_assumption1_instance, gen_assumption2_instance

        for seed in range(5):
            i1 = gen_assumption1_instance(small_params, seed)
            assert verify_assumption1(i1).satisfied
            i2 = gen_assumption2_instance(small_params, 100 + seed)
            assert verify_assumption2(i2, alt_clause3=True).satisfied


# Rows 2 and 3 break the ascending order, rows 1 and 2 the descending one.
A_UNORDERED = [[0.7, 0.2, 0.1], [0.2, 0.3, 0.5], [0.5, 0.3, 0.2]]
A_ASCENDING = [[0.7, 0.2, 0.1], [0.3, 0.4, 0.3], [0.1, 0.2, 0.7]]
# Column 2 >=_r column 1 fails at states (3, 2) only: 0.5 * 0.3 < 0.7 * 0.5.
B_UNORDERED = [[0.8, 0.2], [0.3, 0.7], [0.5, 0.5]]
B_ASCENDING = [[0.8, 0.2], [0.5, 0.5], [0.3, 0.7]]


def three_state(A, B, x0):
    return ModelInstance(len(x0), 3, 2, A, B, [0.0, 1.0, 2.0], 0.5, x0)


class TestClauseDetails:
    """The detail string and witness of each order clause, per regime."""

    def test_row_order_witness(self):
        inst = three_state(A_UNORDERED, B_ASCENDING, [[0.4, 0.3, 0.3]])
        assert clause(verify_assumption1(inst), "1.1") == ClauseResult(
            "1.1", False, "rows (2, 3) break the ascending MLR order"
        )
        assert clause(verify_assumption2(inst), "2.1") == ClauseResult(
            "2.1", False, "rows (1, 2) break the descending MLR order"
        )
        ordered = three_state(A_ASCENDING, B_ASCENDING, [[0.4, 0.3, 0.3]])
        assert clause(verify_assumption1(ordered), "1.1") == ClauseResult("1.1", True, "")
        assert clause(verify_assumption2(ordered), "2.1") == ClauseResult(
            "2.1", False, "rows (1, 2) break the descending MLR order"
        )

    @pytest.mark.parametrize("verify, regime", [(verify_assumption1, 1), (verify_assumption2, 2)])
    def test_observation_column_witness(self, verify, regime):
        inst = three_state(A_ASCENDING, B_UNORDERED, [[0.4, 0.3, 0.3]])
        assert clause(verify(inst), f"{regime}.2") == ClauseResult(
            f"{regime}.2", False, "observation columns unordered at states (3, 2)"
        )
        ordered = three_state(A_ASCENDING, B_ASCENDING, [[0.4, 0.3, 0.3]])
        assert clause(verify(ordered), f"{regime}.2") == ClauseResult(f"{regime}.2", True, "")

    @pytest.mark.parametrize("x0, detail", [
        ([[0.4, 0.6], [0.5, 0.5]], "x0[1] <=_r x0[2] fails"),
        ([[1.0, 0.0], [0.4, 0.6]], "A_1 <=_r x0[1] fails"),
        ([[0.5, 0.5], [0.1, 0.9]], "x0[2] <=_r A_X fails"),
        ([[0.5, 0.5], [0.4, 0.6], [0.45, 0.55]], "x0[2] <=_r x0[3] fails"),
        ([[0.5, 0.5], [0.5, 0.5]], ""),
    ])
    def test_ascending_chain_detail(self, two_state_instance, x0, detail):
        inst = ModelInstance(
            len(x0), 2, 2, two_state_instance.A, two_state_instance.B,
            two_state_instance.R, 0.5, x0,
        )
        assert clause(verify_assumption1(inst), "1.4") == ClauseResult("1.4", not detail, detail)

    @pytest.mark.parametrize("x0, detail", [
        ([[0.35, 0.65], [0.3, 0.7]], "x0[1] >=_r x0[2] fails"),
        ([[0.1, 0.9], [0.3, 0.7]], "A_1 >=_r x0[1] fails"),
        ([[0.3, 0.7], [0.95, 0.05]], "x0[2] >=_r A_X fails"),
        ([[0.3, 0.7], [0.35, 0.65]], ""),
    ])
    def test_descending_chain_detail(self, x0, detail):
        A = [[0.2, 0.8], [0.9, 0.1]]
        inst = ModelInstance(2, 2, 2, A, [[0.5, 0.5], [0.5, 0.5]], [0.0, 1.0], 0.4, x0)
        assert clause(verify_assumption2(inst), "2.4") == ClauseResult("2.4", not detail, detail)

    @pytest.mark.parametrize("verify, regime", [(verify_assumption1, 1), (verify_assumption2, 2)])
    def test_single_state_separation_passes_vacuously(self, verify, regime):
        # X = 1: R is vacuously increasing and no pair of states is
        # adjacent.
        inst = ModelInstance(2, 1, 2, [[1.0]], [[0.5, 0.5]], [1.0], 0.9, [[1.0], [1.0]])
        rep = verify(inst)
        assert clause(rep, f"{regime}.5") == ClauseResult(
            f"{regime}.5", True, "no adjacent states"
        )
        assert rep.regime == f"Assumption{regime}"

    def test_whole_report(self):
        inst = three_state(A_UNORDERED, B_UNORDERED, [[0.3, 0.3, 0.4], [0.4, 0.3, 0.3]])
        doc = verify_assumption1(inst).to_json_dict()
        assert doc["regime"] == "Neither" and doc["K"] is None
        assert [(c["clause"], c["passed"], c["detail"]) for c in doc["clauses"][:4]] == [
            ("1.1", False, "rows (2, 3) break the ascending MLR order"),
            ("1.2", False, "observation columns unordered at states (3, 2)"),
            ("1.3", False, "no threshold K in 2..Y"),
            ("1.4", False, "x0[1] <=_r x0[2] fails"),
        ]


def _mixture_instance(rng, X):
    """Ascending A and, usually, MLR-ordered B from geometric anchors, so
    that clause 3 both passes and fails across draws."""
    Y = int(rng.integers(2, 4))
    low = rng.uniform(0.1, 0.6) ** np.arange(X)
    low /= low.sum()
    w = np.sort(rng.uniform(0.0, 1.0, X))
    A = np.outer(1 - w, low) + np.outer(w, low[::-1])
    b_low = rng.uniform(0.005, 0.5) ** np.arange(Y)
    b_low /= b_low.sum()
    v = np.linspace(0.0, 1.0, X) if rng.random() < 0.8 else rng.uniform(0.0, 1.0, X)
    B = np.outer(1 - v, b_low) + np.outer(v, b_low[::-1])
    return TransitionMatrix(A), ObservationMatrix(B)


@pytest.mark.parametrize("alt", [False, True])
def test_threshold_mirrors_under_state_reversal(alt):
    # Regime 2 is regime 1 with the states relabelled in reverse: with P
    # the reversal permutation, K(PAP, PB, 2) == K(A, B, 1).
    rng = np.random.default_rng(9)
    found = set()
    for k in range(400):
        X = 2 + k % 2
        if k % 4 < 2:
            A, B = _mixture_instance(rng, X)
        else:
            A = TransitionMatrix(rng.dirichlet(np.ones(X), X))
            B = ObservationMatrix(rng.dirichlet(np.ones(int(rng.integers(2, 4))), X))
        K = find_threshold_K(A, B, 1, alt)
        flipped_A = TransitionMatrix(A.rows[::-1, ::-1])
        flipped_B = ObservationMatrix(B.rows[::-1])
        assert find_threshold_K(flipped_A, flipped_B, 2, alt) == K, k
        found.add(K is None)
    assert found == {True, False}
