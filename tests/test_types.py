import json

import numpy as np
import pytest
from conftest import group_merge, reference_merge, row_keys

import restless_sched.policy as policy_module
from restless_sched import (
    BeliefVector,
    InvalidBeliefError,
    ModelInstance,
    RewardVector,
    TransitionMatrix,
    validate_instance,
)
from restless_sched.types import belief_key, valid_belief_rows


class TestBeliefVector:
    def test_simple_construction(self):
        x = BeliefVector([0.25, 0.75])
        assert x.dim == 2
        assert np.allclose(x.probs, [0.25, 0.75])

    def test_small_drift_renormalized(self):
        x = BeliefVector([0.5, 0.5 + 3e-10])
        assert x.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_drift_rejected(self):
        with pytest.raises(InvalidBeliefError):
            BeliefVector([0.5, 0.6])

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidBeliefError):
            BeliefVector([-0.1, 1.1])

    def test_tiny_negative_clamped(self):
        x = BeliefVector([1.0 + 1e-13, -1e-13])
        assert x.probs[1] >= 0.0

    def test_equality_and_hash_on_rounded_key(self):
        a = BeliefVector([0.3, 0.7])
        b = BeliefVector([0.3 + 1e-14, 0.7 - 1e-14])
        assert a == b
        assert hash(a) == hash(b)

    def test_belief_key_negative_zero_normalized(self):
        assert belief_key(np.array([0.0, 1.0])) == belief_key(np.array([-0.0, 1.0]))


class TestValidBeliefRows:
    @pytest.mark.parametrize("X", [2, 3, 9])
    def test_matches_belief_vector_bit_for_bit(self, X):
        # Drift inside RENORM_TOL and entries inside CLAMP_TOL exercise the
        # clamp and the division; X = 9 sums by numpy's pairwise blocks.
        rng = np.random.default_rng(X)
        rows = rng.dirichlet(np.ones(X), (40, 2, 3))
        rows += rng.uniform(-5e-10, 5e-10, rows.shape[:-1])[..., None] / X
        clamped = rng.uniform(size=rows.shape[:-1]) < 0.2
        rows[clamped, 1] += rows[clamped, 0]
        rows[clamped, 0] = -5e-13
        rows[::7] = rng.dirichlet(np.ones(X), rows[::7].shape[:-1])
        before = rows.copy()
        valid = valid_belief_rows(rows)
        assert valid.shape == rows.shape
        np.testing.assert_array_equal(rows, before)
        for row, got in zip(rows.reshape(-1, X), valid.reshape(-1, X)):
            assert got.tobytes() == BeliefVector(row).probs.tobytes()

    def test_clamps_and_renormalises(self):
        rows = np.array([[-1e-13, 1.0], [0.5, 0.5 + 1e-10], [0.25, 0.75]])
        valid = valid_belief_rows(rows)
        assert valid[0].tolist() == [0.0, 1.0]
        assert valid[1].sum() == pytest.approx(1.0, abs=1e-15)
        assert valid[1].tolist() != rows[1].tolist()
        assert valid[2].tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("bad", [
        [np.nan, 1.0], [np.inf, 0.0], [-1e-11, 1.0], [0.5, 0.5 + 2e-9], [0.5, 0.4],
    ])
    def test_rejects_with_belief_vector_message(self, bad):
        with pytest.raises(InvalidBeliefError) as per_belief:
            BeliefVector(bad)
        # The bad belief sits between good ones, and a later one fails the
        # same check with another figure.
        later = [-1e-10, 1.0] if bad[0] == -1e-11 else [0.5, 0.7]
        rows = np.array([[[0.5, 0.5], bad], [[0.3, 0.7], later]])
        with pytest.raises(InvalidBeliefError) as batch:
            valid_belief_rows(rows)
        assert str(batch.value) == str(per_belief.value)

    def test_rejects_empty_beliefs(self):
        with pytest.raises(InvalidBeliefError, match="nonempty"):
            valid_belief_rows(np.zeros((3, 0)))


class TestMatrices:
    def test_transition_rows_kept(self):
        A = TransitionMatrix([[0.9, 0.1], [0.2, 0.8]])
        assert A.rows.shape == (2, 2)

    def test_nonsquare_rejected(self):
        with pytest.raises(Exception):
            TransitionMatrix([[0.5, 0.5]])

    def test_reward_rejects_nonfinite(self):
        with pytest.raises(Exception):
            RewardVector([0.0, np.inf])


class TestModelInstance:
    def test_json_round_trip(self, two_state_instance):
        doc = two_state_instance.to_json_dict()
        clone = ModelInstance.from_json(json.dumps(doc))
        assert np.allclose(clone.A.rows, two_state_instance.A.rows)
        assert np.allclose(clone.B.rows, two_state_instance.B.rows)
        assert clone.beta == two_state_instance.beta
        assert len(clone.initial_beliefs) == 2

    def test_missing_key_raises(self):
        with pytest.raises(ValueError):
            ModelInstance.from_json('{"n_projects": 2}')

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("beta", None, "'beta' must be a number, not NoneType"),
            ("n_projects", None, "'n_projects' must be an integer, not NoneType"),
            ("n_obs", 2.5, "'n_obs' must be an integer, not float"),
            ("n_states", True, "'n_states' must be an integer, not bool"),
            ("x0", 5, "'x0' must be an array, not int"),
            ("A", "rows", "'A' must be an array, not str"),
            ("R", [{}, 1.0], "array entry of the wrong type"),
        ],
    )
    def test_wrongly_typed_field_raises_value_error(self, two_state_instance, field, value, message):
        doc = two_state_instance.to_json_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=message):
            ModelInstance.from_json_dict(doc)

    def test_document_that_is_not_an_object_raises_value_error(self):
        with pytest.raises(ValueError, match="must be an object, not list"):
            ModelInstance.from_json("[]")


class TestValidateInstance:
    def test_good_instance_ok(self, two_state_instance):
        report = validate_instance(two_state_instance)
        assert report.ok
        assert report.problems == ()

    def test_nonstochastic_row_reported(self):
        A = np.array([[0.9, 0.2], [0.2, 0.8]])
        inst = ModelInstance(
            2, 2, 2, TransitionMatrix(A), [[0.9, 0.1], [0.1, 0.9]],
            [0.0, 1.0], 0.5, [[0.5, 0.5], [0.5, 0.5]],
        )
        report = validate_instance(inst)
        assert not report.ok
        assert any("row 1" in p for p in report.problems)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("matrix", ["A", "B"])
    def test_non_finite_entry_reported(self, two_state_instance, matrix, bad):
        # Every comparison with NaN is false, so only an explicit check sees it.
        doc = two_state_instance.to_json_dict()
        doc[matrix][1][0] = bad
        report = validate_instance(ModelInstance.from_json_dict(doc))
        assert report.problems == (f"{matrix} row 2 has a non-finite entry",)

    def test_bad_beta_reported(self, two_state_instance):
        inst = ModelInstance(
            2, 2, 2, two_state_instance.A, two_state_instance.B,
            two_state_instance.R, 1.0, two_state_instance.initial_beliefs,
        )
        assert any("beta" in p for p in validate_instance(inst).problems)

    def test_non_monotone_reward_reported(self, two_state_instance):
        inst = ModelInstance(
            2, 2, 2, two_state_instance.A, two_state_instance.B,
            [1.0, 1.0], 0.5, two_state_instance.initial_beliefs,
        )
        assert any("increasing" in p for p in validate_instance(inst).problems)

    def test_belief_count_mismatch_reported(self, two_state_instance):
        inst = ModelInstance(
            3, 2, 2, two_state_instance.A, two_state_instance.B,
            two_state_instance.R, 0.5, two_state_instance.initial_beliefs,
        )
        assert any("initial beliefs" in p for p in validate_instance(inst).problems)


def reference_count(rows: np.ndarray) -> int:
    return len(np.unique(row_keys(rows)))


def with_groups(rows: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """``rows`` flattened to key rows, with ``groups`` as one more key
    column, as a bound suite's sweep adds each node's horizon."""
    return np.concatenate((rows.reshape(len(rows), -1), groups[:, None]), axis=1)


def planted_duplicates(rng, n: int, N: int, X: int) -> np.ndarray:
    """n profiles of N beliefs on X states, about half of them exact
    copies of others, in shuffled order."""
    distinct = rng.dirichlet(np.ones(X), size=(max(1, n // 2), N))
    return distinct[rng.integers(0, len(distinct), size=n)]


def distinct_count(rows: np.ndarray) -> int:
    """The number of nodes ``group_merge`` keeps of ``rows``, after
    checking that it lists first occurrences in ascending order and maps
    every row to a node with the row's key."""
    first, inverse = group_merge(rows)
    assert (np.diff(first) > 0).all()
    assert np.array_equal(row_keys(rows[first][inverse]), row_keys(rows))
    return len(first)


class TestCountDistinctRows:
    """``group_merge`` counts the distinct keys of a level."""

    @pytest.mark.parametrize("n, N, X", [(1, 3, 3), (200, 1, 2), (200, 3, 3), (200, 3, 4)])
    def test_matches_reference_on_planted_duplicates(self, n, N, X):
        rows = planted_duplicates(np.random.default_rng(n + N * X), n, N, X)
        assert distinct_count(rows) == reference_count(rows)

    def test_negative_zero_shares_a_key_with_zero(self):
        rows = np.array([[[0.0, 1.0]], [[-0.0, 1.0]], [[1.0, 0.0]], [[1.0, -0.0]]])
        assert distinct_count(rows) == reference_count(rows) == 2

    def test_noise_straddling_a_rounding_line_splits_the_key(self):
        # 0.3 + 0.5e-12 is halfway between two 12-decimal keys.
        line = 0.3 + 0.5e-12
        below = [line - 2e-14, line - 1e-14]
        above = [line + 1e-14, line + 2e-14]
        rows = np.array([[[x, 1.0 - x]] for x in below + above])
        assert distinct_count(rows) == reference_count(rows) == 2

    def test_wide_level_matches_reference(self):
        # N=12, X=30: 360 key columns, far more than any certificate has.
        rows = planted_duplicates(np.random.default_rng(12), 300, 12, 30)
        assert distinct_count(rows) == reference_count(rows)

    def test_level_of_one_repeated_key(self):
        rows = np.broadcast_to(np.array([[0.2, 0.8], [0.6, 0.4]]), (50, 2, 2)).copy()
        assert distinct_count(rows) == reference_count(rows) == 1

    def test_equal_keys_in_different_groups_stay_apart(self):
        # A bound suite's sweep groups nodes by their horizon.
        rng = np.random.default_rng(5)
        rows = planted_duplicates(rng, 200, 3, 3)
        groups = rng.integers(0, 3, size=len(rows))
        keys = row_keys(rows)
        want = len({(k.tobytes(), g) for k, g in zip(keys, groups.tolist())})
        assert reference_count(rows) < distinct_count(with_groups(rows, groups)) == want
        first, inverse = group_merge(with_groups(rows, groups))
        assert np.array_equal(groups[first][inverse], groups)



def fingerprint_level(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Planted duplicates whose first beliefs are all equal, so that rows
    differ only in key columns 3 and up, and groups 0..2 for them."""
    rng = np.random.default_rng(seed)
    rows = planted_duplicates(rng, 200, 3, 3)
    rows[:, 0] = rows[0, 0]
    return rows, rng.integers(0, 3, size=len(rows))


def column_0_multipliers(n: int) -> np.ndarray:
    """Fingerprint multipliers that are zero past key column 0, a group
    column's included."""
    return (np.arange(n) == 0).astype(np.uint64)


class TestFingerprintMerge:
    """``_group_rows`` sorts one fingerprint per row and compares
    rows that share one bit for bit; a tie between different rows sends
    the level to ``_exact_merge``."""

    @pytest.mark.parametrize(
        "multipliers",
        [lambda n: np.zeros(n, dtype=np.uint64), column_0_multipliers],
        ids=["zero", "column-0"],
    )
    @pytest.mark.parametrize("grouped", [False, True])
    def test_forced_collisions_take_the_exact_merge(
        self, monkeypatch, exact_merges, multipliers, grouped
    ):
        # Every row ties: all fingerprints are zero, or all rows agree
        # in key column 0.
        rows, groups = fingerprint_level(3)
        keys = with_groups(rows, groups) if grouped else rows
        want = reference_merge(keys)
        monkeypatch.setattr(policy_module, "fingerprint_multipliers", multipliers)
        first, inverse = group_merge(keys)
        assert exact_merges
        assert np.array_equal(first, want[0]) and np.array_equal(inverse, want[1])

    @pytest.mark.parametrize("grouped", [False, True])
    def test_level_merged_by_fingerprints(self, exact_merges, grouped):
        rows, groups = fingerprint_level(3)
        keys = with_groups(rows, groups) if grouped else rows
        want = reference_merge(keys)
        first, inverse = group_merge(keys)
        assert not exact_merges
        assert np.array_equal(first, want[0]) and np.array_equal(inverse, want[1])

    def test_tie_across_groups_takes_the_exact_merge(self, monkeypatch, exact_merges):
        # Equal keys in different groups; with the group's multiplier
        # zeroed they share a fingerprint.
        rows = np.broadcast_to(np.array([[0.2, 0.8], [0.6, 0.4]]), (6, 2, 2)).copy()
        groups = np.array([0, 1, 0, 2, 1, 0])
        monkeypatch.setattr(policy_module, "fingerprint_multipliers", column_0_multipliers)
        first, inverse = group_merge(with_groups(rows, groups))
        assert exact_merges
        assert first.tolist() == [0, 1, 3] and inverse.tolist() == [0, 1, 0, 2, 1, 0]
