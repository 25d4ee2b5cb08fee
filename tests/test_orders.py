import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fosd_ge, mlr_ge
from restless_sched import (
    BeliefVector,
    IncomparablePairError,
    ObservationMatrix,
    TransitionMatrix,
    sort_by_mlr,
)
from restless_sched.orders import _mlr_witness, chain_break, column_break

simplex3 = st.lists(
    st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3
).map(lambda v: np.array(v) / sum(v))


def tilt_up(x: np.ndarray, s: float) -> np.ndarray:
    """Multiply by an increasing positive function: MLR-raises x."""
    y = x * np.exp(s * np.arange(x.size))
    return y / y.sum()


class TestMlrCompare:
    def test_basic_ge(self):
        x1, x2 = BeliefVector([0.2, 0.8]), BeliefVector([0.5, 0.5])
        assert mlr_ge(x1, x2)
        assert not mlr_ge(x2, x1)

    def test_equal(self):
        x = BeliefVector([0.4, 0.6])
        assert mlr_ge(x, x)

    def test_incomparable_with_witness(self):
        # Ratios 1.6, 0.4, 1.6: not monotone either way.
        x1 = np.array([0.4, 0.2, 0.4])
        x2 = np.array([0.25, 0.5, 0.25])
        assert _mlr_witness(x1, x2) == (2, 1)
        assert _mlr_witness(x2, x1) == (3, 2)

    def test_zero_entries_no_division(self):
        x1, x2 = BeliefVector([0.0, 1.0]), BeliefVector([1.0, 0.0])
        assert mlr_ge(x1, x2)
        assert not mlr_ge(x2, x1)

    def test_two_state_always_comparable(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = BeliefVector(rng.dirichlet([1, 1])), BeliefVector(rng.dirichlet([1, 1]))
            assert mlr_ge(a, b) or mlr_ge(b, a)

    @given(simplex3, st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=200, deadline=None)
    def test_tilted_always_ge(self, x, s):
        assert mlr_ge(BeliefVector(tilt_up(x, s)), BeliefVector(x))


class TestFosdCompare:
    def test_tail_dominance(self):
        assert fosd_ge(BeliefVector([0.1, 0.9]), BeliefVector([0.3, 0.7]))

    @given(simplex3, simplex3)
    @settings(max_examples=200, deadline=None)
    def test_mlr_implies_fosd(self, a, b):
        a, b = BeliefVector(a), BeliefVector(b)
        if mlr_ge(a, b):
            assert fosd_ge(a, b)
        if mlr_ge(b, a):
            assert fosd_ge(b, a)

    def test_fosd_not_mlr(self):
        # FOSD-ordered but MLR-incomparable (ratios 0.5, 1.1, 1.0).
        a = BeliefVector([0.1, 0.5, 0.4])
        b = BeliefVector([0.05, 0.55, 0.4])
        assert fosd_ge(b, a)
        assert not mlr_ge(b, a) and not mlr_ge(a, b)


class TestMatrixOrders:
    def test_ascending_rows(self):
        A = TransitionMatrix([[0.9, 0.1], [0.2, 0.8]])
        assert chain_break(A.rows) is None
        assert chain_break(A.rows, descending=True) == 0

    def test_descending_rows(self):
        A = TransitionMatrix([[0.2, 0.8], [0.9, 0.1]])
        assert chain_break(A.rows, descending=True) is None

    def test_witness_names_adjacent_pair(self):
        A = TransitionMatrix(
            [[0.7, 0.2, 0.1], [0.2, 0.3, 0.5], [0.5, 0.3, 0.2]]
        )
        # The 0-based link 1: rows (2, 3).
        assert chain_break(A.rows) == 1

    def test_obs_columns_ordered(self):
        B = ObservationMatrix([[0.9, 0.1], [0.2, 0.8]])
        assert column_break(B) is None

    def test_obs_columns_unordered(self):
        B = ObservationMatrix([[0.1, 0.9], [0.8, 0.2]])
        assert column_break(B) == (2, 1)

    def test_flat_columns_trivially_ordered(self):
        B = ObservationMatrix([[0.4, 0.6], [0.4, 0.6]])
        assert column_break(B) is None


class TestSortByMlr:
    def test_descending_permutation(self):
        xs = [BeliefVector([0.5, 0.5]), BeliefVector([0.1, 0.9]), BeliefVector([0.8, 0.2])]
        assert sort_by_mlr(xs) == (2, 1, 3)

    def test_stable_on_equal(self):
        xs = [BeliefVector([0.5, 0.5]), BeliefVector([0.5, 0.5])]
        assert sort_by_mlr(xs) == (1, 2)

    def test_incomparable_raises_with_indices(self):
        xs = [BeliefVector([0.4, 0.2, 0.4]), BeliefVector([0.25, 0.5, 0.25])]
        with pytest.raises(IncomparablePairError) as ei:
            sort_by_mlr(xs)
        assert {ei.value.first, ei.value.second} == {1, 2}

    @given(st.lists(simplex3, min_size=2, max_size=5), st.floats(0.1, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_tilt_chain_sorts_correctly(self, seeds, s):
        # A chain built by repeated up-tilts of one base is totally ordered.
        base = seeds[0]
        chain = [base]
        for _ in range(len(seeds) - 1):
            chain.append(tilt_up(chain[-1], s))
        xs = [BeliefVector(c) for c in chain]
        order = sort_by_mlr(xs)
        assert list(order) == sorted(range(1, len(xs) + 1), reverse=True)
