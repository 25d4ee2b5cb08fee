"""Metamorphic relations of the certificate: transformations of an
instance whose effect on V*, V^myo and the gap is known in closed form.

Each relation is checked on the deep base instance of the benchmark
(N = X = Y = 3, beta = 0.5) at T=6 and T=7 (823,543 leaves) and on
three gap witnesses, where myopic play is not optimal, at T=3.  None of
the value relations is exact in floating point (each reorders or
rescales sums), so values must agree within 1e-12 relative.  A permutation of the projects maps
the tree's nodes one to one, so its node counts must be equal.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import dirichlet_instance

from restless_sched import ModelInstance, certify_myopic

DEEP = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "simulate.json"
RTOL = 1e-12


def _deep() -> ModelInstance:
    return ModelInstance.from_json_dict(json.loads(DEEP.read_text())["instance"])


CASES = {
    "deep T=6": (_deep, 6),
    "deep T=7": (_deep, 7),
    **{f"witness {s} T=3": ((lambda s=s: dirichlet_instance(s, 3, 3, 3)), 3) for s in (3, 10, 29)},
}


@pytest.fixture(params=list(CASES), scope="module")
def case(request):
    make, T = CASES[request.param]
    inst = make()
    return inst, T, certify_myopic(inst, T)


def _with(inst: ModelInstance, **changes) -> ModelInstance:
    fields = dict(
        n_projects=inst.n_projects, n_states=inst.n_states, n_obs=inst.n_obs,
        A=inst.A.rows, B=inst.B.rows, R=inst.R.values, beta=inst.beta,
        initial_beliefs=[x.probs for x in inst.initial_beliefs],
    )
    fields.update(changes)
    return ModelInstance(**fields)


def _close(got: float, want: float, scale: float) -> None:
    """``got`` equals ``want`` within ``RTOL`` of ``scale``."""
    assert abs(got - want) <= RTOL * abs(scale), (got, want)


@pytest.mark.parametrize("perm", [[1, 0, 2], [2, 1, 0]])
def test_permuting_projects(case, perm):
    # Project n of the permuted instance starts where project perm[n] did.
    inst, T, rep = case
    x0 = [inst.initial_beliefs[k].probs for k in perm]
    got = certify_myopic(_with(inst, initial_beliefs=x0), T)
    _close(got.optimal_value, rep.optimal_value, rep.optimal_value)
    _close(got.myopic_value, rep.myopic_value, rep.myopic_value)
    assert got.per_depth_node_counts == rep.per_depth_node_counts
    assert perm[got.best_action - 1] == rep.best_action - 1


def test_affine_rewards(case):
    # Every path collects one reward per slot, so V gains the constant's
    # discounted sum over T + 1 slots; the gap only scales.
    inst, T, rep = case
    a, b = 2.5, 0.7
    got = certify_myopic(_with(inst, R=a * inst.R.values + b), T)
    shift = b * (1 - inst.beta ** (T + 1)) / (1 - inst.beta)
    want = a * rep.optimal_value + shift
    _close(got.optimal_value, want, want)
    _close(got.myopic_value, a * rep.myopic_value + shift, want)
    _close(got.gap, a * rep.gap, want)


def test_split_observation(case):
    # Two observations whose columns are 0.3 and 0.7 of the first carry
    # the same information as it: each filters to the same belief.
    inst, T, rep = case
    B = inst.B.rows
    split = np.column_stack([0.3 * B[:, 0], 0.7 * B[:, 0], B[:, 1:]])
    got = certify_myopic(_with(inst, n_obs=inst.n_obs + 1, B=split), T)
    _close(got.optimal_value, rep.optimal_value, rep.optimal_value)
    _close(got.myopic_value, rep.myopic_value, rep.optimal_value)


def test_no_discount(case):
    # With beta = 0 only slot 0 counts: the largest immediate reward.
    inst, T, _ = case
    got = certify_myopic(_with(inst, beta=0.0), T)
    best = max(float(inst.R.values @ x.probs) for x in inst.initial_beliefs)
    _close(got.optimal_value, best, best)
    assert got.gap == 0.0
