import numpy as np
import pytest

from restless_sched import GeneratorParams, ModelInstance


@pytest.fixture
def two_state_instance() -> ModelInstance:
    """Hand-checked 2-state, 2-observation, 2-project instance.

    Ascending rows, strongly informative observations; verifies under
    the ascending regime with threshold K=2 at beta=0.5.
    """
    A = np.array([[0.9, 0.1], [0.2, 0.8]])
    B = np.array([[0.99, 0.01], [0.01, 0.99]])
    R = np.array([0.0, 1.0])
    x0 = [np.array([0.6, 0.4]), np.array([0.3, 0.7])]
    return ModelInstance(2, 2, 2, A, B, R, 0.5, x0)


@pytest.fixture
def absorbing_instance() -> ModelInstance:
    """State 1 is absorbing and never emits observation 2, so working a
    project whose belief sits on state 1 has a zero-likelihood branch."""
    A = np.array([[1.0, 0.0], [0.4, 0.6]])
    B = np.array([[1.0, 0.0], [0.3, 0.7]])
    x0 = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
    return ModelInstance(2, 2, 2, A, B, np.array([0.0, 1.0]), 0.9, x0)


@pytest.fixture
def small_params() -> GeneratorParams:
    return GeneratorParams()


def recursive_avf(inst: ModelInstance, beliefs, t: int, T: int, u: int) -> float:
    """W^u_t by direct recursion over observation histories, with no
    memo and no merging: work u (0-based) at slot t, then at every later
    slot the project of largest immediate reward, ties within 1e-12 to
    the lowest index."""
    A, B, R = inst.A.rows, inst.B.rows, inst.R.values
    value = float(R @ beliefs[u])
    if t == T:
        return value
    propagated = [A.T @ x for x in beliefs]
    acc = 0.0
    for m in range(inst.n_obs):
        joint = B[:, m] * propagated[u]
        d = joint.sum()
        if d <= 0.0:
            continue
        stepped = list(propagated)
        stepped[u] = joint / d
        rewards = [float(R @ x) for x in stepped]
        nxt = next(i for i, r in enumerate(rewards) if r >= max(rewards) - 1e-12)
        acc += d * recursive_avf(inst, stepped, t + 1, T, nxt)
    return value + inst.beta * acc


def recursive_avf_frozen(inst: ModelInstance, beliefs, reference, t: int, T: int, u: int) -> float:
    """W^u_t with continuation decisions frozen to ``reference``, by
    direct recursion with no memo: work u (0-based) at slot t; after each
    observation, step the beliefs and the reference alike and work the
    project of largest immediate reward under the stepped reference,
    ties within 1e-12 to the lowest index.  Where the reference makes
    the observation impossible, the stepped beliefs are their own
    reference."""
    A, B, R = inst.A.rows, inst.B.rows, inst.R.values

    def step(profile, m):
        propagated = [A.T @ x for x in profile]
        joint = B[:, m] * propagated[u]
        d = joint.sum()
        if d <= 0.0:
            return d, None
        propagated[u] = joint / d
        return d, propagated

    value = float(R @ beliefs[u])
    if t == T:
        return value
    acc = 0.0
    for m in range(inst.n_obs):
        d, stepped = step(beliefs, m)
        if stepped is None:
            continue
        _, ref = step(reference, m)
        if ref is None:
            ref = stepped
        rewards = [float(R @ x) for x in ref]
        nxt = next(i for i, r in enumerate(rewards) if r >= max(rewards) - 1e-12)
        acc += d * recursive_avf_frozen(inst, stepped, ref, t + 1, T, nxt)
    return value + inst.beta * acc


def random_simplex(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.dirichlet(np.ones(dim))


def random_stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    M = rng.uniform(0.05, 1.0, (rows, cols))
    return M / M.sum(axis=1, keepdims=True)
