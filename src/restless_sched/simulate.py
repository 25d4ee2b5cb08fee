"""Monte Carlo sampling of the hidden process under a policy.

The simulator draws true hidden states, feeds the policy only the
filtered belief profile, and accumulates discounted rewards of the
scheduled projects.

One engine simulates a block of trajectories in lockstep, slot by
slot, through the policy's batch decision.  Under any policy a
trajectory's belief profile at slot t is a function of its t
observations so far, so a block holds its beliefs as a table of
distinct observation histories, at most min(n_traj, Y^t) profiles of
shape (N, X) at slot t, and each trajectory holds one row index
(``node``) into it.  Each slot the policy decides once per table row
and each trajectory takes its row's action.  After the observation
draw the (node, observation) pairs that occurred, found through a
presence array of length n_nodes*Y without sorting, become the next
table: each child's parent profile is propagated by one matrix product
and its worked project is filtered on the observation, not through
``filtering.filter_rows`` (its docstring says why).  Each profile
goes through the same row-wise arithmetic as when every trajectory
kept a copy of its own, so totals do not depend on how many
trajectories share a history.  What stays per trajectory is the hidden
states, the random draws, the rewards and the row index.  A decision
of the wrong shape raises ``ValueError``, one outside 0..N-1
``IndexError``, and a negative horizon ``ValueError``.

RNG contract: a call draws from one ``np.random.default_rng(seed)``;
its blocks of up to ``_BLOCK`` trajectories take turns, and each draws
first every initial state, then per slot every project's next state
and the active project's observation, each by inverting a cumulative
distribution (last entry pinned to 1) against one uniform.  Results are
therefore deterministic in (instance, policy, T, n_traj, seed):
``estimate_value`` gives the same mean and standard error with or
without ``return_totals``, and ``sample_trajectory`` is the engine with
one trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``step_profile`` is unused here; the per-layer tracer in perfbench
# wraps ``simulate.step_profile`` by name.
from .filtering import step_profile  # noqa: F401
from .policy import PolicyRule, check_decisions
from .types import ModelInstance

_SEED_MASK = (1 << 64) - 1
#: Trajectories simulated together: bounds the engine's working memory
#: whatever n_traj is.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class Trajectory:
    """One rollout; all state/observation/action labels are 1-based."""

    states: np.ndarray  # (N, T+1) hidden states
    actions: np.ndarray  # (T+1,)
    observations: np.ndarray  # (T+1,) emitted by the active project
    rewards: np.ndarray  # (T+1,)
    discounted_total: float


def _cdf(pmf: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, scaled so the last entry is
    exactly 1.

    Validated rows may sum to 1 only within 1e-9; unpinned, a uniform
    above the last entry would fall off the end of the distribution.
    """
    cdf = np.cumsum(pmf, axis=-1)
    return cdf / cdf[..., -1:]


def _inverse_cdf(cdf: np.ndarray, row, u: np.ndarray) -> np.ndarray:
    """Categorical draws by inversion: for each uniform in ``u`` (in
    [0, 1)), the 0-based index of the first entry above it in the cdf
    row ``cdf[row]``; ``row`` broadcasts against ``u``.

    Rows are nondecreasing and end in 1, so that index is the count of
    the other entries at or below the uniform.  Counting column by
    column gathers one entry per draw at a time from a single column,
    which beats an argmax over gathered whole rows.  The count is kept
    in the narrowest unsigned type that holds it: numpy adds a bool to
    an ``int64`` through a slow casting loop, to a ``uint8`` through a
    fast one.
    """
    count = np.zeros(u.shape, dtype=np.min_scalar_type(cdf.shape[-1] - 1))
    for k in range(cdf.shape[-1] - 1):
        count += cdf[:, k].take(row) <= u
    return count.astype(np.intp)


def _lockstep(
    inst: ModelInstance,
    policy: PolicyRule,
    T: int,
    n_traj: int,
    rng: np.random.Generator,
    record=None,
) -> np.ndarray:
    """The engine: discounted total reward of each of n_traj trajectories
    over slots 0..T, simulated in lockstep.

    ``record``, when given, is called once per slot with the hidden
    states (n_traj, N), the actions (n_traj,) and the active projects'
    observations (n_traj,), all 0-based.  Otherwise nothing is kept
    across slots but the history table, each trajectory's node in it,
    the states and the totals.
    """
    if T < 0:
        raise ValueError(f"horizon T must be >= 0, got {T}")
    N, X, Y = inst.n_projects, inst.n_states, inst.n_obs
    A = inst.A.rows
    B_T = inst.B.rows.T.copy()  # row m: each state's likelihood of observation m
    R = inst.R.values
    base = np.arange(n_traj) * N
    row_item = np.dtype((np.void, X * A.itemsize))

    # ``table`` holds one belief profile per distinct observation history
    # and ``node`` each trajectory's row in it; at slot 0 every
    # trajectory shares the empty history.
    x0 = np.stack([x.probs for x in inst.initial_beliefs])  # (N, X)
    table = x0[None].copy()
    node = np.zeros(n_traj, dtype=np.int64)
    a_cdf = _cdf(A)
    b_cdf = _cdf(inst.B.rows)
    current = _inverse_cdf(_cdf(x0), np.arange(N), rng.random((N, n_traj)).T)  # (n_traj, N)

    totals = np.zeros(n_traj)
    scale = 1.0
    for t in range(T + 1):
        acts = check_decisions(policy, policy.decide(t, table), table)
        u = acts.take(node)
        active = base + u  # flat index of each trajectory's worked project
        totals += (scale * R).take(current.take(active))
        scale *= inst.beta

        # Transition every chain, then the active one emits.
        nxt = _inverse_cdf(a_cdf, current, rng.random((n_traj, N)))
        obs = _inverse_cdf(b_cdf, nxt.take(active), rng.random(n_traj))
        if record is not None:
            record(current, u, obs)

        if t < T:
            # The (node, observation) pairs that occurred are the next
            # slot's histories, numbered in the order of their keys; a
            # scatter numbers them faster than a cumsum of ``seen``.
            key = node * Y + obs
            seen = np.zeros(len(table) * Y, dtype=bool)
            seen[key] = True
            pairs = seen.nonzero()[0]
            rank = np.empty(len(seen), dtype=np.int64)
            rank[pairs] = np.arange(len(pairs))
            node = rank.take(key)
            parent = pairs // Y
            seen_obs = pairs - parent * Y
            # Propagate each child's parent profile (each row x -> A' x),
            # then filter its worked project on the observation.
            child = np.matmul(table.take(parent, axis=0).reshape(-1, X), A)
            worked = np.arange(len(parent)) * N + acts.take(parent)
            num = child.take(worked, axis=0) * B_T.take(seen_obs, axis=0)
            # Summed column by column: the order numpy sums a short row in.
            total = num[:, 0].copy()
            for k in range(1, X):
                total += num[:, k]
            # Each worked row is written as one X-float item: numpy
            # assigns the rows of a float array element by element.
            np.put(child.view(row_item), worked, (num / total[:, None]).view(row_item))
            table = child.reshape(-1, N, X)
        current = nxt
    return totals


def sample_trajectory(
    inst: ModelInstance, policy: PolicyRule, T: int, seed: int
) -> Trajectory:
    """Roll the hidden chains forward for slots 0..T under the policy.

    At each slot the policy sees the current belief profile and picks a
    project; that project earns R(s), transitions, and emits an
    observation which updates its belief.  Passive projects transition
    silently and their beliefs are propagated.  This is the lockstep
    engine with one trajectory.
    """
    slots = []
    rng = np.random.default_rng(seed & _SEED_MASK)
    totals = _lockstep(inst, policy, T, 1, rng, record=lambda *arrays: slots.append(arrays))
    states = np.stack([s[0] for s, _, _ in slots], axis=1)
    actions = np.array([u[0] for _, u, _ in slots])
    observations = np.array([m[0] for _, _, m in slots])
    rewards = inst.R.values[states[actions, np.arange(T + 1)]]
    return Trajectory(states + 1, actions + 1, observations + 1, rewards, float(totals[0]))


def _estimate_batched(
    inst: ModelInstance, policy: PolicyRule, T: int, n_traj: int, seed: int
) -> np.ndarray:
    """Discounted total reward of each of n_traj trajectories, simulated
    in consecutive lockstep blocks that draw from one generator."""
    rng = np.random.default_rng(seed & _SEED_MASK)
    return np.concatenate([
        _lockstep(inst, policy, T, min(_BLOCK, n_traj - start), rng)
        for start in range(0, n_traj, _BLOCK)
    ])


def estimate_value(
    inst: ModelInstance,
    policy: PolicyRule,
    T: int,
    n_traj: int,
    seed: int,
    return_totals: bool = False,
):
    """Sample mean and standard error of the discounted total reward,
    and with ``return_totals`` also the per-trajectory totals."""
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2, got {n_traj}")
    totals = _estimate_batched(inst, policy, T, n_traj, seed)
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(n_traj))
    if return_totals:
        return mean, stderr, totals
    return mean, stderr
