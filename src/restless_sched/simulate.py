"""Monte Carlo sampling of the hidden process under a policy.

The simulator draws true hidden states, feeds the policy only the
filtered belief profile, and accumulates discounted rewards of the
scheduled projects.

One engine simulates a block of trajectories in lockstep, slot by
slot, through the policy's batch decision.  It holds the beliefs of a
block as one contiguous (n_traj*N, X) buffer, one row per (trajectory,
project); the policy sees it reshaped to (n_traj, N, X).  Each slot
propagates every row with one matrix product, and the flat index
``trajectory*N + action`` of the worked projects serves the reward, the
observation draw and the filter as single-index gathers; the engine's
own steps reduce over no short last axis.  A decision outside 0..N-1
raises ``IndexError``, a negative horizon ``ValueError``.

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
    which beats an argmax over gathered whole rows.
    """
    out = np.zeros(u.shape, dtype=np.int64)
    for k in range(cdf.shape[-1] - 1):
        out += np.take(cdf[:, k], row) <= u
    return out


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
    across slots but the current beliefs, states and totals.
    """
    if T < 0:
        raise ValueError(f"horizon T must be >= 0, got {T}")
    N, X = inst.n_projects, inst.n_states
    A = inst.A.rows
    B_T = inst.B.rows.T.copy()  # row m: each state's likelihood of observation m
    R = inst.R.values
    base = np.arange(n_traj) * N

    # ``flat`` owns the beliefs, one row per (trajectory, project); the
    # profiles the policy sees are a reshape of it, which for a
    # C-contiguous owner is always a view, so writing ``flat`` updates
    # them.  ``spare`` receives the next propagation.
    x0 = np.stack([x.probs for x in inst.initial_beliefs])  # (N, X)
    flat = np.tile(x0, (n_traj, 1))
    spare = np.empty_like(flat)
    a_cdf = _cdf(A)
    b_cdf = _cdf(inst.B.rows)
    current = _inverse_cdf(_cdf(x0), np.arange(N), rng.random((N, n_traj)).T)  # (n_traj, N)

    totals = np.zeros(n_traj)
    scale = 1.0
    for t in range(T + 1):
        u = check_decisions(policy, policy.decide(t, flat.reshape(n_traj, N, X)), N)
        active = base + u  # flat index of each trajectory's worked project
        totals += scale * R[np.take(current, active)]
        scale *= inst.beta

        # Transition every chain, then the active one emits.
        nxt = _inverse_cdf(a_cdf, current, rng.random((n_traj, N)))
        obs = _inverse_cdf(b_cdf, np.take(nxt, active), rng.random(n_traj))
        if record is not None:
            record(current, u, obs)

        if t < T:
            np.matmul(flat, A, out=spare)  # propagate: each row x -> A' x
            flat, spare = spare, flat
            num = np.take(flat, active, axis=0) * np.take(B_T, obs, axis=0)
            # Summed column by column: the order numpy sums a short row in.
            total = num[:, 0].copy()
            for k in range(1, X):
                total += num[:, k]
            flat[active] = num / total[:, None]
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
