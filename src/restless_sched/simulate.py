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
``IndexError``, a horizon or trajectory count that is not an integer
``TypeError``, and a negative horizon ``ValueError``.

A call allocates one workspace (``_Workspace``), sized to its first
block, and every block and slot works in views of it through ``out=``
arguments, so no slot maps fresh memory for its per-trajectory arrays.
It holds the hidden states (current and next), each trajectory's
history row, action, worked project, gathered index and observation,
and one set of draw buffers (uniforms, gathered cdf thresholds,
comparison mask and count) that the initial-state, state and
observation draws share.  The totals of every block go into views of
one array of length n_traj.  Only arrays the size of the history table
are still allocated per slot.

RNG contract: a call draws from one ``np.random.default_rng(seed)``;
its blocks of up to ``_BLOCK`` trajectories take turns, and each draws
first every initial state, then per slot every project's next state
and the active project's observation, each by inverting a cumulative
distribution (last entry pinned to 1) against one uniform.  Results are
therefore deterministic in (instance, policy, T, n_traj, seed), and
``estimate_value`` gives the same mean and standard error with or
without ``return_totals``.  The workspace decides only where results
are written, not which uniforms are drawn, in what order, or how they
are compared.
"""

from __future__ import annotations

import numpy as np

# ``step_profile`` is unused here; the per-layer tracer in perfbench
# wraps ``simulate.step_profile`` by name.
from .filtering import step_profile  # noqa: F401
from .policy import PolicyRule, check_decisions, row_sum
from .types import ModelInstance, check_integer

_SEED_MASK = (1 << 64) - 1
#: Trajectories simulated together: bounds the engine's working memory
#: whatever n_traj is.
_BLOCK = 1 << 16


def _cdf(pmf: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, scaled so the last entry is
    exactly 1.

    Validated rows may sum to 1 only within 1e-9; unpinned, a uniform
    above the last entry would fall off the end of the distribution.
    """
    cdf = np.cumsum(pmf, axis=-1)
    return cdf / cdf[..., -1:]


def _inverse_cdf(
    cdf: np.ndarray,
    row,
    u: np.ndarray,
    *,
    out: np.ndarray,
    threshold: np.ndarray,
    mask: np.ndarray,
    count: np.ndarray,
) -> np.ndarray:
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

    The keyword arguments are the caller's buffers, so that drawing
    every slot allocates nothing: ``threshold`` (float, ``row``'s shape)
    for the gathered column, ``mask`` (bool) and ``count`` (an unsigned
    type that holds the count), both ``u``'s shape, and ``out`` (any
    integer array of ``u``'s shape), which receives and returns the
    draws.  ``row`` must be in range: the gather wraps instead of
    checking, because a checked ``take`` copies its ``out`` first.
    """
    count.fill(0)
    for k in range(cdf.shape[-1] - 1):
        below = np.less_equal(cdf[:, k].take(row, out=threshold, mode="wrap"), u, out=mask)
        np.add(count, below, out=count)
    np.copyto(out, count)
    return out


class _Workspace:
    """The lockstep engine's per-trajectory buffers for blocks of up to
    ``size`` trajectories, allocated once per call and reused by every
    block and slot through views.

    The draw buffers (uniforms, gathered thresholds, mask and count) are
    flat arrays of ``size * N`` entries shared by the initial-state
    draw (viewed as (N, n)), the state draw (flat, in (n, N) order) and
    the observation draw (the first n entries); the threshold buffer
    also carries each slot's rewards.
    ``states`` holds the current and the next hidden states, which swap
    roles each slot.  ``traj`` has one column per trajectory and five
    rows: its history row, action, worked project's flat index, a
    gathered index (a state, then the history key) and observation.
    ``base`` is the constant flat offset of each trajectory's states.
    """

    def __init__(self, inst: ModelInstance, size: int):
        N = inst.n_projects
        flat = size * N
        self.uniform = np.empty(flat)
        self.threshold = np.empty(flat)
        self.mask = np.empty(flat, dtype=bool)
        self.count = np.empty(flat, dtype=np.min_scalar_type(max(inst.n_states, inst.n_obs) - 1))
        self.states = np.empty((2, flat), dtype=np.intp)
        self.traj = np.empty((5, size), dtype=np.intp)
        self.base = np.arange(size) * N


def _check_horizon(T: int) -> None:
    check_integer("T", T)
    if T < 0:
        raise ValueError(f"horizon T must be >= 0, got {T}")


def _lockstep(
    inst: ModelInstance,
    policy: PolicyRule,
    T: int,
    rng: np.random.Generator,
    work: _Workspace,
    totals: np.ndarray,
) -> None:
    """The engine: writes into ``totals`` the discounted total reward of
    each of its len(totals) trajectories over slots 0..T (T >= 0),
    simulated in lockstep in views of ``work``, whose size must be at
    least that.  Nothing is kept across slots but the history table,
    each trajectory's node in it, the states and the totals.

    Every gather into the workspace uses ``take(out=, mode="wrap")``, the
    fastest mode that writes straight into ``out``; its indices are in
    range by construction (``check_decisions`` checks the policy's).  An
    index out of range would not raise but wrap, one period at a time.
    """
    N, X, Y = inst.n_projects, inst.n_states, inst.n_obs
    A = inst.A.rows
    B_T = inst.B.rows.T.copy()  # row m: each state's likelihood of observation m
    R = inst.R.values
    row_item = np.dtype((np.void, X * A.itemsize))
    n = len(totals)
    # States and the state draw's buffers are flat (n * N,) views, read
    # as (n, N) in C order; the observation draw uses their first n
    # entries.
    current, nxt = work.states[:, : n * N]
    uniform, threshold, mask, count = (
        b[: n * N] for b in (work.uniform, work.threshold, work.mask, work.count)
    )
    uniform_n, threshold_n, mask_n, count_n = (b[:n] for b in (uniform, threshold, mask, count))
    node, action, active, gather, obs = work.traj[:, :n]
    base = work.base[:n]

    # ``table`` holds one belief profile per distinct observation history
    # and ``node`` each trajectory's row in it; at slot 0 every
    # trajectory shares the empty history.
    x0 = np.array([x.probs for x in inst.initial_beliefs])  # (N, X)
    table = x0[None].copy()
    node.fill(0)
    a_cdf = _cdf(A)
    b_cdf = _cdf(inst.B.rows)
    # Project j's initial states invert row j of the (N, n) uniforms.
    _inverse_cdf(
        _cdf(x0), np.arange(N)[:, None], rng.random(out=uniform.reshape(N, n)),
        out=current.reshape(n, N).T, threshold=threshold[:N].reshape(N, 1),
        mask=mask.reshape(N, n), count=count.reshape(N, n),
    )

    totals.fill(0.0)
    scale = 1.0
    for t in range(T + 1):
        # ``take`` writes into an intp ``out`` only from an intp source.
        acts = check_decisions(policy, policy.decide(t, table), table).astype(np.intp, copy=False)
        u = acts.take(node, out=action, mode="wrap")
        np.add(base, u, out=active)  # flat index of each trajectory's worked project
        state = current.take(active, out=gather, mode="wrap")
        # The rewards pass through the threshold buffer, free until the draws.
        np.add(totals, (scale * R).take(state, out=threshold_n, mode="wrap"), out=totals)
        scale *= inst.beta

        # Transition every chain, then the active one emits.
        _inverse_cdf(
            a_cdf, current, rng.random(out=uniform), out=nxt,
            threshold=threshold, mask=mask, count=count,
        )
        _inverse_cdf(
            b_cdf, nxt.take(active, out=gather, mode="wrap"), rng.random(out=uniform_n), out=obs,
            threshold=threshold_n, mask=mask_n, count=count_n,
        )
        if t < T:
            # The (node, observation) pairs that occurred are the next
            # slot's histories, numbered in the order of their keys; a
            # scatter numbers them faster than a cumsum of ``seen``.
            key = np.add(np.multiply(node, Y, out=gather), obs, out=gather)
            seen = np.zeros(len(table) * Y, dtype=bool)
            seen[key] = True
            pairs = seen.nonzero()[0]
            rank = np.empty(len(seen), dtype=np.intp)
            rank[pairs] = np.arange(len(pairs))
            rank.take(key, out=node, mode="wrap")
            parent = pairs // Y
            seen_obs = pairs - parent * Y
            # Propagate each child's parent profile (each row x -> A' x),
            # then filter its worked project on the observation.
            child = np.matmul(table.take(parent, axis=0).reshape(-1, X), A)
            worked = np.arange(len(parent)) * N + acts.take(parent)
            num = child.take(worked, axis=0) * B_T.take(seen_obs, axis=0)
            total = row_sum(num)
            # Each worked row is written as one X-float item: numpy
            # assigns the rows of a float array element by element.
            np.put(child.view(row_item), worked, (num / total[:, None]).view(row_item))
            table = child.reshape(-1, N, X)
        current, nxt = nxt, current


def _estimate_batched(
    inst: ModelInstance, policy: PolicyRule, T: int, n_traj: int, seed: int
) -> np.ndarray:
    """Discounted total reward of each of n_traj trajectories, simulated
    in consecutive lockstep blocks that draw from one generator and share
    one workspace."""
    _check_horizon(T)
    # As a Python int: a numpy one cannot hold the mask.
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    totals = np.empty(n_traj)
    work = _Workspace(inst, min(_BLOCK, n_traj))
    for start in range(0, n_traj, _BLOCK):
        _lockstep(inst, policy, T, rng, work, totals[start : start + _BLOCK])
    return totals


def estimate_value(
    inst: ModelInstance,
    policy: PolicyRule,
    T: int,
    n_traj: int,
    seed: int,
    return_totals: bool = False,
):
    """Sample mean and standard error of the discounted total reward,
    and with ``return_totals`` also the per-trajectory totals.  A seed
    must be an integer; a negative one is taken modulo 2**64."""
    check_integer("n_traj", n_traj)
    if n_traj < 2:
        raise ValueError(f"n_traj must be >= 2, got {n_traj}")
    check_integer("seed", seed)
    totals = _estimate_batched(inst, policy, T, n_traj, seed)
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / np.sqrt(n_traj))
    if return_totals:
        return mean, stderr, totals
    return mean, stderr
