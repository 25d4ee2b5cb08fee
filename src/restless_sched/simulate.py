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
trajectories share a history.  What stays per trajectory is one
hidden-state code per project, the random draws, the rewards and the
row index.  A decision of the wrong shape raises ``ValueError``, one
outside 0..N-1 ``IndexError``, a horizon or trajectory count that is
not an integer ``TypeError``, and a negative horizon ``ValueError``.

A hidden state is drawn only when its project is worked, since only
the worked project's state reaches a reward or an observation.  A
passive chain evolves unobserved, so its state at slot t follows the
row its project's last revealed information gives, propagated by A
for the slots in between.  That information is the project's
*source*, one of N + X*Y:

- x0_j, project j's initial belief, revealed at slot 0;
- for each state s and observation m, the posterior of the next
  state, P(s' | s, m) proportional to A[s, s'] B[s', m], revealed at
  slot t + 1 after the project is worked in state s at slot t and
  emits m.

Each trajectory keeps, per project, one intp code
``source * (T + 1) - tau`` for a source revealed at slot tau, so that
at slot t the code plus t is the row (source, k = t - tau) of one cdf
table of every source propagated k = 0..T slots (``_sources``).  Per
slot the worked project's state is drawn from that row, its reward
added, its observation drawn from P(m | s) = sum_s' A[s, s'] B[s', m],
and its code set to the posterior source (s, m) at tau = t + 1.  The
joint law of rewards and observations is that of drawing every chain
every slot; the bits are not.  The posteriors and P(m | s) come from
one product, summed in order, so a zero-probability (s, m) is exactly
the one never drawn; its posterior row, never used, is A's row s.
The source table has (N + X*Y) * (T + 1) rows of X floats, 12 * 9 * 3
at the deep instance's N = X = Y = 3 and T = 8, and is built once per
call, in place and column-major, from one law propagated by
``filtering.row_dot``, so no BLAS enters the draws.

A call allocates one workspace (``_Workspace``), sized to its first
block, and every block and slot works in views of it through ``out=``
arguments, so no slot maps fresh memory for its per-trajectory arrays.
It holds the codes, each trajectory's history row, action, worked
project, draw (source row, then state, then code and history key) and
observation, and one set of draw buffers of n entries each
(thresholds, comparison mask and count) that the state and
observation draws share, beside 2n uniforms.  The totals of every
block go into views of one array of length n_traj.  Only arrays the
size of the history table are still allocated per slot.

RNG contract: a call draws from one ``np.random.default_rng(seed)``;
its blocks of up to ``_BLOCK`` trajectories take turns, and each draws
per slot n uniforms for the worked projects' states, then n for their
observations, each inverting a cumulative distribution (last entry
pinned to 1).  The last slot's observations are drawn from the stream
but not used.  Results are therefore deterministic in (instance,
policy, T, n_traj, seed), and ``estimate_value`` gives the same mean
and standard error with or without ``return_totals``.  The workspace
decides only where results are written, not which uniforms are
drawn, in what order, or how they are compared.
"""

from __future__ import annotations

import numpy as np

# ``step_profile`` is unused here; the per-layer tracer in perfbench
# wraps ``simulate.step_profile`` by name.
from .filtering import row_dot, row_sum, step_profile  # noqa: F401
from .policy import PolicyRule, check_decisions
from .types import ModelInstance, check_integer

_SEED_MASK = (1 << 64) - 1
#: Trajectories simulated together: bounds the engine's working memory
#: whatever n_traj is.
_BLOCK = 1 << 16


def _cdf(pmf: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cumulative sums along the last axis, scaled so the last entry is
    exactly 1, into ``out`` (of any layout) if given.

    Validated rows may sum to 1 only within 1e-9; unpinned, a uniform
    above the last entry would fall off the end of the distribution.
    """
    cdf = np.add.accumulate(pmf, axis=-1, out=out)
    return np.divide(cdf, cdf[..., -1:], out=cdf)


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
    draws; it may be ``row`` itself, which is read only before it.
    ``row`` must be in range: the gather wraps instead of checking,
    because a checked ``take`` copies its ``out`` first.
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

    ``uniform`` holds a slot's 2 * size uniforms, the states' then the
    observations'.  The other draw buffers (thresholds, mask and count)
    hold ``size`` entries, shared by the state and the observation
    draws; the threshold buffer also carries each slot's rewards.
    ``codes`` holds each trajectory's N source codes, flat in (n, N)
    order.  ``traj`` has one column per trajectory and five rows: its
    history row, action, worked project's flat index, draw (source
    row, state, then code and history key) and observation.  ``base``
    is the constant flat offset of each trajectory's codes.
    """

    def __init__(self, inst: ModelInstance, size: int):
        N = inst.n_projects
        self.uniform = np.empty(2 * size)
        self.threshold = np.empty(size)
        self.mask = np.empty(size, dtype=bool)
        self.count = np.empty(size, dtype=np.min_scalar_type(max(inst.n_states, inst.n_obs) - 1))
        self.codes = np.empty(size * N, dtype=np.intp)
        self.traj = np.empty((5, size), dtype=np.intp)
        self.base = np.arange(size) * N


def _check_horizon(T: int) -> None:
    check_integer("T", T)
    if T < 0:
        raise ValueError(f"horizon T must be >= 0, got {T}")


def _sources(inst: ModelInstance, T: int) -> tuple[np.ndarray, np.ndarray]:
    """The engine's two cdf tables, column-major so that each column
    ``_inverse_cdf`` gathers is contiguous (``take`` copies a strided
    source whole).  Row source * (T + 1) + k of the state table is the
    cdf of the source's law k = 0..T slots after it was revealed:
    sources 0..N-1 are the initial beliefs, N + s*Y + m the posterior
    P(s' | s, m).  One law is propagated by ``row_dot`` with A, each
    depth's cdf written into rows k :: T + 1.  The observation table
    (X, Y) is the cdf of P(m | s).

    Both laws come from the one product A[s, s'] B[s', m]: P(m | s) is
    its in-order sum over s', zero exactly when every term is, and the
    posteriors are its terms over that sum.  A zero-probability
    (s, m)'s posterior, never drawn, is A's row s."""
    N, X, Y = inst.n_projects, inst.n_states, inst.n_obs
    A = inst.A.rows
    joint = (A[:, :, None] * inst.B.rows).transpose(0, 2, 1)  # (s, m, s')
    obs = row_sum(joint)
    live = obs > 0.0
    post = np.where(live[..., None], joint / np.where(live, obs, 1.0)[..., None], A[:, None])
    law = np.concatenate([[x.probs for x in inst.initial_beliefs], post.reshape(X * Y, X)])
    state_cdf = np.empty(((N + X * Y) * (T + 1), X), order="F")
    for k in range(T + 1):
        if k:
            law = row_dot(law, A)
        _cdf(law, out=state_cdf[k :: T + 1])
    return state_cdf, _cdf(obs, out=np.empty((X, Y), order="F"))


def _lockstep(
    inst: ModelInstance,
    policy: PolicyRule,
    T: int,
    cdfs: tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
    work: _Workspace,
    totals: np.ndarray,
) -> None:
    """The engine: writes into ``totals`` the discounted total reward of
    each of its len(totals) trajectories over slots 0..T (T >= 0),
    simulated in lockstep in views of ``work``, whose size must be at
    least that.  ``cdfs`` are ``_sources``' two tables.
    Nothing is kept across slots but the history table, each
    trajectory's node in it, the codes and the totals.

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
    state_cdf, obs_cdf = cdfs
    n = len(totals)
    uniform = work.uniform[: 2 * n].reshape(2, n)
    threshold, mask, count = (b[:n] for b in (work.threshold, work.mask, work.count))
    codes = work.codes[: n * N]
    node, action, active, draw, obs = work.traj[:, :n]
    base = work.base[:n]

    # ``table`` holds one belief profile per distinct observation history
    # and ``node`` each trajectory's row in it; at slot 0 every
    # trajectory shares the empty history, and project j's source is
    # x0_j, revealed at slot 0.
    x0 = np.array([x.probs for x in inst.initial_beliefs])  # (N, X)
    table = x0[None].copy()
    node.fill(0)
    codes.reshape(n, N)[:] = np.arange(N) * (T + 1)

    totals.fill(0.0)
    scale = 1.0
    for t in range(T + 1):
        # ``take`` writes into an intp ``out`` only from an intp source.
        acts = check_decisions(policy, policy.decide(t, table), table).astype(np.intp, copy=False)
        u = acts.take(node, out=action, mode="wrap")
        np.add(base, u, out=active)  # flat index of each trajectory's worked project
        row = np.add(codes.take(active, out=draw, mode="wrap"), t, out=draw)
        rng.random(out=uniform)
        # The worked project's state, drawn from its source's row in
        # place of the row.  The rewards pass through the threshold
        # buffer, free until the next draw.
        state = _inverse_cdf(
            state_cdf, row, uniform[0], out=draw, threshold=threshold, mask=mask, count=count,
        )
        np.add(totals, (scale * R).take(state, out=threshold, mode="wrap"), out=totals)
        scale *= inst.beta
        if t < T:
            _inverse_cdf(
                obs_cdf, state, uniform[1], out=obs, threshold=threshold, mask=mask, count=count,
            )
            # Its source is now the posterior (state, obs), revealed at
            # t + 1: code (N + state*Y + obs) * (T + 1) - (t + 1).
            code = np.add(np.multiply(state, Y, out=draw), obs, out=draw)
            np.multiply(code, T + 1, out=code)
            np.add(code, N * (T + 1) - t - 1, out=code)
            codes.put(active, code, mode="wrap")

            # The (node, observation) pairs that occurred are the next
            # slot's histories, numbered in the order of their keys; a
            # scatter numbers them faster than a cumsum of ``seen``.
            key = np.add(np.multiply(node, Y, out=draw), obs, out=draw)
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


def _estimate_batched(
    inst: ModelInstance, policy: PolicyRule, T: int, n_traj: int, seed: int
) -> np.ndarray:
    """Discounted total reward of each of n_traj trajectories, simulated
    in consecutive lockstep blocks that draw from one generator and share
    one workspace and one pair of source cdfs."""
    _check_horizon(T)
    # As a Python int: a numpy one cannot hold the mask.
    rng = np.random.default_rng(int(seed) & _SEED_MASK)
    cdfs = _sources(inst, T)
    totals = np.empty(n_traj)
    work = _Workspace(inst, min(_BLOCK, n_traj))
    for start in range(0, n_traj, _BLOCK):
        _lockstep(inst, policy, T, cdfs, rng, work, totals[start : start + _BLOCK])
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
