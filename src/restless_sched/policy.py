"""Policies, the myopic rule, and exact evaluation of finite-horizon
values over the observation tree.

The myopic rule works the project with the largest immediate reward
R'x, ties (within ``ARGMAX_TOL``) going to the lowest index.  Rewards
are strictly increasing, so this is also the MLR-greatest project
wherever the profile is MLR-ordered, in either regime.  The same tie
rule picks the DP's best action.

A policy is a name plus one batch-shaped decision ``decide(t,
beliefs[n, N, X]) -> actions[n]`` with 0-based actions; the simulator
calls it on the distinct histories of a slot and ``policy_value`` on
one tree level, and both reject a decision of another shape or an
action outside 0..N-1 (``check_decisions``).  Immediate rewards are
``np.dot(beliefs, R)`` everywhere: the myopic rule decides on the same
product that the DP values nodes with.  ``row_max``, which the tie rule
and the DP use, takes the maximum column by column, avoiding numpy's
slow reduction over a short last axis.

The tree is grown one level at a time as arrays of profiles
(``TreeEvaluator.expand``), merging profiles with the same rounded key
(``distinct_nodes``), and summed backwards.  ``TreeEvaluator.sweep``
follows one decision per node from many root profiles at once, each
root up to its own horizon; it gives ``policy_value`` and the
auxiliary value function W^u_t (take action u at slot t, act
myopically afterwards), and the DP in ``dp`` runs the same kernel
under every action.  ``TreeEvaluator.leaves`` values and counts the
level below one under every action without building it.  Both take
A'x and T(x, m) from ``filtering.propagate_rows`` and
``filtering.filter_rows``.  ``avf_frozen``, the variant of W whose
decisions follow a reference profile, expands the evaluated profiles
and their references side by side on the same kernel.

Keys are compared through one 64-bit fingerprint per row of key bits,
the wrapping sum of its key bits times ``fingerprint_multipliers``.
``_fingerprint_runs`` is the one grouping step: one sort of the
fingerprints, a bit-for-bit check of the rows that share one, and, if
two different rows do, ``_exact_merge``, ``np.unique`` over the rows'
key bits, the one place whole keys are still sorted.  Its callers only
say how to get key rows: ``distinct_nodes`` indexes the level's key
bits, and the leaf count builds a leaf's key row from its parent's
propagated key bits and its filtered row's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DimensionMismatchError
from .filtering import BeliefProfile, filter_rows, propagate_rows
from .types import ModelInstance, RewardVector, belief_key, key_bits

#: Two values within this are treated as tied.
ARGMAX_TOL = 1e-12


@dataclass(frozen=True)
class PolicyRule:
    """A deterministic decision rule: (slot, beliefs of shape (n, N, X))
    -> 0-based actions of shape (n,).

    ``decide`` must act on each row on its own: the action of row i may
    depend on the slot and on ``beliefs[i]``, not on the other rows or
    on n.  The simulator and ``TreeEvaluator.sweep`` call it once per
    distinct history or tree node, not once per trajectory or path.
    """

    name: str
    decide: Callable[[int, np.ndarray], np.ndarray]


def check_decisions(policy: PolicyRule, u, beliefs: np.ndarray) -> np.ndarray:
    """The batch decision ``u`` on ``beliefs`` (n, N, X) as an array: a
    ``ValueError`` unless it has shape (n,) and an integer dtype, and an
    ``IndexError`` if it names a project outside 0..N-1 (numpy would
    wrap a negative index to another project)."""
    u = np.asarray(u)
    n, n_projects = beliefs.shape[:2]
    if u.shape != (n,):
        raise ValueError(
            f"policy {policy.name!r} returned decisions of shape {u.shape} for {n} profiles; "
            f"expected ({n},)"
        )
    if not np.issubdtype(u.dtype, np.integer):
        raise ValueError(
            f"policy {policy.name!r} returned decisions of dtype {u.dtype}; expected integers"
        )
    bad = (u < 0) | (u >= n_projects)
    if bad.any():
        raise IndexError(f"policy {policy.name!r} chose project {u[bad][0] + 1} of {n_projects}")
    return u


def horizon_for_tolerance(beta: float, r_max: float, tol: float) -> int:
    """Smallest T with beta^(T+1) * r_max / (1 - beta) below tol."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if not np.isfinite(r_max):
        raise ValueError(f"r_max must be finite, got {r_max}")
    # Every comparison with NaN is false, so a NaN tol fails this one.
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    T = 0
    tail = beta * r_max / (1.0 - beta) if beta > 0 else 0.0
    while tail >= tol:
        T += 1
        tail *= beta
    return T


def row_max(values: np.ndarray) -> np.ndarray:
    """The largest entry along the last axis, taken column by column.

    Exactly ``values.max(axis=-1)``, but each step is one elementwise
    ``np.maximum`` over a whole column: numpy reduces a short last axis
    one row at a time.
    """
    out = np.maximum(values[..., 0], values[..., -1])
    for k in range(1, values.shape[-1] - 1):
        np.maximum(out, values[..., k], out=out)
    return out


def _greatest_array_index(values: np.ndarray) -> np.ndarray:
    """Lowest index whose value lies within ARGMAX_TOL of the largest,
    one decision per row: the last axis of ``values`` indexes the
    candidates."""
    near = values >= row_max(values)[..., None] - ARGMAX_TOL
    return near.argmax(axis=-1)


def leaf_values(rewards: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal and myopic value of leaves whose immediate rewards are
    ``rewards`` (N, ...), project axis first: the largest reward, and
    the reward of the project ``_greatest_array_index`` picks, both
    taken column by column."""
    optimal = row_max(np.moveaxis(rewards, 0, -1))
    near = optimal - ARGMAX_TOL
    myopic = rewards[-1]
    for r in rewards[-2::-1]:
        myopic = np.where(r >= near, r, myopic)
    return optimal, myopic


def myopic_action(beliefs: BeliefProfile, R: RewardVector) -> int:
    """Project (1-based) with the largest immediate reward, ties to the
    lowest index."""
    arrays = beliefs.arrays()
    if arrays[0].size != R.values.size:
        raise DimensionMismatchError("reward/belief dimensions differ")
    rewards = np.dot(np.array((arrays,)), R.values)
    return int(_greatest_array_index(rewards)[0]) + 1


def backup(rewards, seg, d, next_values, beta):
    """Values of one level, shaped like ``rewards``: immediate reward plus
    the discounted likelihood-weighted values of the children, child c
    counting toward the flat index ``seg[c]`` of ``rewards``, summed in
    expansion order."""
    acc = np.bincount(seg, weights=d * next_values, minlength=rewards.size)
    return rewards + beta * acc.reshape(rewards.shape)


#: Odd base whose powers weight the key columns in a node fingerprint.
_BASE = np.uint64(0x9E3779B97F4A7C15)


def fingerprint_multipliers(n_columns: int) -> np.ndarray:
    """The odd multipliers ``_BASE ** (j + 1)`` of key columns j.  A
    row's fingerprint is its ``key_bits`` times these, summed modulo
    2**64, so rows that differ in one column never share one."""
    return np.cumprod(np.full(n_columns, _BASE))


def _fingerprint_runs(fingerprints: np.ndarray, rows: Callable[[np.ndarray], np.ndarray]):
    """Group n rows by key: ``fingerprints`` (n,) holds each row's
    fingerprint and ``rows(i)`` returns the key bits of rows ``i``, one
    flat row each.

    Returns (order, head): an order of the rows in which equal keys are
    adjacent, and per position of that order, whether a new key starts
    there.  The rows are sorted by fingerprint, and each pair of
    neighbours that share one is compared bit for bit.  If two different
    rows share a fingerprint, the rows are grouped by ``_exact_merge``
    of all their key bits instead.  Pass the fingerprints as a
    temporary: they are dropped once sorted.
    """
    order = np.argsort(fingerprints)
    fingerprints = fingerprints[order]
    head = np.empty(len(order), dtype=bool)
    head[:1] = True
    np.not_equal(fingerprints[1:], fingerprints[:-1], out=head[1:])
    del fingerprints
    tie = np.flatnonzero(~head[1:])
    if len(tie) and not np.array_equal(rows(order[tie]), rows(order[tie + 1])):
        # Positions of the distinct keys in byte order are exact
        # fingerprints: their ties are all real.
        key = _exact_merge(rows(np.arange(len(order))))
        return _fingerprint_runs(key, key.__getitem__)
    return order, head


def _exact_merge(bits: np.ndarray) -> np.ndarray:
    """``np.unique`` over the rows of ``bits`` (n, k), key bits already
    rounded: for every row, the position of its row among the distinct
    rows in sorted order of their bytes."""
    keys = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1]))).ravel()
    return np.unique(keys, return_inverse=True)[1]


def _leaf_fingerprints(propagated: np.ndarray, filtered: np.ndarray, leaf) -> np.ndarray:
    """The fingerprint of every live child of ``_count_leaves``: its
    parent's propagated fingerprint minus the worked row's terms plus
    the filtered row's terms."""
    n, N, X = propagated.shape
    weights = fingerprint_multipliers(N * X).reshape(N, X)
    # Per parent and project, that row's fingerprint terms; per child,
    # its filtered row's.
    terms = propagated[:, :, 0] * weights[:, 0]
    fingerprints = filtered[0] * weights[:, 0, None]
    for x in range(1, X):
        terms += propagated[:, :, x] * weights[:, x]
        fingerprints += filtered[x] * weights[:, x, None]
    # Plus the terms of the parent's other rows.
    fingerprints += terms.sum(axis=1) - terms.T
    return fingerprints.ravel() if leaf is None else fingerprints.ravel()[leaf]


def _count_leaves(propagated: np.ndarray, filtered: np.ndarray, leaf) -> int:
    """Distinct keys among the children of ``TreeEvaluator.leaves``,
    from the key bits of the parents' ``propagated`` rows (n, N, X) and
    of the ``filtered`` rows (X, Y, N, n); ``leaf`` indexes the live
    children, None if all are live.

    Child c of the (Y, N, n) children is its parent c % n's propagated
    rows with the row of the worked project c // n % N replaced by the
    filtered row c, and ``_fingerprint_runs`` compares tied children as
    rows built so.
    """
    n, N, X = propagated.shape
    children = filtered.reshape(X, -1)

    def rows(i: np.ndarray) -> np.ndarray:
        # np.take gathers: fancy indexing is slower here.
        c = i if leaf is None else np.take(leaf, i)
        out = np.take(propagated, c % n, axis=0)
        out.reshape(-1, X)[np.arange(len(c)) * N + c // n % N] = np.take(children, c, axis=1).T
        return out.reshape(len(c), -1)

    head = _fingerprint_runs(_leaf_fingerprints(propagated, filtered, leaf), rows)[1]
    return int(np.count_nonzero(head))


def distinct_nodes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge the rows of ``keys`` (n, ...), each flattened to one key
    row, with equal rounded keys.

    Returns the index of each distinct row's first occurrence, in order
    of first occurrence (the order a depth-first walk meets them), and
    for every row the position of its key among those.

    Each row's fingerprint is its ``key_bits`` times
    ``fingerprint_multipliers``; ``_fingerprint_runs`` groups the rows.
    """
    n = len(keys)
    bits = key_bits(keys.reshape(n, -1).copy())
    order, head = _fingerprint_runs(bits @ fingerprint_multipliers(bits.shape[1]), bits.__getitem__)
    # Per key, its first row; per row, its key.
    firsts = np.minimum.reduceat(order, np.flatnonzero(head))
    key = np.empty(n, dtype=np.intp)
    key[order] = head.cumsum() - 1
    # The keys in order of their first rows.
    seen = np.zeros(n, dtype=bool)
    seen[firsts] = True
    first = np.flatnonzero(seen)
    rank = np.empty(n, dtype=np.intp)
    rank[first] = np.arange(len(first))
    return first, rank[firsts][key]


class TreeEvaluator:
    """Exact expectation over the Y-ary observation tree of one instance.

    Holds the matrices of one instance and horizon and the level kernel
    (``expand``) that ``sweep``, ``avf_frozen`` and the DP run on.  All
    internal indices are 0-based; beliefs are tuples of read-only
    arrays, levels are arrays of shape (n, N, X).
    """

    def __init__(self, inst: ModelInstance, horizon: int):
        self.inst = inst
        self.T = int(horizon)
        self.A_T = inst.A.rows.T.copy()
        self.B = inst.B.rows.copy()
        self.R = inst.R.values.copy()
        self.beta = inst.beta
        self.N = inst.n_projects
        self.Y = inst.n_obs

    def expand(self, level: np.ndarray, actions: np.ndarray):
        """Children of every profile in ``level`` (n, N, X) under each
        column of ``actions`` (n, K) of 0-based projects.

        Returns (children, parent, column, observation, likelihood): one
        entry per child, ordered by parent, then action column, then
        0-based observation; zero-likelihood branches are skipped.
        """
        n, K = actions.shape
        rows = np.arange(n)
        worked = actions.T
        propagated = propagate_rows(self.A_T, level)
        d, live, filtered = filter_rows(propagated[rows, worked], self.B)
        children = np.empty((n, K, self.Y) + level.shape[1:])
        children[...] = propagated[:, None, None]
        children[rows, np.arange(K)[:, None], :, worked] = filtered.transpose(2, 3, 1, 0)
        live = live.transpose(1, 0, 2)
        parent, column, observation = np.nonzero(live)
        children = children.reshape((-1,) + level.shape[1:]) if live.all() else children[live]
        return children, parent, column, observation, d.transpose(1, 0, 2)[live]

    def leaves(self, level: np.ndarray):
        """The children of every profile in ``level`` (n, N, X) under
        every action, valued and counted as leaves without building them.

        Returns (optimal, myopic, segment, likelihood, count): per live
        child, its largest immediate reward and the tie rule's pick, its
        flat index parent * N + action into ``np.dot(level, R)`` and its
        likelihood; and the number of distinct rounded keys among the
        children, the number of nodes ``distinct_nodes`` would keep of
        ``expand``'s children.  The children come observation-major
        (observation, action, parent), not in ``expand``'s order, but
        each segment's children still come in observation order, so
        ``backup`` sums them in the same order.

        A child is its parent's propagated profile with the worked row
        replaced by a filtered row.  The passive rewards are one product
        over the propagated rows and the worked ones one over the
        filtered rows, each ``np.dot`` over contiguous length-X rows as
        on built children.  The count needs only the key bits of the
        same two pieces (``_count_leaves``): a child's fingerprint (see
        ``fingerprint_multipliers``) is its parent's propagated
        fingerprint minus the worked row's terms plus the filtered row's
        terms, and ``_fingerprint_runs`` compares children that share
        one, or groups all of them on a collision, as key rows built
        from the same pieces.  The level is never built.
        """
        n, N, X = level.shape
        every = np.arange(N)
        propagated = propagate_rows(self.A_T, level)
        d, live, filtered = filter_rows(propagated.transpose(1, 0, 2).copy(), self.B)
        # Project j's immediate reward in child (observation, action, parent).
        rewards = np.empty((N,) + filtered.shape[1:])
        rewards[...] = np.dot(propagated, self.R).T[:, None, None]
        worked = np.dot(np.ascontiguousarray(filtered.transpose(2, 3, 1, 0)), self.R)
        rewards[every, :, every] = worked.transpose(0, 2, 1)
        del worked
        optimal, myopic = leaf_values(rewards)
        del rewards
        segment = np.broadcast_to(np.arange(n) * N + every[:, None], optimal.shape)
        live = live.transpose(2, 0, 1)
        leaf = None if live.all() else np.flatnonzero(live)
        out = [a.ravel() if leaf is None else a.ravel()[leaf]
               for a in (optimal, myopic, segment, d.transpose(2, 0, 1))]
        return (*out, _count_leaves(key_bits(propagated), key_bits(filtered), leaf))

    # Not called by the package; the per-layer tracer in perfbench wraps
    # ``TreeEvaluator.profile_key`` by name.
    def profile_key(self, t: int, beliefs: tuple) -> tuple:
        return (t, b"".join(belief_key(x) for x in beliefs))

    # Not called by the package; the per-layer tracer in perfbench wraps
    # ``TreeEvaluator.branches`` by name.
    def branches(self, beliefs: tuple, u: int):
        """(0-based observation, likelihood, stepped beliefs) per possible
        observation after working project u (0-based)."""
        children, _, _, obs, d = self.expand(np.array((beliefs,)), np.array([[u]]))
        return [(int(m), float(p), tuple(c)) for m, p, c in zip(obs, d, children)]

    def sweep(
        self,
        t: int,
        roots: np.ndarray,
        policy: PolicyRule,
        first: np.ndarray | None = None,
        horizons: np.ndarray | None = None,
    ) -> np.ndarray:
        """Value from slot t of every profile in ``roots`` (n, N, X).

        ``policy`` decides at every node, except that ``first`` (n,), if
        given, is the 0-based project each root works at slot t.  Root i
        is valued up to slot ``horizons[i]`` (each at least t), or up to
        the evaluator's T if ``horizons`` is not given: a node at its
        horizon is a leaf.  Each level expands only the chosen action of
        the nodes below their horizon and merges equal keys of the same
        horizon below the roots, keeping the first occurrence, which is
        the one a depth-first walk of the roots in order meets first.
        Roots of one horizon are thus valued bit for bit as in a sweep
        of those roots alone.  One backward sweep then sums each node's
        likelihood-weighted child values in observation order.
        """
        level, u, levels = roots, first, []
        horizon = np.full(len(roots), self.T) if horizons is None else np.asarray(horizons)
        for depth in range(t, int(horizon.max(initial=t)) + 1):
            if u is None:
                u = check_decisions(policy, policy.decide(depth, level), level)
            values = np.dot(level, self.R)[np.arange(len(level)), u]
            grow = np.flatnonzero(horizon > depth)
            if not len(grow):
                break
            children, parent, _, _, d = self.expand(level[grow], u[grow, None])
            parent = grow[parent]
            # The horizon as one more key column: an integer-valued
            # column rounds to itself, so it only splits keys.
            n = len(children)
            keys = np.concatenate((children.reshape(n, -1), horizon[parent, None]), axis=1)
            kept, inverse = distinct_nodes(keys)
            levels.append((values, parent, d, inverse))
            level, horizon, u = children[kept], horizon[parent[kept]], None
        # A leaf above the deepest level gets its reward plus beta * 0.0,
        # which leaves it as it is: np.dot sums from +0.0, so no reward
        # is -0.0.
        for rewards, parent, d, inverse in reversed(levels):
            values = backup(rewards, parent, d, values[inverse], self.beta)
        return values

    def avf(self, t: int, beliefs: tuple, u: int) -> float:
        """W^u_t: take u (0-based) now, act myopically afterwards."""
        roots = np.array((beliefs,))
        return float(self.sweep(t, roots, myopic_policy(self.inst), np.array([u]))[0])

    def policy_value(self, t: int, beliefs: tuple, policy: PolicyRule) -> float:
        """Value of ``policy`` from slot t of one profile."""
        return float(self.sweep(t, np.array((beliefs,)), policy)[0])


def check_profile(inst: ModelInstance, profile: BeliefProfile, t: int, T: int) -> None:
    """Reject a negative horizon or slot, a slot past the horizon, and a
    profile whose number of projects or belief dimension differs from
    the instance's."""
    if T < 0:
        raise ValueError(f"horizon T must be >= 0, got {T}")
    if not 0 <= t <= T:
        raise ValueError(f"slot t={t} outside 0..T={T}")
    dims = {x.dim for x in profile.beliefs}
    if profile.n_projects != inst.n_projects or dims != {inst.n_states}:
        raise DimensionMismatchError(
            f"profile of {profile.n_projects} beliefs with dims {sorted(dims)} does not fit "
            f"an instance of N={inst.n_projects} projects and X={inst.n_states} states"
        )


def _check_first_action(profile: BeliefProfile, first_action: int) -> None:
    if not 1 <= first_action <= profile.n_projects:
        raise IndexError(f"project {first_action} out of range 1..{profile.n_projects}")


def avf_evaluate(
    inst: ModelInstance, profile: BeliefProfile, t: int, T: int, first_action: int
) -> float:
    """Auxiliary value W^u_t for 1-based first action u on a profile."""
    check_profile(inst, profile, t, T)
    _check_first_action(profile, first_action)
    return TreeEvaluator(inst, T).avf(t, profile.arrays(), first_action - 1)


def avf_frozen(
    inst: ModelInstance,
    profile: BeliefProfile,
    t: int,
    T: int,
    first_action: int,
    reference: BeliefProfile,
) -> float:
    """Auxiliary value with continuation decisions frozen to a reference.

    After the first action, each branch's decision is the myopic choice
    computed from ``reference`` evolved along the same action/observation
    history, not from the evaluated profile.  With reference == profile
    this equals ``avf_evaluate``; the point of the frozen form is that
    the value becomes linear in any single component of the profile, so
    the basis decomposition W(x) = sum_i x^(n)(i) W(x with e_i in slot n)
    holds exactly (the self-referencing form breaks it whenever a basis
    substitution flips a downstream myopic choice).

    Each level expands the evaluated profiles and their references under
    the same actions; nothing is merged, and one backward pass sums each
    node's likelihood-weighted child values in observation order.
    """
    check_profile(inst, profile, t, T)
    check_profile(inst, reference, t, T)
    _check_first_action(profile, first_action)
    ev = TreeEvaluator(inst, T)
    decide = myopic_policy(inst).decide
    cur, ref = np.array((profile.arrays(),)), np.array((reference.arrays(),))
    u = np.array([first_action - 1])
    levels = []
    for depth in range(t, T + 1):
        values = np.dot(cur, ev.R)[np.arange(len(cur)), u]
        if depth == T:
            break
        children, parent, _, obs, d = ev.expand(cur, u[:, None])
        ref_children, ref_parent, _, ref_obs, _ = ev.expand(ref, u[:, None])
        # Line each reference child up with the evaluated child of the
        # same parent and observation.  Where the reference rules out a
        # branch the evaluated profile reaches, the evaluated child is
        # its own reference.
        at = np.full(len(cur) * ev.Y, -1)
        at[parent * ev.Y + obs] = np.arange(len(parent))
        into = at[ref_parent * ev.Y + ref_obs]
        ref = children.copy()
        ref[into[into >= 0]] = ref_children[into >= 0]
        levels.append((values, parent, d))
        cur, u = children, decide(depth + 1, ref)
    for rewards, parent, d in reversed(levels):
        values = backup(rewards, parent, d, values, ev.beta)
    return float(values[0])


def policy_value(
    inst: ModelInstance, profile: BeliefProfile, t: int, T: int, policy: PolicyRule
) -> float:
    """Exact expected discounted reward of a policy from slot t to T."""
    check_profile(inst, profile, t, T)
    return TreeEvaluator(inst, T).policy_value(t, profile.arrays(), policy)


def myopic_policy(inst: ModelInstance) -> PolicyRule:
    """The rule that works the project with the largest immediate reward."""
    r = inst.R.values

    def decide(t: int, beliefs: np.ndarray) -> np.ndarray:
        del t
        return _greatest_array_index(np.dot(beliefs, r))

    return PolicyRule("myopic", decide)


def _constant(project: int, beliefs: np.ndarray) -> np.ndarray:
    """The same 0-based project for every row of a batch."""
    return np.full(beliefs.shape[0], project, dtype=np.int64)


def stay_policy(project: int) -> PolicyRule:
    """Always work one fixed project (1-based)."""
    return PolicyRule(f"stay-{project}", lambda t, beliefs: _constant(project - 1, beliefs))


def round_robin_policy(n_projects: int) -> PolicyRule:
    """Cycle through projects in index order."""
    return PolicyRule(
        "round-robin", lambda t, beliefs: _constant(t % n_projects, beliefs)
    )


def seeded_random_policy(n_projects: int, seed: int) -> PolicyRule:
    """Belief-blind pseudo-random choice, deterministic in (seed, slot)."""

    def decide(t: int, beliefs: np.ndarray) -> np.ndarray:
        pick = int(np.random.default_rng((seed, t)).integers(n_projects))
        return _constant(pick, beliefs)

    return PolicyRule(f"random-{seed}", decide)
