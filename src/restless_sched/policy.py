"""Policies, the myopic rule, and exact evaluation of finite-horizon
values by exhaustive recursion over the observation tree.

The myopic rule works the project with the largest immediate reward
R'x, ties (within ``ARGMAX_TOL``) going to the lowest index.  Rewards
are strictly increasing, so this is also the MLR-greatest project
wherever the profile is MLR-ordered, in either regime.  The same tie
rule picks the DP's best action.

A policy is a name plus one batch-shaped decision ``decide(t,
beliefs[n, N, X]) -> actions[n]`` with 0-based actions; the simulator
calls it on a whole batch and the tree walks on a batch of one.

The auxiliary value function W^u_t is the expected discounted reward of
taking action u at slot t and following the myopic rule afterwards;
``policy_value`` evaluates an arbitrary deterministic policy the same
way.  Both share one branch-expansion kernel and memoize on
(slot, rounded profile).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DimensionMismatchError
from .filtering import LIKELIHOOD_FLOOR, BeliefProfile, _filter_from_propagated
from .types import ModelInstance, RewardVector, belief_key

#: Two values within this are treated as tied.
ARGMAX_TOL = 1e-12


@dataclass(frozen=True)
class PolicyRule:
    """A deterministic decision rule: (slot, beliefs of shape (n, N, X))
    -> 0-based actions of shape (n,)."""

    name: str
    decide: Callable[[int, np.ndarray], np.ndarray]


def horizon_for_tolerance(beta: float, r_max: float, tol: float) -> int:
    """Smallest T with beta^(T+1) * r_max / (1 - beta) below tol."""
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    T = 0
    tail = beta * r_max / (1.0 - beta) if beta > 0 else 0.0
    while tail >= tol:
        T += 1
        tail *= beta
    return T


def _greatest_array_index(values):
    """Lowest index whose value lies within ARGMAX_TOL of the largest.

    ``values`` is a sequence of floats (one decision; returns an int) or
    an array whose last axis indexes the candidates (one decision per
    row).  A single decision stays in Python floats: building an array
    per tree node costs more than the decision itself.
    """
    if isinstance(values, np.ndarray):
        near = values >= values.max(axis=-1, keepdims=True) - ARGMAX_TOL
        return near.argmax(axis=-1)
    floor = max(values) - ARGMAX_TOL
    return next(i for i, v in enumerate(values) if v >= floor)


def myopic_action(beliefs: BeliefProfile, R: RewardVector) -> int:
    """Project (1-based) with the largest immediate reward, ties to the
    lowest index."""
    arrays = beliefs.arrays()
    if arrays[0].size != R.values.size:
        raise DimensionMismatchError("reward/belief dimensions differ")
    return _greatest_array_index([float(R.values @ x) for x in arrays]) + 1


class TreeEvaluator:
    """Exact expectation over the Y-ary observation tree of one instance.

    Shared by the auxiliary-value, policy-value, and DP computations;
    reusable across calls so memoized subtrees amortize.  All internal
    indices are 0-based; beliefs are tuples of read-only arrays.
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
        self._myopic_memo: dict = {}
        self._policy_memos: dict = {}

    def profile_key(self, t: int, beliefs: tuple) -> tuple:
        return (t, b"".join(belief_key(x) for x in beliefs))

    def myopic_index(self, beliefs: tuple) -> int:
        """0-based myopic project for a tuple of belief arrays."""
        return _greatest_array_index([float(self.R @ x) for x in beliefs])

    def branches(self, beliefs: tuple, u: int):
        """Observation branches after working project u (0-based).

        Returns (0-based observation, likelihood, stepped beliefs) per
        possible observation; zero-likelihood branches are skipped.
        """
        propagated = tuple(self.A_T @ x for x in beliefs)
        z = propagated[u]
        ds = z @ self.B
        out = []
        for m in range(self.Y):
            d = float(ds[m])
            if d <= LIKELIHOOD_FLOOR:
                continue
            filtered = _filter_from_propagated(self.B, z, m, d)
            stepped = tuple(
                filtered if n == u else propagated[n] for n in range(self.N)
            )
            out.append((m, d, stepped))
        return out

    def avf(self, t: int, beliefs: tuple, u: int) -> float:
        """W^u_t: take u (0-based) now, act myopically afterwards."""
        value = float(self.R @ beliefs[u])
        if t >= self.T:
            return value
        acc = 0.0
        for _, d, stepped in self.branches(beliefs, u):
            acc += d * self.myopic_value(t + 1, stepped)
        return value + self.beta * acc

    def myopic_value(self, t: int, beliefs: tuple) -> float:
        key = self.profile_key(t, beliefs)
        hit = self._myopic_memo.get(key)
        if hit is not None:
            return hit
        value = self.avf(t, beliefs, self.myopic_index(beliefs))
        self._myopic_memo[key] = value
        return value

    def policy_value(self, t: int, beliefs: tuple, policy: PolicyRule) -> float:
        memo = self._policy_memos.setdefault(policy.name, {})
        key = self.profile_key(t, beliefs)
        hit = memo.get(key)
        if hit is not None:
            return hit
        u = int(policy.decide(t, np.array((beliefs,)))[0])
        if not 0 <= u < self.N:
            raise IndexError(f"policy {policy.name!r} chose project {u + 1} of {self.N}")
        value = float(self.R @ beliefs[u])
        if t < self.T:
            acc = 0.0
            for _, d, stepped in self.branches(beliefs, u):
                acc += d * self.policy_value(t + 1, stepped, policy)
            value += self.beta * acc
        memo[key] = value
        return value


def _check_first_action(profile: BeliefProfile, t: int, T: int, first_action: int):
    if t > T:
        raise ValueError(f"t={t} exceeds horizon T={T}")
    if not 1 <= first_action <= profile.n_projects:
        raise IndexError(f"project {first_action} out of range 1..{profile.n_projects}")


def avf_evaluate(
    inst: ModelInstance, profile: BeliefProfile, t: int, T: int, first_action: int
) -> float:
    """Auxiliary value W^u_t for 1-based first action u on a profile."""
    _check_first_action(profile, t, T, first_action)
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
    """
    _check_first_action(profile, t, T, first_action)
    ev = TreeEvaluator(inst, T)

    def value_of(slot: int, ref: tuple, cur: tuple, u: int) -> float:
        value = float(ev.R @ cur[u])
        if slot >= T:
            return value
        ref_branches = {m: stepped for m, _, stepped in ev.branches(ref, u)}
        acc = 0.0
        for m, d, cur_next in ev.branches(cur, u):
            # The reference profile cannot rule out a branch the
            # evaluated one reaches; fall back to self-reference there.
            ref_next = ref_branches.get(m, cur_next)
            acc += d * value_of(slot + 1, ref_next, cur_next, ev.myopic_index(ref_next))
        return value + ev.beta * acc

    return value_of(t, reference.arrays(), profile.arrays(), first_action - 1)


def policy_value(
    inst: ModelInstance, profile: BeliefProfile, t: int, T: int, policy: PolicyRule
) -> float:
    """Exact expected discounted reward of a policy from slot t to T."""
    if t > T:
        raise ValueError(f"t={t} exceeds horizon T={T}")
    return TreeEvaluator(inst, T).policy_value(t, profile.arrays(), policy)


def myopic_policy(inst: ModelInstance) -> PolicyRule:
    """The rule that works the project with the largest immediate reward."""
    r = inst.R.values

    def decide(t: int, beliefs: np.ndarray) -> np.ndarray:
        del t
        return _greatest_array_index(beliefs @ r)

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
