"""Exact finite-horizon dynamic programming over the reachable belief
tree, and the certification oracle comparing the optimum against the
myopic policy.

The tree is expanded breadth first, one level at a time under every
action, merging profiles with equal rounded keys.  The projects evolve
independently, so a level is held factored: ids (n, N) into a per-depth
table of one-project beliefs, whose every row is propagated and
filtered once per depth (``TreeEvaluator.next_level``), and whose
nodes are merged on their rows' canonical ids packed into one integer,
by one in-place sort of uint64 words that hold each key above its
child's position in expansion order.
The deepest level is not built: ``TreeEvaluator.leaf_pass`` values the
leaves from their parents' ids and the next depth's table, a chunk at a
time, backs them up into their parents and counts them.  A dead
(zero-likelihood) child is its first live sibling at likelihood 0.0
(``filtering.filter_rows``).  One backward sweep then yields the
optimal value, the myopic value and the per-node agreement of the two
(the exact finite-horizon POMDP backup of Smallwood & Sondik, Oper.
Res. 1973), each level by ``policy.backup`` on (n, N, Y) blocks of its
children's values, gathered by ``take`` as every row gather of the DP
is.  Exact certificates stay exponential in the horizon (restless
bandits are PSPACE-hard: Papadimitriou & Tsitsiklis, Math. Oper. Res.
1999); the tables cut the float work per level from the node count to
the table size.  Every product, A'x, likelihood or reward, is
``filtering.row_dot``'s in-order fold, so a certificate's values and
counts have the same bits whatever BLAS kernel numpy loads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import policy
from .exceptions import NodeBudgetExceededError
from .filtering import BeliefProfile, row_dot
from .policy import (
    ARGMAX_TOL,
    TreeEvaluator,
    backup,
    check_profile,
    row_max,
)
from .types import ModelInstance, check_integer

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class ValueReport:
    optimal_value: float
    myopic_value: float
    gap: float
    #: Distinct rounded profiles per depth.  These hang on the last bits
    #: of the arithmetic: keys round beliefs to ``KEY_DECIMALS`` = 12, so
    #: two profiles a few ulp apart across a 1e-12 rounding line are two
    #: nodes.  Every product is ``filtering.row_dot``'s in-order fold and
    #: every sum in order, each one rounded numpy operation, so the
    #: counts, like the values, have the same bits under every BLAS
    #: kernel.
    per_depth_node_counts: tuple[int, ...]
    #: Fraction of distinct DP nodes where the myopic action attains the max.
    argmax_agreement: float
    best_action: int
    horizon: int

    def to_json_dict(self) -> dict:
        return {
            "optimal_value": self.optimal_value,
            "myopic_value": self.myopic_value,
            "gap": self.gap,
            "per_depth_node_counts": list(self.per_depth_node_counts),
            "argmax_agreement": self.argmax_agreement,
            "best_action": self.best_action,
            "horizon": self.horizon,
        }


def _solve(inst: ModelInstance, beliefs: tuple, T: int, node_budget: int) -> ValueReport:
    """Optimal and myopic values of one profile over T slots after the
    current one (depths 0..T).  A node budget that is not an integer
    raises ``TypeError`` and one below 1 ``ValueError``: no tree fits.

    A level is ``ids`` (n, N), row indices into the depth's ``table``
    (M, X) of one-project beliefs; ``TreeEvaluator.next_level`` builds
    the next depth's table and the children from it.  Each level above
    the leaves keeps the first occurrence of every rounded profile in
    expansion order, the one a depth-first walk meets first.  The
    leaves are neither built nor merged: a leaf's value is its largest
    immediate reward, which the myopic action attains, so every leaf
    agrees, and ``TreeEvaluator.leaf_pass`` gives the leaf-parent
    level's optimal and myopic action values, and the exact number of
    distinct leaves, from that level; at T=0 the root is its own leaf.
    Every level, deepest first, then takes the same step: ``backup``
    from the level below, if any, then its best and myopic values.
    """
    check_integer("node_budget", node_budget)
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    ev = TreeEvaluator(inst, T)
    counts = [0] * (T + 1)

    def count(depth: int, n: int) -> None:
        counts[depth] = n
        if sum(counts) > node_budget:
            raise NodeBudgetExceededError(node_budget, ev.N, ev.Y, T)

    table, ids = np.array(beliefs), np.arange(ev.N)[None]
    sweep = []
    for depth in range(T - 1):
        count(depth, len(ids))
        rewards = row_dot(table, ev.R).take(ids)
        table, ids, d, inverse = ev.next_level(table, ids)
        sweep.append((rewards, d, inverse))
    # The leaf-parent level, or at T=0 the root as its own leaf.
    count(len(sweep), len(ids))
    rewards = values = myopic = row_dot(table, ev.R).take(ids)
    agree = 0
    if T > 0:
        # Every leaf agrees.  The leaf pass refuses an over-budget
        # request as soon as it has counted the leaves, before it values
        # them.
        values, myopic, agree = ev.leaf_pass(table, ids, rewards, lambda n: count(T, n))

    for depth in range(len(sweep), -1, -1):
        if depth < len(sweep):
            rewards, d, inverse = sweep[depth]
            values = backup(rewards, d, optimal.take(inverse), ev.beta)
            myopic = backup(rewards, d, myopic.take(inverse), ev.beta)
        # Through the module, so that a wrapper on the tie rule sees it.
        # Each node's myopic action as a flat index into the (n, N)
        # action values.
        myo = policy._greatest_array_index(rewards) + np.arange(0, rewards.size, ev.N)
        optimal, myopic = row_max(values), myopic.take(myo)
        # The myopic action agrees when its value ties the best one.
        agree += int(np.count_nonzero(values.take(myo) >= optimal - ARGMAX_TOL))

    opt, myo_value = float(optimal[0]), float(myopic[0])
    return ValueReport(
        optimal_value=opt,
        myopic_value=myo_value,
        gap=opt - myo_value,
        per_depth_node_counts=tuple(counts),
        argmax_agreement=agree / sum(counts),
        # The root's action values decide the best first action.
        best_action=int(policy._greatest_array_index(values)[0]) + 1,
        horizon=T,
    )


def optimal_value(
    inst: ModelInstance,
    profile: BeliefProfile,
    t: int,
    T: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[float, int]:
    """Exact DP value from slot t and the 1-based optimal first action.

    Ties are broken toward the lowest project index within ARGMAX_TOL.
    """
    check_profile(inst, profile, t, T)
    # The DP never reads the slot: values from t to T are those of T - t
    # slots.
    report = _solve(inst, profile.arrays(), T - t, node_budget)
    return report.optimal_value, report.best_action


def certify_myopic(
    inst: ModelInstance,
    T: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ValueReport:
    """Compare the DP optimum against the myopic policy from the initial
    profile; reports the gap and per-node argmax agreement."""
    profile = BeliefProfile(inst.initial_beliefs, 0)
    check_profile(inst, profile, 0, T)
    return _solve(inst, profile.arrays(), T, node_budget)
