"""Exact finite-horizon dynamic programming over the reachable belief
tree, and the certification oracle comparing the optimum against the
myopic policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import NodeBudgetExceededError
from .filtering import BeliefProfile
from .policy import TreeEvaluator, _greatest_array_index, myopic_policy
from .types import ModelInstance

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class ValueReport:
    optimal_value: float
    myopic_value: float
    gap: float
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


class _DPSolver(TreeEvaluator):
    def __init__(self, inst, horizon, node_budget=DEFAULT_NODE_BUDGET):
        super().__init__(inst, horizon)
        self.node_budget = int(node_budget)
        self._opt_memo: dict = {}
        self.node_counts = [0] * (self.T + 1)
        self.nodes_total = 0
        self.agree_nodes = 0

    def optimal(self, t: int, beliefs: tuple) -> tuple[float, int]:
        """(V_t, 0-based best action), memoized on (t, rounded profile)."""
        key = self.profile_key(t, beliefs)
        hit = self._opt_memo.get(key)
        if hit is not None:
            return hit
        self.nodes_total += 1
        if self.nodes_total > self.node_budget:
            raise NodeBudgetExceededError(self.node_budget, self.N, self.Y, self.T)
        self.node_counts[t] += 1

        rewards = [float(self.R @ x) for x in beliefs]
        values = list(rewards)
        if t < self.T:
            for u in range(self.N):
                acc = 0.0
                for _, d, stepped in self.branches(beliefs, u):
                    acc += d * self.optimal(t + 1, stepped)[0]
                values[u] += self.beta * acc
        best = max(values)
        best_u = _greatest_array_index(values)
        # The myopic action agrees when its value ties the best one,
        # i.e. wins the tie rule against it.
        myo = _greatest_array_index(rewards)
        if _greatest_array_index((values[myo], best)) == 0:
            self.agree_nodes += 1
        result = (best, best_u)
        self._opt_memo[key] = result
        return result


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
    if t > T:
        raise ValueError(f"t={t} exceeds horizon T={T}")
    solver = _DPSolver(inst, T, node_budget)
    value, best_u = solver.optimal(t, profile.arrays())
    return value, best_u + 1


def certify_myopic(
    inst: ModelInstance,
    T: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ValueReport:
    """Compare the DP optimum against the myopic policy from the initial
    profile; reports the gap and per-node argmax agreement."""
    profile = BeliefProfile(inst.initial_beliefs, 0)
    solver = _DPSolver(inst, T, node_budget)
    opt, best_u = solver.optimal(0, profile.arrays())
    myo = solver.policy_value(0, profile.arrays(), myopic_policy(inst))
    agreement = solver.agree_nodes / solver.nodes_total if solver.nodes_total else 1.0
    return ValueReport(
        optimal_value=opt,
        myopic_value=myo,
        gap=opt - myo,
        per_depth_node_counts=tuple(solver.node_counts),
        argmax_agreement=agreement,
        best_action=best_u + 1,
        horizon=T,
    )
