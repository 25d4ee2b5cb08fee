"""Per-layer tracing from outside the package.

Wrappers are installed on the names the package looks up at call time
(``policy.belief_key``, not ``types.belief_key``) and removed again, so
no source file changes.  Spans are aggregated per name rather than
stored one by one: a deep certificate makes millions of calls.  A span's
self time is its duration minus the spans it encloses, and a recursive
name adds to its inclusive time only at its outermost call, so nothing
is counted twice.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import restless_sched as rs
from restless_sched import assumptions, policy, simulate


@dataclass
class Span:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    depth: int = 0


class Tracer:
    """Counts, inclusive and self time per traced name, plus the counters
    that need a call's arguments or result."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self._stack: list[list[float]] = []
        self.nodes = 0
        self.certificates = 0
        self.samples = 0
        self.batch_slots = 0
        self.totals_slots = 0
        self.totals_seconds = 0.0
        self.distinct_keys = 0
        self._keys: set = set()

    def _wrap(self, name: str, fn, observe=None):
        span = self.spans.setdefault(name, Span())
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            span.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_time += dt - frame[0]
                if span.depth == 0:
                    span.inclusive += dt
                if stack:
                    stack[-1][0] += dt
            if observe is not None:
                observe(args, kwargs, result, dt)
            return result

        return traced

    # Observers: counters the span alone cannot give.
    def _on_key(self, args, kwargs, key, dt):
        self._keys.add((id(args[0]), key))

    def _on_certificate(self, args, kwargs, report, dt):
        self.certificates += 1
        self.nodes += sum(report.per_depth_node_counts)

    def _on_bounds(self, args, kwargs, samples, dt):
        self.samples += len(samples)

    def _on_batch(self, args, kwargs, result, dt):
        _, _, T, n_traj, _ = args
        self.batch_slots += n_traj * (T + 1)

    def _on_estimate(self, args, kwargs, result, dt):
        if kwargs.get("return_totals"):
            self.totals_slots += args[3] * (args[2] + 1)
            self.totals_seconds += dt

    def _targets(self):
        """(owner, attribute, traced name, observer) for every wrapped name."""
        te = policy.TreeEvaluator
        return [
            (policy, "belief_key", "types.belief_key", None),
            (policy, "_greatest_array_index", "orders.myopic_index", None),
            (te, "profile_key", "policy.profile_key", self._on_key),
            (te, "branches", "policy.branches", None),
            (te, "avf", "policy.avf", None),
            (te, "policy_value", "policy.policy_value", None),
            (rs, "certify_myopic", "dp.certify_myopic", self._on_certificate),
            (rs, "check_bounds_suite", "bounds.check_bounds_suite", self._on_bounds),
            (rs, "verify_assumption1", "assumptions.verify", None),
            (rs, "verify_assumption2", "assumptions.verify", None),
            (assumptions, "eigendecompose", "spectral.eigendecompose", None),
            (simulate, "step_profile", "filtering.step_profile", None),
            (simulate, "_estimate_batched", "simulate.batch", self._on_batch),
            (rs, "estimate_value", "simulate.estimate_value", self._on_estimate),
        ]

    @contextmanager
    def installed(self):
        """Trace every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, observe in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.distinct_keys += len(self._keys)
            self._keys.clear()

    def span(self, name: str) -> Span:
        return self.spans.get(name, Span())

    def layer_metrics(self, ops: int, op_seconds: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``ops`` traced operations that took
        ``op_seconds`` in all.  A layer the workload does not reach reads 0."""
        s = self.span

        def ratio(a, b):
            return a / b if b else 0.0

        per_op = 1.0 / ops
        keys = s("policy.profile_key").calls
        return {
            "dp.nodes": (ratio(self.nodes, self.certificates), "count"),
            "dp.us_per_node": (1e6 * ratio(s("dp.certify_myopic").inclusive, self.nodes), "us"),
            "dp.memo_hit_ratio": (1.0 - ratio(self.distinct_keys, keys) if keys else 0.0, "ratio"),
            "types.belief_key_calls": (s("types.belief_key").calls * per_op, "count"),
            "types.belief_key_share": (ratio(s("types.belief_key").self_time, op_seconds), "ratio"),
            "policy.branches_calls": (s("policy.branches").calls * per_op, "count"),
            "policy.branches_us": (1e6 * ratio(s("policy.branches").self_time,
                                               s("policy.branches").calls), "us"),
            "policy.policy_walk_s": (s("policy.policy_value").inclusive * per_op, "s"),
            "policy.avf_calls": (s("policy.avf").calls * per_op, "count"),
            "policy.avf_s": (s("policy.avf").inclusive * per_op, "s"),
            "orders.myopic_index_calls": (s("orders.myopic_index").calls * per_op, "count"),
            "orders.myopic_index_share": (ratio(s("orders.myopic_index").self_time,
                                                op_seconds), "ratio"),
            "bounds.samples": (self.samples * per_op, "count"),
            "bounds.us_per_sample": (1e6 * ratio(s("bounds.check_bounds_suite").inclusive,
                                                 self.samples), "us"),
            "bounds.share": (ratio(s("bounds.check_bounds_suite").inclusive, op_seconds), "ratio"),
            "assumptions.verify_us": (1e6 * ratio(s("assumptions.verify").inclusive,
                                                  s("assumptions.verify").calls), "us"),
            "spectral.eigendecompose_calls": (s("spectral.eigendecompose").calls * per_op,
                                              "count"),
            "spectral.eigendecompose_us": (1e6 * ratio(s("spectral.eigendecompose").inclusive,
                                                       s("spectral.eigendecompose").calls), "us"),
            "filtering.step_profile_calls": (s("filtering.step_profile").calls * per_op, "count"),
            "filtering.step_profile_us": (1e6 * ratio(s("filtering.step_profile").self_time,
                                                      s("filtering.step_profile").calls), "us"),
            "simulate.batch_us_per_traj_slot": (1e6 * ratio(s("simulate.batch").inclusive,
                                                            self.batch_slots), "us"),
            "simulate.totals_us_per_traj_slot": (1e6 * ratio(self.totals_seconds,
                                                             self.totals_slots), "us"),
        }
