"""The benchmark's three workloads over frozen inputs.

Each workload loads its inputs (refusing files whose digest changed),
runs an untimed warm-up on an input no timed operation uses, and then
offers operations ``op(k)``: the k-th input of a seed-determined order,
never the same input twice in one run.  An operation returns the
seconds spent in the package and the list of correctness gates that
failed.  Package functions are looked up through ``restless_sched`` at
call time so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from time import perf_counter

import numpy as np

import restless_sched as rs

INPUTS = Path(__file__).resolve().parent / "inputs"

#: sha256 of each frozen input file, as printed by freeze.py.
INPUT_DIGESTS = {
    "deep.json": "ed376e53884afd692dc81123ed0edf15d279033bd3a7c82992f359e04d5d3272",
    "pipeline.json": "a691eed00fe964ed2d722ba77808500ea3783338c7befab77c7ce4870f657607",
    "simulate.json": "61a46c156273bf03f8e247625065596e4dc4c346cb470ed598e0b1fec5e5c9d7",
}

# Gates, as pinned in tests/test_acceptance.py.
DP_TOL = 1e-10
GAP_TOL = 1e-9
#: Monte Carlo means must lie this many standard errors from the exact value.
MC_SIGMAS = 5.0


def load_input(name: str) -> dict:
    data = (INPUTS / name).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != INPUT_DIGESTS[name]:
        raise RuntimeError(f"frozen input {name} changed: sha256 {digest}")
    return json.loads(data)


def _generator(doc: dict, regime: int, seed: int):
    """A call that regenerates one frozen instance: (function name, params, seed)."""
    params = rs.GeneratorParams(**{k: tuple(v) for k, v in doc["generator"]["params"].items()})
    return (f"gen_assumption{regime}_instance", params, seed)


def _certificate_gates(rep: "rs.ValueReport", ref: dict) -> list[str]:
    failed = []
    if abs(rep.optimal_value - ref["optimal_value"]) > DP_TOL:
        failed.append(f"optimal value {rep.optimal_value!r} != reference {ref['optimal_value']!r}")
    if abs(rep.myopic_value - ref["myopic_value"]) > DP_TOL:
        failed.append(f"myopic value {rep.myopic_value!r} != reference {ref['myopic_value']!r}")
    if rep.gap > GAP_TOL:
        failed.append(f"gap {rep.gap!r} exceeds {GAP_TOL}")
    if rep.argmax_agreement != 1.0:
        failed.append(f"argmax agreement {rep.argmax_agreement!r}")
    return failed


class CertifyDeep:
    """One X=Y=N=3, beta=0.5 regime-1 instance per operation, certified at T=6."""

    def __init__(self, seed: int):
        doc = load_input("deep.json")
        self.T = doc["horizon"]
        entries = [(rs.ModelInstance.from_json_dict(e["instance"]), e["reference"])
                   for e in doc["instances"]]
        self._warm = entries[0][0]
        pool = entries[1:]
        self._inputs = [pool[i] for i in np.random.default_rng(seed).permutation(len(pool))]
        self.available = len(self._inputs)
        self.regenerate = [_generator(doc, 1, doc["generator"]["seed"])]
        self.nodes = 0
        self.certify_s: list[float] = []

    def warmup(self) -> None:
        rs.certify_myopic(self._warm, 3)

    def op(self, k: int) -> tuple[float, list[str]]:
        inst, ref = self._inputs[k]
        t0 = perf_counter()
        rep = rs.certify_myopic(inst, self.T)
        dt = perf_counter() - t0
        self.certify_s.append(dt)
        self.nodes = sum(rep.per_depth_node_counts)
        return dt, _certificate_gates(rep, ref)

    def summary(self) -> list[str]:
        return [f"certify_s {np.median(self.certify_s):.4f} s "
                f"(median of {len(self.certify_s)} certificates, T={self.T}, {self.nodes} nodes)"]


class CertifyPipeline:
    """Small frozen instances of both regimes: verify, certify at T=3, bound suite."""

    #: Bound samples per instance.
    n_samples = 30
    #: Instances per regime held out for the warm-up.
    held_out = 4

    def __init__(self, seed: int):
        doc = load_input("pipeline.json")
        self.T = doc["horizon"]
        entries = [(rs.ModelInstance.from_json_dict(e["instance"]), e["regime"], e["seed"],
                    e["reference"]) for e in doc["instances"]]
        by_regime = {1: [], 2: []}
        for e in entries:
            by_regime[e[1]].append(e)
        self._warm = by_regime[1][:self.held_out] + by_regime[2][:self.held_out]
        pool = by_regime[1][self.held_out:] + by_regime[2][self.held_out:]
        self._inputs = [pool[i] for i in np.random.default_rng(seed).permutation(len(pool))]
        self.available = len(self._inputs)
        self.regenerate = [_generator(doc, regime, s) for _, regime, s, _ in self._inputs[:32]]

    def _run(self, inst, regime: int, seed: int):
        if regime == 1:
            verdict = rs.verify_assumption1(inst)
        else:
            verdict = rs.verify_assumption2(inst, alt_clause3=True)
        rep = rs.certify_myopic(inst, self.T)
        samples = rs.check_bounds_suite(inst, self.n_samples, seed, regime=regime)
        return verdict, rep, samples

    def warmup(self) -> None:
        for inst, regime, seed, _ in self._warm:
            self._run(inst, regime, seed)

    def op(self, k: int) -> tuple[float, list[str]]:
        inst, regime, seed, ref = self._inputs[k]
        t0 = perf_counter()
        verdict, rep, samples = self._run(inst, regime, seed)
        dt = perf_counter() - t0
        failed = _certificate_gates(rep, ref)
        if verdict.regime != f"Assumption{regime}":
            failed.append(f"regime {regime} not verified: {verdict.regime}")
        if len(samples) != self.n_samples:
            failed.append(f"{len(samples)} bound samples, expected {self.n_samples}")
        failed += [f"bound {s.case} T={s.T} {s.verdict}" for s in samples if s.verdict != "Pass"]
        return dt, failed

    def summary(self) -> list[str]:
        return [f"bound samples per instance {self.n_samples}, certificate horizon T={self.T}"]


class SimulateMC:
    """The certify-deep instance under the myopic policy at T=8, on both
    Monte Carlo paths, a fresh simulation seed per operation."""

    n_batch = 400_000
    n_totals = 2_000

    def __init__(self, seed: int):
        doc = load_input("simulate.json")
        self.T = doc["horizon"]
        self.inst = rs.ModelInstance.from_json_dict(doc["instance"])
        self.policy = rs.myopic_policy(self.inst)
        profile = rs.BeliefProfile(self.inst.initial_beliefs, 0)
        self.regenerate = [_generator(doc, 1, doc["generator"]["seed"])]
        self.exact = rs.policy_value(self.inst, profile, 0, self.T, self.policy)
        ref = doc["reference"]["myopic_value"]
        if abs(self.exact - ref) > DP_TOL:
            raise RuntimeError(f"exact myopic value {self.exact!r} != reference {ref!r}")
        sim_seeds = np.random.default_rng(seed).integers(0, 2**62, size=4097)
        self._warm_seed = int(sim_seeds[0])
        self._inputs = [int(s) for s in sim_seeds[1:]]
        self.available = len(self._inputs)
        self.batch_rate: list[float] = []
        self.totals_rate: list[float] = []

    def warmup(self) -> None:
        rs.estimate_value(self.inst, self.policy, self.T, 2_000, self._warm_seed)
        rs.estimate_value(self.inst, self.policy, self.T, 20, self._warm_seed, return_totals=True)

    def _gate(self, path: str, mean: float, stderr: float) -> list[str]:
        if abs(mean - self.exact) <= MC_SIGMAS * stderr:
            return []
        return [f"{path} mean {mean!r} is {abs(mean - self.exact) / stderr:.1f} standard "
                f"errors from the exact value {self.exact!r}"]

    def op(self, k: int) -> tuple[float, list[str]]:
        sim_seed = self._inputs[k]
        slots = self.T + 1
        t0 = perf_counter()
        mean_b, se_b = rs.estimate_value(self.inst, self.policy, self.T, self.n_batch, sim_seed)
        t1 = perf_counter()
        mean_t, se_t, _ = rs.estimate_value(self.inst, self.policy, self.T, self.n_totals,
                                            sim_seed, return_totals=True)
        t2 = perf_counter()
        self.batch_rate.append(self.n_batch * slots / (t1 - t0))
        self.totals_rate.append(self.n_totals * slots / (t2 - t1))
        return t2 - t0, self._gate("batch", mean_b, se_b) + self._gate("totals", mean_t, se_t)

    def summary(self) -> list[str]:
        n = len(self.batch_rate)
        return [
            f"sim_batch_traj_slots_per_s {np.median(self.batch_rate):.1f} 1/s "
            f"(median of {n}, {self.n_batch} trajectories x {self.T + 1} slots)",
            f"sim_totals_traj_slots_per_s {np.median(self.totals_rate):.1f} 1/s "
            f"(median of {n}, {self.n_totals} trajectories x {self.T + 1} slots)",
        ]


WORKLOADS = {
    "certify-deep": CertifyDeep,
    "certify-pipeline": CertifyPipeline,
    "simulate-mc": SimulateMC,
}
