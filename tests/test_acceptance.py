"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single summary
line (visible with ``pytest -s`` or on failure).  Tolerances are pinned
here and must not be loosened to make a run pass.
"""

import itertools
import json

import numpy as np
import pytest

import restless_sched as rs
from restless_sched.cli import main as cli_main

from conftest import (
    default_series_terms,
    fosd_ge,
    mlr_ge,
    recursive_avf_frozen,
    series_difference_oracle,
)
from test_dp import brute_force_optimal

GAP_TOL = 1e-9
BOUND_SLACK_TOL = -1e-9
SERIES_TOL = 1e-8
DECOMP_TOL = 1e-9
DP_TOL = 1e-10

DIMS = list(itertools.product((2, 3), (2, 3), (2, 3)))  # (X, Y, N)
HORIZONS = (2, 3, 4)
BETAS = (0.3, 0.5, 0.6)


def _report(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def _sweep_instances(gen, n_instances: int):
    """Cycle dimensions/horizons/betas to cover the whole grid."""
    combos = list(itertools.product(DIMS, HORIZONS, BETAS))
    out = []
    for k in range(n_instances):
        (X, Y, N), T, beta = combos[k % len(combos)]
        params = rs.GeneratorParams(
            x_range=(X, X), y_range=(Y, Y), n_range=(N, N), beta_range=(beta, beta)
        )
        out.append((gen(params, 10_000 + k), T))
    return out


def test_criterion_1_myopic_optimal_regime1():
    worst = 0.0
    cases = _sweep_instances(rs.gen_assumption1_instance, 108)
    agree = all_pass = True
    for inst, T in cases:
        rep = rs.certify_myopic(inst, T)
        worst = max(worst, rep.gap)
        all_pass &= rep.gap <= GAP_TOL
        agree &= rep.argmax_agreement == 1.0
    _report(1, all_pass and agree,
            f"{len(cases)} regime-1 instances, worst gap {worst:.3e}, "
            f"argmax agreement {'100%' if agree else 'incomplete'}")


def test_criterion_2_myopic_optimal_regime2():
    worst = 0.0
    cases = _sweep_instances(rs.gen_assumption2_instance, 108)
    agree = all_pass = True
    for inst, T in cases:
        rep = rs.certify_myopic(inst, T)
        worst = max(worst, rep.gap)
        all_pass &= rep.gap <= GAP_TOL
        agree &= rep.argmax_agreement == 1.0
    _report(2, all_pass and agree,
            f"{len(cases)} regime-2 instances, worst gap {worst:.3e}, "
            f"argmax agreement {'100%' if agree else 'incomplete'}")


def test_criterion_3_bound_suites():
    totals = {}
    violations = 0
    worst_slack = np.inf
    for regime, gen, seeds in (
        (1, rs.gen_assumption1_instance, (0, 1, 2)),
        (2, rs.gen_assumption2_instance, (1000, 1001, 1002)),
    ):
        n = 0
        for seed in seeds:
            inst = gen(rs.GeneratorParams(), seed)
            samples = rs.check_bounds_suite(inst, 350, seed)
            n += len(samples)
            for s in samples:
                worst_slack = min(worst_slack, s.slack_low, s.slack_high)
                if s.verdict != "Pass" or min(s.slack_low, s.slack_high) < BOUND_SLACK_TOL:
                    violations += 1
        totals[regime] = n
    ok = violations == 0 and min(totals.values()) >= 1000
    _report(3, ok,
            f"{totals[1]}+{totals[2]} sampled bound checks, {violations} violations, "
            f"worst slack {worst_slack:.3e}")


def test_criterion_4_series_identity():
    rng = np.random.default_rng(4)
    done = 0
    worst = 0.0
    while done < 1000:
        X = int(rng.integers(2, 4))
        M = rng.uniform(0.05, 1.0, (X, X))
        A = rs.TransitionMatrix(M / M.sum(axis=1, keepdims=True))
        R = rs.RewardVector(np.sort(rng.uniform(0.0, 2.0, X)) + np.arange(X) * 0.01)
        beta = float(rng.uniform(0.1, 0.9))
        try:
            dec = rs.eigendecompose(A)
        except rs.RestlessSchedError:
            continue
        disc = rs.discount_matrices(dec, beta)
        x1 = rs.BeliefVector(rng.dirichlet(np.ones(X)))
        x2 = rs.BeliefVector(rng.dirichlet(np.ones(X)))
        lam2 = max(abs(dec.eigenvalues[1:])) if X > 1 else 0.0
        n_terms = default_series_terms(beta, lam2)
        truncated = series_difference_oracle(R, A, beta, x1, x2, n_terms)
        closed = float(R.values @ disc.Q.T @ (x1.probs - x2.probs))
        worst = max(worst, abs(truncated - closed))
        done += 1
    ok = worst <= SERIES_TOL
    _report(4, ok, f"1000 random instances, worst |series − closed form| {worst:.3e}")


def test_criterion_5_decomposability():
    rng = np.random.default_rng(5)
    worst = 0.0
    done = 0
    while done < 500:
        inst = rs.gen_assumption1_instance(rs.GeneratorParams(), int(rng.integers(0, 10_000)))
        prof = rs.BeliefProfile(inst.initial_beliefs, 0)
        T = int(rng.integers(0, 4))
        u = int(rng.integers(1, inst.n_projects + 1))
        n = int(rng.integers(0, inst.n_projects))
        base = [b.probs.copy() for b in prof.beliefs]
        lhs = recursive_avf_frozen(inst, base, base, 0, T, u - 1)
        rhs = 0.0
        for i in range(inst.n_states):
            sub = [b.copy() for b in base]
            sub[n] = np.eye(inst.n_states)[i]
            rhs += base[n][i] * recursive_avf_frozen(inst, sub, base, 0, T, u - 1)
        worst = max(worst, abs(lhs - rhs))
        done += 1
    ok = worst <= DECOMP_TOL
    _report(5, ok, f"500 tuples, worst decomposition error {worst:.3e}")


def _tilted_pair(rng, dim):
    """Random MLR-ordered pair: x1 >=_r x2 by construction."""
    x2 = rng.dirichlet(np.ones(dim))
    ratios = np.cumprod(np.concatenate([[1.0], rng.uniform(1.0, 3.0, dim - 1)]))
    x1 = x2 * ratios
    x1 /= x1.sum()
    return rs.BeliefVector(x1), rs.BeliefVector(x2)


def test_criterion_6_order_preservation():
    rng = np.random.default_rng(6)
    pool = [(1, rs.gen_assumption1_instance(rs.GeneratorParams(), s)) for s in range(10)]
    pool += [(2, rs.gen_assumption2_instance(rs.GeneratorParams(), 1000 + s)) for s in range(10)]
    counts = {"implication": 0, "propagation": 0, "filter_belief": 0, "filter_obs": 0}
    bad = 0
    for k in range(10_000):
        regime, inst = pool[k % len(pool)]
        X = inst.n_states

        x1, x2 = _tilted_pair(rng, X)
        # MLR implies FOSD.
        if not fosd_ge(x1, x2):
            bad += 1
        counts["implication"] += 1

        # Propagation is order-preserving (ascending rows) or
        # order-reversing (descending rows).
        p1, p2 = rs.propagate(inst.A, x1), rs.propagate(inst.A, x2)
        if not (mlr_ge(p1, p2) if regime == 1 else mlr_ge(p2, p1)):
            bad += 1
        counts["propagation"] += 1

        # Filtering keeps the same direction in the belief argument.
        m = int(rng.integers(1, inst.n_obs + 1))
        f1 = rs.filter_update(inst.A, inst.B, x1, m)
        f2 = rs.filter_update(inst.A, inst.B, x2, m)
        if not (mlr_ge(f1, f2) if regime == 1 else mlr_ge(f2, f1)):
            bad += 1
        counts["filter_belief"] += 1

        # Updates are MLR-monotone in the observation index.  A flat
        # observation matrix (regime 2) yields equal updates, which the
        # ge check accepts.
        fs = [rs.filter_update(inst.A, inst.B, x1, m) for m in range(1, inst.n_obs + 1)]
        for a, b in zip(fs[1:], fs[:-1]):
            if not mlr_ge(a, b):
                bad += 1
                break
        counts["filter_obs"] += 1
    ok = bad == 0
    _report(6, ok, f"4 suites x {counts['implication']} ordered pairs, {bad} violations")


def test_criterion_7_dp_vs_brute_force():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        M = rng.uniform(0.05, 1.0, (2, 2))
        A = M / M.sum(axis=1, keepdims=True)
        M = rng.uniform(0.05, 1.0, (2, 2))
        B = M / M.sum(axis=1, keepdims=True)
        R = np.sort(rng.uniform(0.0, 2.0, 2))
        R[1] += 0.01
        x0 = [rng.dirichlet([1, 1]) for _ in range(2)]
        inst = rs.ModelInstance(2, 2, 2, A, B, R, float(rng.uniform(0.1, 0.9)), x0)
        got, _ = rs.optimal_value(inst, rs.BeliefProfile(inst.initial_beliefs, 0), 0, 2)
        worst = max(worst, abs(got - brute_force_optimal(inst, 2)))
    ok = worst <= DP_TOL
    _report(7, ok, f"20 instances, worst |DP − enumeration| {worst:.3e}")


def test_criterion_8_monte_carlo_consistency():
    hits = 0
    T = 6
    for k in range(20):
        inst = rs.gen_assumption1_instance(rs.GeneratorParams(), 300 + k)
        pol = rs.myopic_policy(inst)
        exact = rs.policy_value(inst, rs.BeliefProfile(inst.initial_beliefs, 0), 0, T, pol)
        mean, stderr = rs.estimate_value(inst, pol, T, 100_000, 40 + k)
        if abs(mean - exact) <= 3.5 * stderr:
            hits += 1
    ok = hits >= 19
    _report(8, ok, f"{hits}/20 estimates within 3.5 standard errors")


def test_criterion_9_cli_determinism(tmp_path):
    inst = rs.gen_assumption1_instance(rs.GeneratorParams(), 2)
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst.to_json_dict()))
    commands = [
        ["validate", str(p)],
        ["spectral", str(p)],
        ["solve", str(p), "--horizon", "3"],
        ["compare", str(p), "--horizon", "3"],
        ["bounds", str(p), "--samples", "50", "--seed", "1"],
        ["simulate", str(p), "--horizon", "4", "--n-traj", "500", "--seed", "2"],
        ["generate", "--regime", "1", "--seed", "3"],
        ["generate", "--regime", "2", "--seed", "3"],
        ["certify-sweep", "--regime", "1", "--seed", "0", "--instances", "8",
         "--horizon", "2"],
    ]
    mismatches = []
    for cmd in commands:
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        cli_main(cmd + ["--out", str(a)])
        cli_main(cmd + ["--out", str(b)])
        if a.read_bytes() != b.read_bytes():
            mismatches.append(cmd[0])
    ok = not mismatches
    _report(9, ok, f"{len(commands)} commands rerun byte-identical"
            + (f"; mismatches: {mismatches}" if mismatches else ""))
