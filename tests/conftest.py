import math
from fractions import Fraction

import numpy as np
import pytest

from restless_sched import GeneratorParams, ModelInstance


@pytest.fixture
def two_state_instance() -> ModelInstance:
    """Hand-checked 2-state, 2-observation, 2-project instance.

    Ascending rows, strongly informative observations; verifies under
    the ascending regime with threshold K=2 at beta=0.5.
    """
    A = np.array([[0.9, 0.1], [0.2, 0.8]])
    B = np.array([[0.99, 0.01], [0.01, 0.99]])
    R = np.array([0.0, 1.0])
    x0 = [np.array([0.6, 0.4]), np.array([0.3, 0.7])]
    return ModelInstance(2, 2, 2, A, B, R, 0.5, x0)


@pytest.fixture
def absorbing_instance() -> ModelInstance:
    """State 1 is absorbing and never emits observation 2, so working a
    project whose belief sits on state 1 has a zero-likelihood branch."""
    A = np.array([[1.0, 0.0], [0.4, 0.6]])
    B = np.array([[1.0, 0.0], [0.3, 0.7]])
    x0 = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
    return ModelInstance(2, 2, 2, A, B, np.array([0.0, 1.0]), 0.9, x0)


@pytest.fixture
def small_params() -> GeneratorParams:
    return GeneratorParams()


def in_order_dot(x, M) -> np.ndarray:
    """``x @ M`` over the last axis of ``x``, for ``M`` of shape (X,) or
    (X, K), in pure Python floats: every entry is x_0 M_0 + x_1 M_1 +
    ..., each product and each sum rounded on its own, left to right
    from the first product.  The references' one product, written here
    and not taken from the package, so that they check
    ``filtering.row_dot`` instead of calling it.  Each distinct row (by
    its bytes) is multiplied once: built levels repeat their rows."""
    x, M = np.asarray(x, dtype=float), np.asarray(M, dtype=float)
    flat = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
    first = inverse = np.arange(len(flat))
    if len(flat) > 1:
        keys = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    cols = M.reshape(len(M), -1).T.tolist()
    out = []
    for row in flat[first].tolist():
        for col in cols:
            total = row[0] * col[0]
            for a, b in zip(row[1:], col[1:]):
                total += a * b
            out.append(total)
    out = np.array(out).reshape(len(first), -1)[inverse.ravel()]
    return out.reshape(x.shape[:-1] + M.shape[1:])


def reference_filter(A: np.ndarray, B: np.ndarray, x: np.ndarray, m0: int):
    """(d(x, m), T(x, m)) of one belief ``x`` on 0-based observation m0
    by scalar numpy arithmetic, apart from the package's batch filter:
    z = A'x, d = B(m)'z, T = B(m) z / d renormalised by its sum.  T is
    None when d is at most 1e-300, an impossible observation."""
    z = in_order_dot(x, A)
    d = float(in_order_dot(z, B[:, m0]))
    if d <= 1e-300:
        return d, None
    out = B[:, m0] * z / d
    return d, out / out.sum()


def exact_stochastic(rows) -> list[list[Fraction]]:
    """Each row of ``rows`` (k, n) as exact fractions, its last entry 1
    minus the others, so that it sums to exactly 1.  Taken as they are,
    float rows can sum to 1 + 5.6e-17, and the exact filter's
    normalisation then splits profiles that the model makes equal."""
    out = []
    for row in np.asarray(rows, dtype=float).tolist():
        head = [Fraction(p) for p in row[:-1]]
        out.append(head + [1 - sum(head)])
    return out


def exact_certificate(inst: ModelInstance, T: int):
    """``certify_myopic`` in exact rational arithmetic, apart from the
    package's floats: a DP over the tree of every action and every
    observation of positive likelihood, each depth's profiles merged
    when exactly equal.  A, B and the initial beliefs are made exactly
    stochastic first (``exact_stochastic``); rewards and beta are the
    floats' exact values.  The myopic action is the lowest index whose
    reward lies within 1e-12 of the largest, as ``ARGMAX_TOL`` rules.

    Returns (optimal value, myopic value, distinct profiles per depth).
    """
    A, B = exact_stochastic(inst.A.rows), exact_stochastic(inst.B.rows)
    R = [Fraction(r) for r in inst.R.values.tolist()]
    beta, tol = Fraction(inst.beta), Fraction(1e-12)
    X, Y = inst.n_states, inst.n_obs
    root = tuple(map(tuple, exact_stochastic([x.probs for x in inst.initial_beliefs])))

    def branches(profile):
        """Per action, (likelihood, child) per observation of positive
        likelihood."""
        propagated = [
            tuple(sum(A[i][j] * x[i] for i in range(X)) for j in range(X)) for x in profile
        ]
        out = []
        for u, z in enumerate(propagated):
            out.append([])
            for m in range(Y):
                joint = [B[i][m] * z[i] for i in range(X)]
                d = sum(joint)
                if d:
                    child = list(propagated)
                    child[u] = tuple(p / d for p in joint)
                    out[-1].append((d, tuple(child)))
        return out

    levels, children = [[root]], {}
    for _ in range(T):
        seen = {}
        for profile in levels[-1]:
            children[profile] = branches(profile)
            for kids in children[profile]:
                seen.update((child, None) for _, child in kids)
        levels.append(list(seen))
    optimal, myopic = {}, {}
    for depth in range(T, -1, -1):
        below = (optimal, myopic)
        optimal, myopic = {}, {}
        for profile in levels[depth]:
            rewards = [sum(r * p for r, p in zip(R, x)) for x in profile]
            u = next(i for i, r in enumerate(rewards) if r >= max(rewards) - tol)
            if depth == T:
                optimal[profile], myopic[profile] = max(rewards), rewards[u]
                continue
            kids = children[profile]
            opt, myo = (
                [r + beta * sum(d * v[c] for d, c in branch) for r, branch in zip(rewards, kids)]
                for v in below
            )
            optimal[profile], myopic[profile] = max(opt), myo[u]
    return optimal[root], myopic[root], tuple(len(level) for level in levels)


def recursive_avf(inst: ModelInstance, beliefs, t: int, T: int, u: int) -> float:
    """W^u_t by direct recursion over observation histories, with no
    memo and no merging: work u (0-based) at slot t, then at every later
    slot the project of largest immediate reward, ties within 1e-12 to
    the lowest index."""
    A, B, R = inst.A.rows, inst.B.rows, inst.R.values
    value = float(in_order_dot(beliefs[u], R))
    if t == T:
        return value
    propagated = [in_order_dot(x, A) for x in beliefs]
    acc = 0.0
    for m in range(inst.n_obs):
        joint = B[:, m] * propagated[u]
        d = joint.sum()
        if d <= 0.0:
            continue
        stepped = list(propagated)
        stepped[u] = joint / d
        rewards = [float(in_order_dot(x, R)) for x in stepped]
        nxt = next(i for i, r in enumerate(rewards) if r >= max(rewards) - 1e-12)
        acc += d * recursive_avf(inst, stepped, t + 1, T, nxt)
    return value + inst.beta * acc


def recursive_avf_frozen(inst: ModelInstance, beliefs, reference, t: int, T: int, u: int) -> float:
    """W^u_t with continuation decisions frozen to ``reference``, by
    direct recursion with no memo: work u (0-based) at slot t; after each
    observation, step the beliefs and the reference alike and work the
    project of largest immediate reward under the stepped reference,
    ties within 1e-12 to the lowest index.  Where the reference makes
    the observation impossible, the stepped beliefs are their own
    reference."""
    A, B, R = inst.A.rows, inst.B.rows, inst.R.values

    def step(profile, m):
        propagated = [in_order_dot(x, A) for x in profile]
        joint = B[:, m] * propagated[u]
        d = joint.sum()
        if d <= 0.0:
            return d, None
        propagated[u] = joint / d
        return d, propagated

    value = float(in_order_dot(beliefs[u], R))
    if t == T:
        return value
    acc = 0.0
    for m in range(inst.n_obs):
        d, stepped = step(beliefs, m)
        if stepped is None:
            continue
        _, ref = step(reference, m)
        if ref is None:
            ref = stepped
        rewards = [float(in_order_dot(x, R)) for x in ref]
        nxt = next(i for i, r in enumerate(rewards) if r >= max(rewards) - 1e-12)
        acc += d * recursive_avf_frozen(inst, stepped, ref, t + 1, T, nxt)
    return value + inst.beta * acc


#: Longest series that ``default_series_terms`` sizes.
SERIES_TERMS_CAP = 10_000
#: Floor on |lambda_2| when sizing a truncated series.
SERIES_EIG_FLOOR = 1e-6


def default_series_terms(beta: float, lam2: float) -> int:
    """Truncation length so the geometric tail falls below 1e-12."""
    base = beta * max(abs(lam2), SERIES_EIG_FLOOR)
    if base <= 0.0:
        return 1
    n = math.ceil(math.log(1e-12) / math.log(base))
    return max(1, min(n, SERIES_TERMS_CAP))


def series_difference_oracle(R, A, beta: float, x1, x2, n_terms: int) -> float:
    """Direct accumulation of R' sum_{i=1..n} (beta A')^i (x1 - x2) for
    a ``RewardVector``, a ``TransitionMatrix`` and two ``BeliefVector``s.

    Brute-force reference that the closed form R' Q' (x1 - x2) is checked
    against; deliberately avoids the eigendecomposition.
    """
    total = 0.0
    v = x1.probs - x2.probs
    for _ in range(n_terms):
        v = beta * in_order_dot(v, A.rows)
        total += float(in_order_dot(v, R.values))
    return total


def lemma_intervals(inst: ModelInstance, T: int, delta, regime: int) -> dict:
    """The case intervals of lemma 2 (regime 1) or lemma 4 (regime 2) at
    t = 0 for one delta, by a loop over the powers: terms[i] = beta^i
    R'(A')^i delta, summed one delta at a time and one term at a time,
    left to right from 0.0."""
    A, R = inst.A.rows, inst.R.values
    delta = np.asarray(delta, dtype=float)
    if abs(delta.sum()) > 1e-9:
        raise ValueError("delta must be a difference of distributions (sum 0)")
    if np.cumsum(delta[::-1])[::-1].min() < -1e-9:
        raise ValueError("delta is not the difference of an MLR-ordered pair")
    terms = np.empty(T + 1)
    v, scale = delta.copy(), 1.0
    for i in range(T + 1):
        terms[i] = scale * float(in_order_dot(v, R))
        v = in_order_dot(v, A)
        scale *= inst.beta
    r_delta = float(terms[0])

    def in_order(powers) -> float:
        total = 0.0
        for term in powers.tolist():
            total += term
        return total

    if regime == 1:
        full, tail = in_order(terms), in_order(terms[1:])
        return {"C1": (r_delta, full), "C2": (0.0, tail), "C3": (0.0, full)}
    odd, even = in_order(terms[1::2]), in_order(terms[2::2])
    return {"D1": (r_delta + odd, r_delta + even), "D2": (odd, even), "D3": (odd, r_delta + even)}


def per_sample_bounds_suite(inst: ModelInstance, n_samples: int, seed: int, regime: int) -> list:
    """``check_bounds_suite`` one candidate at a time: the same rounds of
    array draws from the same generator, but each pending sample's
    candidates built on its own, in order, classified by one
    ``policy.decide`` call on their pair and the three case tests
    spelled out, up to the first accepted one.  Each root is validated
    as a ``BeliefProfile`` of ``BeliefVector``s and each sample's
    intervals come from ``lemma_intervals``.  The gaps come from one
    sweep per lookahead of the validated roots in sample order, which
    the suite's one sweep over all lookaheads must match bit for bit.
    Returns one tuple of every ``BoundSample`` field per sample."""
    from restless_sched import BeliefProfile, BeliefVector
    from restless_sched.bounds import _CANDIDATES, _MAX_DRAWS, MAX_LOOKAHEAD, SLACK_TOL
    from restless_sched.policy import TreeEvaluator, myopic_policy

    rng = np.random.default_rng(seed)
    prefix = "C" if regime == 1 else "D"
    N = inst.n_projects
    policy = myopic_policy(inst)
    low, high = inst.A.rows[-1], inst.A.rows[0]
    if regime == 1:
        low, high = high, low
    draws, roots = [None] * n_samples, [None] * n_samples
    pending, drawn = list(range(n_samples)), 0
    while pending:
        if drawn == _MAX_DRAWS:
            raise AssertionError(f"case {prefix}{pending[0] % 3 + 1} not realized in 200 draws")
        n = min(_CANDIDATES, _MAX_DRAWS - drawn)
        drawn += n
        horizons = rng.integers(0, MAX_LOOKAHEAD + 1, size=(len(pending), n))
        all_weights = rng.random((len(pending), n, N))
        slot_draws = rng.random((len(pending), n))
        alpha_draws = rng.random((len(pending), n))
        for i, k in enumerate(pending):
            want = k % 3 + 1
            for b in range(n):
                T = int(horizons[i, b])
                weights = all_weights[i, b].copy()
                if want == 1:
                    l = int(np.argmax(weights))
                elif want == 2:
                    l = int(np.argmin(weights))
                else:
                    j = int(np.argmax(weights))
                    if j == N - 1:
                        continue
                    l = j + 1 + int(slot_draws[i, b] * (N - 1 - j))
                    weights[l] = weights[j]
                beliefs = [(1 - w) * low + w * high for w in weights]
                lo, hi = (0.02, 0.2) if want == 2 else (0.05, 0.9)
                alpha = lo + (hi - lo) * alpha_draws[i, b]
                raised = (1 - alpha) * beliefs[l] + alpha * high
                raised_profile = list(beliefs)
                raised_profile[l] = raised
                u, u_prime = policy.decide(0, np.array([beliefs, raised_profile])).tolist()
                if u_prime == l and u == l:
                    realized = 1
                elif u_prime != l and u != l and u_prime == u:
                    realized = 2
                elif u_prime == l and u != l:
                    realized = 3
                else:
                    continue
                if realized == want:
                    draws[k] = (f"{prefix}{want}", T, beliefs[l], raised, u, u_prime)
                    roots[k] = [
                        BeliefProfile([BeliefVector(x) for x in p], 0).arrays()
                        for p in (beliefs, raised_profile)
                    ]
                    break
        pending = [k for k in pending if draws[k] is None]
    gaps = [None] * n_samples
    for T in sorted({d[1] for d in draws}):
        picked = [i for i, d in enumerate(draws) if d[1] == T]
        level = np.array([p for i in picked for p in roots[i]])
        first = np.array([u for i in picked for u in draws[i][4:]])
        w = TreeEvaluator(inst, T).sweep(0, level, policy, first)
        for i, gap in zip(picked, (w[1::2] - w[0::2]).tolist()):
            gaps[i] = gap
    out = []
    for (case, T, x_low, x_high, u, u_prime), gap in zip(draws, gaps):
        lower, upper = lemma_intervals(inst, T, x_high - x_low, regime)[case]
        verdict = "Pass" if lower - SLACK_TOL <= gap <= upper + SLACK_TOL else "Fail"
        out.append((case, 0, T, x_low, x_high, u + 1, u_prime + 1, gap, lower, upper, verdict))
    return out


@pytest.fixture
def exact_merges(monkeypatch) -> list:
    """One entry per ``policy._exact_merge`` call: the exact merge that
    ``_group_rows`` falls back to for a sweep's nodes and the DP's table
    rows on a fingerprint collision, and that ranks the DP's children's
    id rows when their packed keys would not fit in 64 bits."""
    import restless_sched.policy as policy_module

    calls = []
    merge = policy_module._exact_merge
    monkeypatch.setattr(policy_module, "_exact_merge", lambda a: calls.append(1) or merge(a))
    return calls


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One void key per leading-axis entry of ``rows``: its entries
    rounded to 12 decimals, -0.0 made 0.0, read as bytes.  Written here
    and not taken from the package, so the references built on it do
    not call the key code they check."""
    flat = np.round(rows.reshape(len(rows), -1), 12) + 0.0
    return flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()


def group_merge(rows: np.ndarray):
    """The rows of ``rows`` (n, ...), each flattened to one key row,
    merged as ``TreeEvaluator.sweep`` merges a level: ``_group_rows``
    on a copy, which it rounds in place, then ``_first_occurrence``.
    Returns each distinct key's first row in order of first occurrence,
    and per row the position of its key among those."""
    from restless_sched.policy import _first_occurrence, _group_rows

    return _first_occurrence(*_group_rows(rows.reshape(len(rows), -1).copy()))


def reference_merge(rows: np.ndarray):
    """``group_merge`` by ``np.unique`` over ``row_keys``: each distinct
    key's first row in order of first occurrence, and per row the
    position of its key."""
    _, first, inverse = np.unique(row_keys(rows), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def reference_expand(ev, level: np.ndarray, actions: np.ndarray):
    """``TreeEvaluator.expand`` as first written, with the arithmetic
    that every report's last bits were pinned to: one action column at
    a time, A'x and the likelihoods by ``in_order_dot``, and each
    filtered row summed by numpy over its contiguous X axis (pairwise
    from 8 terms on)."""
    from restless_sched.filtering import FILTER_SUM_TOL, LIKELIHOOD_FLOOR

    n, K = actions.shape
    rows = np.arange(n)
    propagated = in_order_dot(level, ev.A)
    buf = np.empty((n, K, ev.Y) + level.shape[1:])
    ds = np.empty((n, K, ev.Y))
    for k in range(K):
        a = actions[:, k]
        z = propagated[rows, a]
        d = ds[:, k] = in_order_dot(z, ev.B)
        live = d > LIKELIHOOD_FLOOR
        filtered = ev.B.T * z[:, None, :] / np.where(live, d, 1.0)[:, :, None]
        s = filtered.sum(axis=-1)
        assert not (live & (np.abs(s - 1.0) > FILTER_SUM_TOL)).any()
        child = buf[:, k]
        child[...] = propagated[:, None]
        child[rows, :, a] = filtered / np.where(live, s, 1.0)[:, :, None]
    live = ds > LIKELIHOOD_FLOOR
    parent, column, observation = np.nonzero(live)
    return buf[live], parent, column, observation, ds[live]


def reference_leaves(ev, level: np.ndarray):
    """The leaf level below ``level`` built by ``reference_expand``
    under every action, as the DP valued and counted it before leaves
    were valued from their parents: (optimal, myopic, segment,
    likelihood, observation, count) in expansion order, the values by
    ``in_order_dot`` over the built children and the tie rule, the count
    by ``np.unique`` over their keys."""
    from restless_sched.policy import _greatest_array_index, row_max

    every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
    children, parent, u, obs, d = reference_expand(ev, level, every_action)
    rewards = in_order_dot(children, ev.R)
    myopic = np.take_along_axis(rewards, _greatest_array_index(rewards)[:, None], axis=-1)[:, 0]
    count = len(np.unique(row_keys(children)))
    return row_max(rewards), myopic, parent * ev.N + u, d, obs, count


def segment_backup(rewards, segment, d, next_values, beta):
    """Values of one level, shaped like ``rewards``, without
    ``policy.backup``: child c adds ``d[c] * next_values[c]`` to the flat
    index ``segment[c]`` of ``rewards``, in child order from +0.0
    (``np.bincount``)."""
    acc = np.bincount(segment, weights=d * next_values, minlength=rewards.size)
    return rewards + beta * acc.reshape(rewards.shape)


def reference_sweep(inst: ModelInstance, beliefs, t: int, T: int, policy, first=None) -> float:
    """``TreeEvaluator.sweep`` of one root from slot t to T: each level
    built by ``reference_expand`` under the policy's decisions, or the
    0-based ``first`` action at slot t, merged by ``reference_merge``
    and backed up by ``segment_backup``."""
    from restless_sched.policy import TreeEvaluator

    ev = TreeEvaluator(inst, T)
    rows = np.array((tuple(beliefs),))
    u = None if first is None else np.array([first])
    levels = []
    for depth in range(t, T + 1):
        if u is None:
            u = policy.decide(depth, rows)
        rewards = in_order_dot(rows, ev.R)[np.arange(len(rows)), u]
        if depth == T:
            break
        children, parent, _, _, d = reference_expand(ev, rows, u[:, None])
        kept, inverse = reference_merge(children)
        levels.append((rewards, parent, d, inverse))
        rows, u = children[kept], None
    values = rewards
    for rewards, parent, d, inverse in reversed(levels):
        values = segment_backup(rewards, parent, d, values[inverse], ev.beta)
    return float(values[0])


def reference_solve(inst: ModelInstance, beliefs, t: int, T: int):
    """``dp._solve`` without a node budget, every level built by
    ``reference_expand`` and merged by ``reference_merge``, and the leaf
    level valued and counted by ``reference_leaves``."""
    from restless_sched.dp import ValueReport
    from restless_sched.policy import (
        ARGMAX_TOL, TreeEvaluator, _greatest_array_index, row_max,
    )

    ev = TreeEvaluator(inst, T)
    counts = [0] * (T + 1)
    rows = np.array((tuple(beliefs),))
    sweep = []
    for depth in range(t, T):
        counts[depth] = len(rows)
        if depth + 1 == T:
            optimal, myopic, seg, d, _, counts[T] = reference_leaves(ev, rows)
            sweep.append((in_order_dot(rows, ev.R), seg, d, None))
            break
        every_action = np.broadcast_to(np.arange(ev.N), (len(rows), ev.N))
        children, parent, u, _, d = reference_expand(ev, rows, every_action)
        first, inverse = reference_merge(children)
        sweep.append((in_order_dot(rows, ev.R), parent * ev.N + u, d, inverse))
        rows = children[first]
    else:
        counts[T] = 1
        rewards = in_order_dot(rows, ev.R)
        best = _greatest_array_index(rewards)
        optimal = row_max(rewards)
        myopic = np.take_along_axis(rewards, best[:, None], axis=-1)[:, 0]
    agree = counts[T]
    for rewards, seg, d, inverse in reversed(sweep):
        if inverse is not None:
            optimal, myopic = optimal[inverse], myopic[inverse]
        idx = np.arange(len(rewards))
        values = segment_backup(rewards, seg, d, optimal, ev.beta)
        myo = _greatest_array_index(rewards)
        myopic = segment_backup(rewards, seg, d, myopic, ev.beta)[idx, myo]
        optimal = row_max(values)
        best = _greatest_array_index(values)
        agree += int(np.count_nonzero(values[idx, myo] >= optimal - ARGMAX_TOL))
    opt, myo_value = float(optimal[0]), float(myopic[0])
    return ValueReport(
        optimal_value=opt,
        myopic_value=myo_value,
        gap=opt - myo_value,
        per_depth_node_counts=tuple(counts),
        argmax_agreement=agree / sum(counts),
        best_action=int(best[0]) + 1,
        horizon=T,
    )


def mlr_ge(x1, x2) -> bool:
    """Whether belief x1 >=_r x2, by the package's one MLR predicate,
    ``orders._mlr_witness``."""
    from restless_sched.orders import _mlr_witness

    return _mlr_witness(x1.probs, x2.probs) is None


def fosd_ge(x1, x2) -> bool:
    """Whether belief x1 >=_st x2: no tail sum of x1 falls more than
    ``ORDER_TOL`` below the same tail sum of x2."""
    from restless_sched.orders import ORDER_TOL

    tail1, tail2 = np.cumsum(x1.probs[::-1]), np.cumsum(x2.probs[::-1])
    return bool(np.all(tail1 >= tail2 - ORDER_TOL))


def myopic_pick(profile, R) -> int:
    """The 1-based project the myopic tie rule works on one profile:
    ``policy._greatest_array_index`` of its immediate rewards."""
    from restless_sched.policy import _greatest_array_index

    return int(_greatest_array_index(in_order_dot(np.array((profile.arrays(),)), R.values))[0]) + 1


def obs_likelihood(A, B, x, m: int) -> float:
    """d(x, m): the likelihood of 1-based observation m after working a
    project at belief x, from ``filtering.filter_rows`` on the checked
    one-belief step that ``filter_update`` takes."""
    from restless_sched.filtering import _step, filter_rows

    return float(filter_rows(_step(A, x, B, m), B.rows)[0][0, 0, m - 1])


def same_bits(a, b) -> bool:
    """Whether ``a`` and ``b`` hold the same dtype and bytes."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def report_bits(report) -> dict:
    """Every field of a ``ValueReport``, floats as their exact hex form."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.to_json_dict().items()}


def dirichlet_instance(seed: int, N: int, X: int, Y: int) -> ModelInstance:
    """Random instance: Dirichlet rows of A and B and beliefs, sorted
    uniform rewards, beta uniform in [0.5, 0.95]."""
    rng = np.random.default_rng(seed)
    A = rng.dirichlet(np.ones(X), X)
    B = rng.dirichlet(np.ones(Y), X)
    R = np.sort(rng.uniform(0.0, 1.0, X))
    beta = rng.uniform(0.5, 0.95)
    return ModelInstance(N, X, Y, A, B, R, beta, rng.dirichlet(np.ones(X), N))


def random_simplex(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.dirichlet(np.ones(dim))


def random_stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    M = rng.uniform(0.05, 1.0, (rows, cols))
    return M / M.sum(axis=1, keepdims=True)
