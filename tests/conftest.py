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


def reference_filter(A: np.ndarray, B: np.ndarray, x: np.ndarray, m0: int):
    """(d(x, m), T(x, m)) of one belief ``x`` on 0-based observation m0
    by scalar numpy arithmetic, apart from the package's batch filter:
    z = A'x, d = B(m)'z, T = B(m) z / d renormalised by its sum.  T is
    None when d is at most 1e-300, an impossible observation."""
    z = A.T @ x
    d = float(B[:, m0] @ z)
    if d <= 1e-300:
        return d, None
    out = B[:, m0] * z / d
    return d, out / out.sum()


def recursive_avf(inst: ModelInstance, beliefs, t: int, T: int, u: int) -> float:
    """W^u_t by direct recursion over observation histories, with no
    memo and no merging: work u (0-based) at slot t, then at every later
    slot the project of largest immediate reward, ties within 1e-12 to
    the lowest index."""
    A, B, R = inst.A.rows, inst.B.rows, inst.R.values
    value = float(R @ beliefs[u])
    if t == T:
        return value
    propagated = [A.T @ x for x in beliefs]
    acc = 0.0
    for m in range(inst.n_obs):
        joint = B[:, m] * propagated[u]
        d = joint.sum()
        if d <= 0.0:
            continue
        stepped = list(propagated)
        stepped[u] = joint / d
        rewards = [float(R @ x) for x in stepped]
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
        propagated = [A.T @ x for x in profile]
        joint = B[:, m] * propagated[u]
        d = joint.sum()
        if d <= 0.0:
            return d, None
        propagated[u] = joint / d
        return d, propagated

    value = float(R @ beliefs[u])
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
        rewards = [float(R @ x) for x in ref]
        nxt = next(i for i, r in enumerate(rewards) if r >= max(rewards) - 1e-12)
        acc += d * recursive_avf_frozen(inst, stepped, ref, t + 1, T, nxt)
    return value + inst.beta * acc


def lemma_intervals(inst: ModelInstance, T: int, delta, regime: int) -> dict:
    """The case intervals of lemma 2 (regime 1) or lemma 4 (regime 2) at
    t = 0 for one delta, by a loop over the powers: terms[i] = beta^i
    R'(A')^i delta, summed one delta at a time and one term at a time,
    left to right from 0.0."""
    A_T, R = inst.A.rows.T, inst.R.values
    delta = np.asarray(delta, dtype=float)
    if abs(delta.sum()) > 1e-9:
        raise ValueError("delta must be a difference of distributions (sum 0)")
    if np.cumsum(delta[::-1])[::-1].min() < -1e-9:
        raise ValueError("delta is not the difference of an MLR-ordered pair")
    terms = np.empty(T + 1)
    v, scale = delta.copy(), 1.0
    for i in range(T + 1):
        terms[i] = scale * float(R @ v)
        v = A_T @ v
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
    """``check_bounds_suite`` one sample at a time: the same draws from
    the same generator, each root validated as a ``BeliefProfile`` of
    ``BeliefVector``s and each sample's intervals from
    ``lemma_intervals``.  The gaps come from one sweep per lookahead of
    the validated roots in draw order, which the suite's one sweep over
    all lookaheads must match bit for bit.  Returns one tuple of every
    ``BoundSample`` field per sample."""
    from restless_sched import BeliefProfile, BeliefVector
    from restless_sched.bounds import MAX_LOOKAHEAD, SLACK_TOL
    from restless_sched.policy import TreeEvaluator, myopic_policy

    rng = np.random.default_rng(seed)
    prefix = "C" if regime == 1 else "D"
    N = inst.n_projects
    policy = myopic_policy(inst)
    low, high = inst.A.rows[-1], inst.A.rows[0]
    if regime == 1:
        low, high = high, low
    draws, roots = [], []
    for k in range(n_samples):
        want = k % 3 + 1
        for _ in range(200):
            T = int(rng.integers(0, MAX_LOOKAHEAD + 1))
            weights = rng.uniform(0.0, 1.0, N)
            if want == 1:
                l = int(np.argmax(weights))
            elif want == 2:
                l = int(np.argmin(weights))
            else:
                j = int(np.argmax(weights))
                if j == N - 1:
                    continue
                l = int(rng.integers(j + 1, N))
                weights[l] = weights[j]
            beliefs = [(1 - w) * low + w * high for w in weights]
            alpha = rng.uniform(0.02, 0.2) if want == 2 else rng.uniform(0.05, 0.9)
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
                break
        else:
            raise AssertionError(f"case {prefix}{want} not realized in 200 draws")
        profiles = [BeliefProfile([BeliefVector(b) for b in p], 0) for p in (beliefs, raised_profile)]
        draws.append((f"{prefix}{want}", T, beliefs[l], raised, u, u_prime))
        roots.append([p.arrays() for p in profiles])
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
    ``_fingerprint_runs`` falls back to for ``distinct_nodes`` and the
    leaf count."""
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


def reference_merge(rows: np.ndarray):
    """``distinct_nodes`` by ``np.unique`` over ``row_keys``: each
    distinct key's first row in order of first occurrence, and per row
    the position of its key."""
    _, first, inverse = np.unique(row_keys(rows), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def reference_expand(ev, level: np.ndarray, actions: np.ndarray):
    """``TreeEvaluator.expand`` as first written, with the arithmetic
    that every report's last bits were pinned to: one action column at
    a time, the stacked A'x, one (n, X) @ (X, Y) likelihood product per
    column, and each filtered row summed by numpy over its contiguous X
    axis (pairwise from 8 terms on)."""
    from restless_sched.filtering import FILTER_SUM_TOL, LIKELIHOOD_FLOOR

    n, K = actions.shape
    rows = np.arange(n)
    propagated = (ev.A_T @ level[..., None])[..., 0]
    buf = np.empty((n, K, ev.Y) + level.shape[1:])
    ds = np.empty((n, K, ev.Y))
    for k in range(K):
        a = actions[:, k]
        z = propagated[rows, a]
        d = ds[:, k] = z @ ev.B
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
    ``np.dot`` over the built children and the tie rule, the count by
    ``np.unique`` over their keys."""
    from restless_sched.policy import _greatest_array_index, row_max

    every_action = np.broadcast_to(np.arange(ev.N), (len(level), ev.N))
    children, parent, u, obs, d = reference_expand(ev, level, every_action)
    rewards = np.dot(children, ev.R)
    myopic = np.take_along_axis(rewards, _greatest_array_index(rewards)[:, None], axis=-1)[:, 0]
    count = len(np.unique(row_keys(children)))
    return row_max(rewards), myopic, parent * ev.N + u, d, obs, count


def reference_solve(inst: ModelInstance, beliefs, t: int, T: int):
    """``dp._solve`` without a node budget, every level built by
    ``reference_expand`` and the leaf level valued and counted by
    ``reference_leaves``."""
    from restless_sched.dp import ValueReport
    from restless_sched.policy import (
        ARGMAX_TOL, TreeEvaluator, _greatest_array_index, backup, distinct_nodes, row_max,
    )

    ev = TreeEvaluator(inst, T)
    counts = [0] * (T + 1)
    rows = np.array((tuple(beliefs),))
    sweep = []
    for depth in range(t, T):
        counts[depth] = len(rows)
        if depth + 1 == T:
            optimal, myopic, seg, d, _, counts[T] = reference_leaves(ev, rows)
            sweep.append((np.dot(rows, ev.R), seg, d, None))
            break
        every_action = np.broadcast_to(np.arange(ev.N), (len(rows), ev.N))
        children, parent, u, _, d = reference_expand(ev, rows, every_action)
        first, inverse = distinct_nodes(children)
        sweep.append((np.dot(rows, ev.R), parent * ev.N + u, d, inverse))
        rows = children[first]
    else:
        counts[T] = 1
        rewards = np.dot(rows, ev.R)
        best = _greatest_array_index(rewards)
        optimal = row_max(rewards)
        myopic = np.take_along_axis(rewards, best[:, None], axis=-1)[:, 0]
    agree = counts[T]
    for rewards, seg, d, inverse in reversed(sweep):
        if inverse is not None:
            optimal, myopic = optimal[inverse], myopic[inverse]
        idx = np.arange(len(rewards))
        values = backup(rewards, seg, d, optimal, ev.beta)
        myo = _greatest_array_index(rewards)
        myopic = backup(rewards, seg, d, myopic, ev.beta)[idx, myo]
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
