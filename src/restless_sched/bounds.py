"""Sensitivity bounds for the auxiliary value function.

When two belief profiles differ in a single component x^(l) <=_r
x̌^(l), the gap between their auxiliary values is sandwiched by
discounted power sums of R'(A')^i applied to the difference.  Regime 1
(ascending rows) gives the C1-C3 intervals; regime 2 (descending rows)
gives the D1-D3 intervals built from odd/even powers.  The case is
determined by where project l sits relative to the two myopic actions
u (original profile) and u' (raised profile):

    C1/D1: u' = u = l        C2/D2: u' = u != l       C3/D3: u' = l != u

``check_bounds_suite`` first draws and classifies every ordered pair,
keeping the raw profiles in one array, and validates all of them in one
call.  Draws run on Python floats: each costs its generator calls, a
few float operations and one call of the myopic rule.  An instance
whose first and last rows of A have immediate rewards within
``ARGMAX_TOL`` is rejected before any draw: every drawn belief would
then tie on reward, so no raised profile could change the myopic
action.  One batched sweep of the
auxiliary value then covers both profiles of every sample, each valued
up to its own lookahead T, and gives the exact gaps; one interval
table gives the bounds.  The table checks every delta at once,
computes the power terms beta^i R'(A')^i delta of all samples together
(one row per sample, up to the largest lookahead, with the terms past
a sample's own lookahead zeroed) and sums them into the three case
intervals, from which each sample takes its own case.
``lemma2_bounds`` and ``lemma4_bounds`` are the table's one-row case.
The suite reports containment slack per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assumptions import verify_assumption1, verify_assumption2
from .exceptions import IncomparablePairError
from .filtering import propagate_rows
from .policy import ARGMAX_TOL, TreeEvaluator, check_integer, myopic_policy, row_sum
from .types import ModelInstance, valid_belief_rows

#: Containment checked with this additive slack.
SLACK_TOL = 1e-9
#: Bound tests stay exact by capping the lookahead depth.
MAX_LOOKAHEAD = 4


@dataclass(frozen=True)
class BoundSample:
    case: str
    t: int
    T: int
    x_low: np.ndarray
    x_high: np.ndarray
    u: int
    u_prime: int
    delta_w: float
    lower: float
    upper: float
    verdict: str

    @property
    def slack_low(self) -> float:
        return self.delta_w - self.lower

    @property
    def slack_high(self) -> float:
        return self.upper - self.delta_w


def _check_deltas(deltas: np.ndarray) -> None:
    """Reject any row of ``deltas`` (k, X) that is not the difference of
    an MLR-ordered pair of distributions."""
    # NaN passes every comparison below, and inf - inf makes one.
    if not np.isfinite(deltas).all():
        raise ValueError("delta must be finite")
    if (np.abs(deltas.sum(axis=-1)) > 1e-9).any():
        raise ValueError("delta must be a difference of distributions (sum 0)")
    # FOSD tails are a necessary consequence of the MLR precondition.
    if deltas[:, ::-1].cumsum(axis=-1).min() < -1e-9:
        raise ValueError("delta is not the difference of an MLR-ordered pair")


def _power_terms(inst: ModelInstance, deltas: np.ndarray, n_powers: int) -> np.ndarray:
    """terms[k, i] = beta^i R'(A')^i deltas[k] for i = 0..n_powers.

    Both products are stacks of matrix-vector products, so every term
    gets the bits of the one-vector ``float(R @ v)`` and ``A' @ v``;
    ``V @ R`` would round some rows differently.
    """
    k, X = deltas.shape
    powers = np.empty((k, n_powers + 1, 1, X))  # (A')^i delta as a row
    powers[:, 0, 0] = v = deltas
    for i in range(1, n_powers + 1):
        powers[:, i, 0] = v = propagate_rows(inst.A.rows.T, v)
    # beta^i by repeated multiplication, as a running scale would have it.
    scales = np.cumprod([1.0] + [inst.beta] * n_powers)
    return scales * (powers @ inst.R.values[:, None])[..., 0, 0]


def _interval_table(inst: ModelInstance, regime: int, spans, deltas: np.ndarray) -> np.ndarray:
    """Lower and upper bound of cases 1-3 of the regime's lemma for every
    row of ``deltas`` (k, X), row i over T - t = ``spans[i]`` slots (an
    int applies to every row): shape (k, 3, 2).  ``lemma2_bounds`` and
    ``lemma4_bounds`` give the intervals.

    The terms of a row past its own span are +0.0, and every sum adds
    a row's terms left to right from +0.0 (``row_sum``), so each row
    gets the bits of a table of its own span whatever the other rows'
    spans.  Powers 0-2 are always computed, so that every sum has a
    term.
    """
    _check_deltas(deltas)
    spans = np.broadcast_to(spans, len(deltas))
    terms = _power_terms(inst, deltas, max(2, int(spans.max())))
    terms[np.arange(terms.shape[1]) > spans[:, None]] = 0.0
    r_delta = terms[:, 0]
    table = np.empty((len(deltas), 3, 2))
    lower, upper = table[..., 0], table[..., 1]  # columns: cases 1, 2, 3
    if regime == 1:
        lower[:, 0] = r_delta
        lower[:, 1:] = 0.0
        upper[:, 0] = upper[:, 2] = row_sum(terms)
        upper[:, 1] = row_sum(terms[:, 1:])
    else:
        odd = row_sum(terms[:, 1::2])  # powers 1, 3, ..., 2*ceil(span/2)-1
        even = row_sum(terms[:, 2::2])  # powers 2, 4, ..., 2*floor(span/2)
        lower[:, 0] = r_delta + odd
        lower[:, 1:] = odd[:, None]
        upper[:, 0] = upper[:, 2] = r_delta + even
        upper[:, 1] = even
    return table


def _one_delta(inst: ModelInstance, regime: int, t: int, T: int, delta) -> dict:
    """The regime's three case intervals for one delta: the one-row table."""
    if t < 0:
        raise ValueError(f"t={t} is negative")
    if t > T:
        raise ValueError(f"t={t} exceeds horizon T={T}")
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (inst.n_states,):
        raise ValueError(f"delta must have shape ({inst.n_states},), got {delta.shape}")
    table = _interval_table(inst, regime, T - t, delta[None]).tolist()[0]
    prefix = "C" if regime == 1 else "D"
    return {f"{prefix}{case + 1}": tuple(table[case]) for case in range(3)}


def lemma2_bounds(
    inst: ModelInstance, t: int, T: int, delta
) -> dict[str, tuple[float, float]]:
    """Intervals for the three ascending-regime cases.

    ``delta`` is x̌^(l) - x^(l) for an MLR-ordered pair x^(l) <=_r x̌^(l).
    """
    return _one_delta(inst, 1, t, T, delta)


def lemma4_bounds(
    inst: ModelInstance, t: int, T: int, delta
) -> dict[str, tuple[float, float]]:
    """Intervals for the three descending-regime cases.

    Descending rows make A' order-reversing, so the odd-power terms
    beta^(2i-1) R'(A')^(2i-1) delta are nonpositive and the even-power
    terms nonnegative.  The lower bounds add the signed odd sum (up to
    power 2*ceil((T-t)/2)-1), the upper bounds the even sum (up to
    2*floor((T-t)/2)); each is attained by an explicit schedule-l
    pattern (lower: l at t+1, t+3, ...; upper: l at t+2, t+4, ...,
    plus slot t itself for the first and third case), so a sign flip
    here would make the interval empty whenever any odd term is
    nonzero.
    """
    return _one_delta(inst, 2, t, T, delta)


def _detect_regime(inst: ModelInstance) -> int:
    if verify_assumption1(inst).satisfied:
        return 1
    for alt in (True, False):
        if verify_assumption2(inst, alt_clause3=alt).satisfied:
            return 2
    raise ValueError("instance satisfies neither verified regime")


def check_bounds_suite(
    inst: ModelInstance,
    n_samples: int,
    seed: int,
    regime: int | None = None,
) -> list[BoundSample]:
    """Sampled containment check of every case of the relevant lemma.

    First draws every sample, cycling through the three cases: a
    profile on the segment between the extreme rows of A (so every pair
    is MLR-comparable and the chain clause keeps holding), component l
    raised by mixing toward the upper anchor, and the realized (u, u')
    pattern classified by immediate rewards; misclassified draws are
    redrawn.  A draw makes its generator calls (lookahead, N weights,
    the slot l of case 3, the mixing weight alpha), builds both profiles
    on Python floats and classifies them with one ``policy.decide``
    call, the myopic tie rule.  The cases need a second project, a
    second state and extreme rows of A whose immediate rewards differ
    by more than ``ARGMAX_TOL`` (otherwise every drawn belief ties on
    reward), so N = 1, X = 1 and |R'A[0] - R'A[-1]| <= ARGMAX_TOL are
    rejected before any draw.  Then validates every original and raised
    profile in one call (``valid_belief_rows``).
    The profiles of all samples, in draw order, are the roots of one
    sweep of W^u_0, each valued up to its sample's lookahead T, which
    gives each sample's exact gap; nodes of different lookaheads never
    merge, so each gap has the bits of a sweep of that lookahead's
    samples alone.  One interval table gives every sample's bounds.
    Samples are returned in draw order.
    """
    check_integer("n_samples", n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if regime not in (None, 1, 2):
        raise ValueError(f"regime must be None, 1 or 2, got {regime!r}")
    N, X = inst.n_projects, inst.n_states
    if N < 2:
        raise ValueError(f"the bound cases need at least two projects, got N={N}")
    # With one state every belief is the same, so no raised profile can
    # change a decision.
    if X < 2:
        raise ValueError(f"the bound cases need at least two states, got X={X}")
    if regime is None:
        regime = _detect_regime(inst)
    # Profiles are drawn on the segment between these rows, so the
    # reward of every drawn belief lies between theirs; equal rows are
    # the special case of equal rewards.
    spread = float(inst.R.values @ (inst.A.rows[0] - inst.A.rows[-1]))
    if abs(spread) <= ARGMAX_TOL:
        raise ValueError(
            "the bound cases need distinct first and last rows of A whose immediate "
            f"rewards differ by more than {ARGMAX_TOL}"
        )
    rng = np.random.default_rng(seed)
    prefix = "C" if regime == 1 else "D"
    policy = myopic_policy(inst)
    low, high = inst.A.rows[-1].tolist(), inst.A.rows[0].tolist()
    if regime == 1:
        low, high = high, low
    pairs = np.empty((n_samples, 2, N, X))  # the original and raised profile per sample
    draws = np.empty((n_samples, 5), dtype=np.int64)  # (case - 1, T, l, u, u') per sample

    for k in range(n_samples):
        want = k % 3 + 1  # 1 -> C1/D1, 2 -> C2/D2, 3 -> C3/D3
        for _ in range(200):
            T = int(rng.integers(0, MAX_LOOKAHEAD + 1))
            # rng.random(N) draws the bits of rng.uniform(0.0, 1.0, N).
            weights = rng.random(N).tolist()
            # max/min and list.index pick the first extreme, as np.argmax
            # and np.argmin do.
            if want == 1:
                l = weights.index(max(weights))
            elif want == 2:
                l = weights.index(min(weights))
            else:
                # Duplicate the top belief into a higher slot l so the
                # original profile tie-breaks away from l.
                j = weights.index(max(weights))
                if j == N - 1:
                    continue
                l = int(rng.integers(j + 1, N))
                weights[l] = weights[j]
            # Entry by entry the two products and one sum of
            # generate._mixture_rows, so the profiles keep its bits.
            profile = [[(1.0 - w) * a + w * b for a, b in zip(low, high)] for w in weights]
            alpha = rng.uniform(0.02, 0.2) if want == 2 else rng.uniform(0.05, 0.9)
            raised = list(profile)
            raised[l] = [(1 - alpha) * x + alpha * h for x, h in zip(profile[l], high)]
            pairs[k] = profile, raised

            u, u_prime = policy.decide(0, pairs[k]).tolist()
            if u_prime == l and u == l:
                realized = 1
            elif u_prime != l and u != l and u_prime == u:
                realized = 2
            elif u_prime == l and u != l:
                realized = 3
            else:
                continue
            if realized != want:
                continue
            draws[k] = (want - 1, T, l, u, u_prime)
            break
        else:
            raise IncomparablePairError(
                None, None, f"could not realize case {prefix}{want} in 200 draws"
            )

    roots = valid_belief_rows(pairs)
    case, horizon, raised_at, first = draws[:, 0], draws[:, 1], draws[:, 2], draws[:, 3:]
    every = np.arange(n_samples)
    x_low, x_high = pairs[every, 0, raised_at], pairs[every, 1, raised_at]
    w = TreeEvaluator(inst, MAX_LOOKAHEAD).sweep(
        0, roots.reshape(-1, N, X), policy, first.ravel(), horizon.repeat(2)
    )
    delta_w = w[1::2] - w[0::2]
    bounds = _interval_table(inst, regime, horizon, x_high - x_low)[every, case]

    samples = []
    for (c, T, _, u, u_prime), x_lo, x_hi, gap, (lower, upper) in zip(
        draws.tolist(), x_low, x_high, delta_w.tolist(), bounds.tolist()
    ):
        verdict = "Pass" if lower - SLACK_TOL <= gap <= upper + SLACK_TOL else "Fail"
        samples.append(
            BoundSample(
                case=f"{prefix}{c + 1}",
                t=0,
                T=T,
                x_low=x_lo,
                x_high=x_hi,
                u=u + 1,
                u_prime=u_prime + 1,
                delta_w=gap,
                lower=lower,
                upper=upper,
                verdict=verdict,
            )
        )
    return samples
