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
call.  It draws in rounds of arrays: each round gives every sample not
yet realized ``_CANDIDATES`` candidate pairs, classifies all of them
with one call of the myopic rule, and each sample keeps its first
candidate of the wanted case.  Every candidate makes the same draws in
a fixed order whatever its case, so a round's draws depend on how many
samples are left and on N, never on how its candidates classify.  An
instance whose first and last rows of A have immediate rewards within
``ARGMAX_TOL`` is rejected before any draw: every drawn belief would
then tie on reward, so no raised profile could change the myopic
action.  One batched sweep of the auxiliary value then covers both
profiles of every sample, each valued up to its own lookahead T, and
gives the exact gaps; one interval table gives the bounds.  The table checks every delta at once,
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
from .filtering import row_dot, row_sum
from .policy import ARGMAX_TOL, TreeEvaluator, myopic_policy
from .types import ModelInstance, check_integer, check_seed, valid_belief_rows

#: Containment checked with this additive slack.
SLACK_TOL = 1e-9
#: Bound tests stay exact by capping the lookahead depth.
MAX_LOOKAHEAD = 4
#: Candidates each unrealized sample draws per round of the suite.
_CANDIDATES = 8
#: Candidates a sample may draw before its case counts as unrealizable.
_MAX_DRAWS = 200


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
    """terms[k, i] = beta^i R'(A')^i deltas[k] for i = 0..n_powers, every
    product by ``row_dot``."""
    powers = np.empty((n_powers + 1,) + deltas.shape)  # (A')^i delta per row
    powers[0] = deltas
    for i in range(1, n_powers + 1):
        powers[i] = row_dot(powers[i - 1], inst.A.rows)
    # beta^i by repeated multiplication, as a running scale would have it.
    scales = np.cumprod([1.0] + [inst.beta] * n_powers)
    return scales * row_dot(powers, inst.R.values).T


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
    """The regime's three case intervals for one delta: the one-row table.
    A slot or horizon that is not an integer raises ``TypeError``."""
    check_integer("t", t)
    check_integer("T", T)
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


def _draw_candidates(rng: np.random.Generator, want: np.ndarray, n: int, N: int, low, high):
    """One round of the suite's draws: ``n`` candidates for each sample
    whose target case is ``want`` (P,).  A candidate is a profile of N
    beliefs on the segment between ``low`` and ``high`` and the same
    profile with the belief in slot l raised toward ``high``.

    Each candidate makes every draw whatever its case, as arrays over
    all candidates in this order: its lookahead, its N mixing weights,
    one uniform for the slot l of case 3 and one for the raising weight
    alpha.  Case 1 raises the top weight and case 2 the bottom one (the
    first, as ``argmax`` and ``argmin`` pick).  Case 3 copies the top
    weight into a slot l above it, uniform over those slots, so that
    the original profile tie-breaks away from l; with the top weight in
    the last slot there is none, and the candidate is not ``ok``.
    Returns the (P, n) lookaheads and slots l, the (P, n, 2, N, X)
    original and raised profiles and the (P, n) ``ok`` mask.
    """
    shape = (len(want), n)
    horizon = rng.integers(0, MAX_LOOKAHEAD + 1, size=shape)
    weights = rng.random(shape + (N,))
    slot_u, alpha_u = rng.random(shape), rng.random(shape)
    want = want[:, None]
    top = weights.argmax(axis=-1)
    above = np.minimum(top + 1 + (slot_u * (N - 1 - top)).astype(np.int64), N - 1)
    slot = np.where(want == 1, top, np.where(want == 2, weights.argmin(axis=-1), above))
    at = np.arange(N) == slot[..., None]
    top_weight = np.take_along_axis(weights, top[..., None], axis=-1)
    np.copyto(weights, top_weight, where=at & (want == 3)[..., None])
    # Entry by entry the two products and one sum of
    # generate._mixture_rows, as one belief at a time would have them.
    profile = (1.0 - weights)[..., None] * low + weights[..., None] * high
    lo, hi = np.where(want == 2, 0.02, 0.05), np.where(want == 2, 0.2, 0.9)
    alpha = (lo + (hi - lo) * alpha_u)[..., None, None]
    raised = np.where(at[..., None], (1 - alpha) * profile + alpha * high, profile)
    return horizon, slot, np.stack((profile, raised), axis=2), (want != 3) | (top < N - 1)


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
    redrawn.  The draws come in rounds: each round draws
    ``_CANDIDATES`` candidates for every sample still unrealized, in
    sample order, as arrays in a fixed order (lookaheads, N weights per
    candidate, one uniform per candidate for the slot l of case 3 and
    one for the mixing weight alpha; ``_draw_candidates``), whatever
    each candidate's case.  One ``policy.decide`` call, the myopic tie
    rule, classifies the round's original and raised profiles, and
    each sample takes its first candidate of its case; a sample with
    none goes on to the next round, and one still unrealized after
    ``_MAX_DRAWS`` (200) candidates raises ``IncomparablePairError``.
    The stream so depends on ``n_samples``: a shorter suite is not a
    prefix of a longer one.  The cases need a second project, a
    second state and extreme rows of A whose immediate rewards differ
    by more than ``ARGMAX_TOL`` (otherwise every drawn belief ties on
    reward), so N = 1, X = 1 and |R'A[0] - R'A[-1]| <= ARGMAX_TOL are
    rejected before any draw.  Then validates every original and raised
    profile in one call (``valid_belief_rows``).
    The profiles of all samples, in sample order, are the roots of one
    sweep of W^u_0, each valued up to its sample's lookahead T, which
    gives each sample's exact gap; the sweep merges no nodes, so each
    gap has the bits of a sweep of that sample's two profiles alone.
    One interval table gives every sample's bounds.
    Samples are returned in sample order.
    """
    check_integer("n_samples", n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    check_seed(seed)
    if regime is not None:
        check_integer("regime", regime)
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
    spread = float(row_dot(inst.A.rows[0] - inst.A.rows[-1], inst.R.values))
    if abs(spread) <= ARGMAX_TOL:
        raise ValueError(
            "the bound cases need distinct first and last rows of A whose immediate "
            f"rewards differ by more than {ARGMAX_TOL}"
        )
    rng = np.random.default_rng(seed)
    prefix = "C" if regime == 1 else "D"
    policy = myopic_policy(inst)
    low, high = inst.A.rows[-1], inst.A.rows[0]
    if regime == 1:
        low, high = high, low
    pairs = np.empty((n_samples, 2, N, X))  # the original and raised profile per sample
    draws = np.empty((n_samples, 5), dtype=np.int64)  # (case - 1, T, l, u, u') per sample
    pending = np.arange(n_samples)  # unrealized samples, in sample order
    drawn = 0  # candidates each pending sample has drawn
    while pending.size:
        if drawn == _MAX_DRAWS:
            raise IncomparablePairError(
                None, None,
                f"could not realize case {prefix}{pending[0] % 3 + 1} in {_MAX_DRAWS} draws",
            )
        n = min(_CANDIDATES, _MAX_DRAWS - drawn)
        drawn += n
        want = pending % 3 + 1  # 1 -> C1/D1, 2 -> C2/D2, 3 -> C3/D3
        horizon, slot, candidates, ok = _draw_candidates(rng, want, n, N, low, high)
        u = policy.decide(0, candidates.reshape(-1, N, X)).reshape(len(pending), n, 2)
        # u' = u is case 1 if u' = l and case 2 if not; u' != u is case 3
        # if u' = l, and no case if not.
        prime_at_l, same = u[..., 1] == slot, u[..., 0] == u[..., 1]
        accepted = ok & (np.where(same, 2 - prime_at_l, 3 * prime_at_l) == want[:, None])
        hit = accepted.any(axis=1)
        pick = accepted.argmax(axis=1)[hit]  # each sample's first accepted candidate
        k = pending[hit]
        pairs[k] = candidates[hit, pick]
        draws[k] = np.column_stack(
            (want[hit] - 1, horizon[hit, pick], slot[hit, pick], u[hit, pick])
        )
        pending = pending[~hit]

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
