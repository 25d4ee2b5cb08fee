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
then measures the gaps exactly: one batched sweep of the auxiliary
value per lookahead T covers both profiles of every sample with that T.
It reports containment slack per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assumptions import verify_assumption1, verify_assumption2
from .exceptions import IncomparablePairError
from .filtering import BeliefProfile
from .policy import TreeEvaluator, myopic_policy
from .types import BeliefVector, ModelInstance

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


def _check_delta(delta: np.ndarray, dim: int) -> np.ndarray:
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (dim,):
        raise ValueError(f"delta must have shape ({dim},), got {delta.shape}")
    if abs(delta.sum()) > 1e-9:
        raise ValueError("delta must be a difference of distributions (sum 0)")
    # FOSD tails are a necessary consequence of the MLR precondition.
    tails = np.cumsum(delta[::-1])[::-1]
    if tails.min() < -1e-9:
        raise ValueError("delta is not the difference of an MLR-ordered pair")
    return delta


def _power_terms(inst: ModelInstance, delta: np.ndarray, n_powers: int) -> np.ndarray:
    """terms[i] = beta^i R'(A')^i delta for i = 0..n_powers."""
    A_T = inst.A.rows.T
    R = inst.R.values
    terms = np.empty(n_powers + 1)
    v = delta.copy()
    scale = 1.0
    for i in range(n_powers + 1):
        terms[i] = scale * float(R @ v)
        v = A_T @ v
        scale *= inst.beta
    return terms


def lemma2_bounds(
    inst: ModelInstance, t: int, T: int, delta
) -> dict[str, tuple[float, float]]:
    """Intervals for the three ascending-regime cases.

    ``delta`` is x̌^(l) - x^(l) for an MLR-ordered pair x^(l) <=_r x̌^(l).
    """
    if t < 0:
        raise ValueError(f"t={t} is negative")
    if t > T:
        raise ValueError(f"t={t} exceeds horizon T={T}")
    delta = _check_delta(delta, inst.n_states)
    terms = _power_terms(inst, delta, T - t)
    full = float(terms.sum())
    tail = float(terms[1:].sum())
    r_delta = float(terms[0])
    return {
        "C1": (r_delta, full),
        "C2": (0.0, tail),
        "C3": (0.0, full),
    }


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
    if t < 0:
        raise ValueError(f"t={t} is negative")
    if t > T:
        raise ValueError(f"t={t} exceeds horizon T={T}")
    delta = _check_delta(delta, inst.n_states)
    span = T - t
    terms = _power_terms(inst, delta, span)
    r_delta = float(terms[0])
    odd = float(terms[1::2].sum())  # powers 1, 3, ..., 2*ceil(span/2)-1
    even = float(terms[2::2].sum())  # powers 2, 4, ..., 2*floor(span/2)
    return {
        "D1": (r_delta + odd, r_delta + even),
        "D2": (odd, even),
        "D3": (odd, r_delta + even),
    }


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
    redrawn.  Then evaluates per lookahead T: the validated original and
    raised profiles of every sample with that T are the roots of one
    sweep of W^u_0, which gives each sample's exact gap.  Samples are
    returned in draw order.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if regime not in (None, 1, 2):
        raise ValueError(f"regime must be None, 1 or 2, got {regime!r}")
    rng = np.random.default_rng(seed)
    if regime is None:
        regime = _detect_regime(inst)
    prefix = "C" if regime == 1 else "D"
    bound_fn = lemma2_bounds if regime == 1 else lemma4_bounds
    N = inst.n_projects
    policy = myopic_policy(inst)
    low, high = inst.A.rows[-1], inst.A.rows[0]
    if regime == 1:
        low, high = high, low
    draws = []  # (case, T, x_low, x_high, u, u') per sample, in draw order
    roots = []  # the validated original and raised profile per sample

    for k in range(n_samples):
        want = k % 3 + 1  # 1 -> C1/D1, 2 -> C2/D2, 3 -> C3/D3
        for _ in range(200):
            T = int(rng.integers(0, MAX_LOOKAHEAD + 1))
            weights = rng.uniform(0.0, 1.0, N)
            if want == 1:
                l = int(np.argmax(weights))
            elif want == 2:
                l = int(np.argmin(weights))
            else:
                # Duplicate the top belief into a higher slot l so the
                # original profile tie-breaks away from l.
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
            if realized != want:
                continue

            profile = BeliefProfile([BeliefVector(b) for b in beliefs], 0)
            profile_hi = BeliefProfile([BeliefVector(b) for b in raised_profile], 0)
            draws.append((f"{prefix}{want}", T, beliefs[l], raised, u, u_prime))
            roots.append((profile.arrays(), profile_hi.arrays()))
            break
        else:
            raise IncomparablePairError(
                None, None, f"could not realize case {prefix}{want} in 200 draws"
            )

    delta_w = np.empty(len(draws))
    for T in sorted({draw[1] for draw in draws}):
        picked = [i for i, draw in enumerate(draws) if draw[1] == T]
        level = np.array([profile for i in picked for profile in roots[i]])
        first = np.array([u for i in picked for u in draws[i][4:]])
        w = TreeEvaluator(inst, T).sweep(0, level, policy, first)
        delta_w[picked] = w[1::2] - w[0::2]

    samples = []
    for (case, T, x_low, x_high, u, u_prime), gap in zip(draws, delta_w.tolist()):
        lower, upper = bound_fn(inst, 0, T, x_high - x_low)[case]
        verdict = "Pass" if lower - SLACK_TOL <= gap <= upper + SLACK_TOL else "Fail"
        samples.append(
            BoundSample(
                case=case,
                t=0,
                T=T,
                x_low=x_low,
                x_high=x_high,
                u=u + 1,
                u_prime=u_prime + 1,
                delta_w=gap,
                lower=lower,
                upper=upper,
                verdict=verdict,
            )
        )
    return samples
