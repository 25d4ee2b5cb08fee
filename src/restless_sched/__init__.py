"""Belief-state scheduling of restless projects under noisy observation.

The package certifies, numerically, when the greedy (myopic) rule that
always works the reward-greatest (under the assumptions, the
likelihood-ratio-best) project is exactly optimal for
a finite-horizon discounted objective: two verifiable assumption
regimes, an exact DP oracle, sensitivity bounds on the auxiliary value
function, an instance generator, and a Monte Carlo cross-check.
"""

__version__ = "0.1.0"

from .assumptions import (
    AssumptionReport,
    ClauseResult,
    find_threshold_K,
    verify_assumption1,
    verify_assumption2,
)
from .bounds import BoundSample, check_bounds_suite, lemma2_bounds, lemma4_bounds
from .dp import ValueReport, certify_myopic, optimal_value
from .exceptions import (
    CannotViolateError,
    ComplexSpectrumError,
    DimensionMismatchError,
    GenerationExhaustedError,
    ImpossibleObservationError,
    IncomparablePairError,
    InvalidBeliefError,
    NodeBudgetExceededError,
    NonDiagonalizableError,
    RestlessSchedError,
)
from .filtering import BeliefProfile, filter_update, propagate, step_profile
from .generate import (
    GeneratorParams,
    gen_assumption1_instance,
    gen_assumption2_instance,
    perturb_violate,
)
from .orders import sort_by_mlr
from .policy import (
    PolicyRule,
    avf_evaluate,
    myopic_policy,
    policy_value,
    round_robin_policy,
    seeded_random_policy,
    stay_policy,
)
from .simulate import estimate_value
from .spectral import (
    DiscountMatrices,
    SpectralDecomposition,
    discount_matrices,
    eigendecompose,
    reward_separation_check,
)
from .types import (
    BeliefVector,
    ModelInstance,
    ObservationMatrix,
    RewardVector,
    TransitionMatrix,
    ValidationReport,
    validate_instance,
)

__all__ = [
    "AssumptionReport",
    "BeliefProfile",
    "BeliefVector",
    "BoundSample",
    "CannotViolateError",
    "ClauseResult",
    "ComplexSpectrumError",
    "DimensionMismatchError",
    "DiscountMatrices",
    "GenerationExhaustedError",
    "GeneratorParams",
    "ImpossibleObservationError",
    "IncomparablePairError",
    "InvalidBeliefError",
    "ModelInstance",
    "NodeBudgetExceededError",
    "NonDiagonalizableError",
    "ObservationMatrix",
    "PolicyRule",
    "RestlessSchedError",
    "RewardVector",
    "SpectralDecomposition",
    "TransitionMatrix",
    "ValidationReport",
    "ValueReport",
    "avf_evaluate",
    "certify_myopic",
    "check_bounds_suite",
    "discount_matrices",
    "eigendecompose",
    "estimate_value",
    "filter_update",
    "find_threshold_K",
    "gen_assumption1_instance",
    "gen_assumption2_instance",
    "lemma2_bounds",
    "lemma4_bounds",
    "myopic_policy",
    "optimal_value",
    "perturb_violate",
    "policy_value",
    "propagate",
    "reward_separation_check",
    "round_robin_policy",
    "seeded_random_policy",
    "sort_by_mlr",
    "stay_policy",
    "step_profile",
    "validate_instance",
    "verify_assumption1",
    "verify_assumption2",
]
