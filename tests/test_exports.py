"""The package's public names.  ``restless_sched.__all__`` is pinned here,
so that adding or dropping an export is a deliberate edit of this list,
and every name in it must resolve, so that a stale export fails."""

import restless_sched

PUBLIC = [
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


def test_all_is_the_pinned_sorted_list():
    assert restless_sched.__all__ == PUBLIC == sorted(PUBLIC)


def test_every_exported_name_resolves():
    namespace = {}
    exec("from restless_sched import *", namespace)
    assert [name for name in PUBLIC if name not in namespace] == []
