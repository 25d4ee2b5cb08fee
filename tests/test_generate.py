import numpy as np
import pytest

from restless_sched import (
    CannotViolateError,
    GenerationExhaustedError,
    GeneratorParams,
    gen_assumption1_instance,
    gen_assumption2_instance,
    perturb_violate,
    validate_instance,
    verify_assumption1,
    verify_assumption2,
)


class TestGeneratorParams:
    def test_defaults_valid(self):
        GeneratorParams()

    def test_bad_range(self):
        with pytest.raises(ValueError):
            GeneratorParams(x_range=(3, 2))
        with pytest.raises(ValueError):
            GeneratorParams(beta_range=(0.5, 1.0))
        with pytest.raises(ValueError):
            GeneratorParams(max_attempts=0)

    @pytest.mark.parametrize("field, value", [
        ("max_attempts", True), ("max_attempts", 2.5),
        ("x_range", (2.5, 3)), ("y_range", (2, 3.0)), ("n_range", (True, 3)),
    ])
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(TypeError, match=field):
            GeneratorParams(**{field: value})

    def test_numpy_integers_accepted(self):
        GeneratorParams(x_range=(np.int64(2), np.int64(3)), max_attempts=np.int32(5))


class TestGenAssumption1:
    def test_emitted_instances_reverify(self, small_params):
        for seed in range(10):
            inst = gen_assumption1_instance(small_params, seed)
            assert verify_assumption1(inst).satisfied
            assert validate_instance(inst).ok

    def test_seed_determinism(self, small_params):
        a = gen_assumption1_instance(small_params, 5)
        b = gen_assumption1_instance(small_params, 5)
        assert np.array_equal(a.A.rows, b.A.rows)
        assert np.array_equal(a.B.rows, b.B.rows)
        assert a.beta == b.beta

    def test_distinct_seeds_distinct_instances(self, small_params):
        seen = set()
        for seed in range(30):
            inst = gen_assumption1_instance(small_params, seed)
            seen.add(inst.A.rows.tobytes())
        assert len(seen) >= 29

    def test_exhaustion(self):
        # One attempt with a hostile beta range: separation almost never
        # holds at beta ~ 0.999.
        params = GeneratorParams(beta_range=(0.998, 0.999), max_attempts=1)
        with pytest.raises(GenerationExhaustedError) as ei:
            gen_assumption1_instance(params, 0)
        assert ei.value.attempts == 1
        assert "clause" in str(ei.value)


class TestGenAssumption2:
    def test_emitted_instances_reverify(self, small_params):
        for seed in range(10):
            inst = gen_assumption2_instance(small_params, 200 + seed)
            assert verify_assumption2(inst, alt_clause3=True).satisfied
            assert validate_instance(inst).ok

    def test_rows_descending(self, small_params):
        from restless_sched.orders import chain_break

        inst = gen_assumption2_instance(small_params, 201)
        assert chain_break(inst.A.rows, descending=True) is None

    def test_seed_determinism(self, small_params):
        a = gen_assumption2_instance(small_params, 7)
        b = gen_assumption2_instance(small_params, 7)
        assert np.array_equal(a.A.rows, b.A.rows)


class TestPerturbViolate:
    @pytest.mark.parametrize("clause", ["1.1", "1.2", "1.3", "1.4", "1.5"])
    def test_regime1_clauses(self, small_params, clause):
        inst = gen_assumption1_instance(small_params, 4)
        try:
            broken = perturb_violate(inst, clause, seed=0)
        except CannotViolateError:
            pytest.skip(f"clause {clause} not violable at these dimensions")
        rep = verify_assumption1(broken)
        assert not rep.satisfied
        failed = {c.clause for c in rep.clause_results if not c.passed}
        assert clause in failed
        assert validate_instance(broken).ok

    @pytest.mark.parametrize("clause", ["2.1", "2.2", "2.3", "2.4", "2.5"])
    def test_regime2_clauses(self, small_params, clause):
        inst = gen_assumption2_instance(small_params, 1004)
        try:
            broken = perturb_violate(inst, clause, seed=0)
        except CannotViolateError:
            pytest.skip(f"clause {clause} not violable at these dimensions")
        rep = verify_assumption2(broken, alt_clause3=True)
        failed = {c.clause for c in rep.clause_results if not c.passed}
        assert clause in failed
        assert validate_instance(broken).ok

    def test_separation_margin_goes_negative(self, small_params):
        from restless_sched import discount_matrices, eigendecompose, reward_separation_check

        inst = gen_assumption1_instance(small_params, 4)
        broken = perturb_violate(inst, "1.5", seed=0)
        dec = eigendecompose(broken.A)
        disc = discount_matrices(dec, broken.beta)
        rep = reward_separation_check(broken.R, disc.Q)
        assert not rep.passed
        assert rep.margins.min() < 0

    def test_bad_clause_id(self, small_params):
        inst = gen_assumption1_instance(small_params, 4)
        with pytest.raises(ValueError):
            perturb_violate(inst, "3.1", seed=0)


class TestSeedChecks:
    """Each entry point rejects a seed that is not a nonnegative integer
    with an error that names it; unchecked, True ran as seed 1 and the
    others failed inside numpy with messages that name no argument."""

    @staticmethod
    def calls(small_params):
        inst = gen_assumption1_instance(small_params, 4)
        return [
            lambda seed: gen_assumption1_instance(small_params, seed),
            lambda seed: gen_assumption2_instance(small_params, seed),
            lambda seed: perturb_violate(inst, "1.1", seed),
        ]

    def test_non_integer_seed_rejected(self, small_params):
        for call in self.calls(small_params):
            for seed in (2.5, 3.0, "3", True, np.True_, None):
                with pytest.raises(TypeError, match=f"^seed must be an integer, got {seed!r}$"):
                    call(seed)

    def test_negative_seed_rejected(self, small_params):
        for call in self.calls(small_params):
            for seed in (-1, np.int64(-2)):
                with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
                    call(seed)

    def test_numpy_integer_seed_accepted(self, small_params):
        for call in self.calls(small_params):
            assert call(np.int64(5)).to_json_dict() == call(5).to_json_dict()
