import json

import numpy as np
import pytest

from restless_sched import ModelInstance, gen_assumption1_instance, gen_assumption2_instance
from restless_sched.cli import main


@pytest.fixture
def inst_path(tmp_path, small_params):
    inst = gen_assumption1_instance(small_params, 2)
    p = tmp_path / "inst.json"
    p.write_text(json.dumps(inst.to_json_dict()))
    return str(p)


@pytest.fixture
def inst2_path(tmp_path, small_params):
    inst = gen_assumption2_instance(small_params, 1009)
    p = tmp_path / "inst2.json"
    p.write_text(json.dumps(inst.to_json_dict()))
    return str(p)


def read_json(path):
    return json.loads(path.read_text())


class TestValidate:
    def test_regime1_ok(self, inst_path, tmp_path):
        out = tmp_path / "v.json"
        assert main(["validate", inst_path, "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["regime"] == "Assumption1"
        assert all(c["passed"] for c in doc["assumption1"]["clauses"])
        assert len(doc["assumption1"]["clauses"]) == 5

    def test_regime2_needs_alt_flag(self, inst2_path, tmp_path):
        out = tmp_path / "v.json"
        assert main(["validate", inst2_path, "--alt-clause3", "--out", str(out)]) == 0
        assert read_json(out)["regime"] == "Assumption2"

    def test_neither_exits_1(self, tmp_path):
        # A valid instance satisfying neither regime: non-monotone A rows.
        inst = ModelInstance(
            2, 2, 2,
            [[0.5, 0.5], [0.5, 0.5]],
            [[0.6, 0.4], [0.4, 0.6]],
            [0.0, 1.0], 0.9,
            [[0.9, 0.1], [0.1, 0.9]],
        )
        p = tmp_path / "n.json"
        p.write_text(json.dumps(inst.to_json_dict()))
        out = tmp_path / "v.json"
        assert main(["validate", str(p), "--out", str(out)]) == 1
        assert read_json(out)["regime"] == "Neither"

    def test_single_state_instance(self, tmp_path, capsys):
        p = tmp_path / "x1.json"
        p.write_text(json.dumps({
            "n_projects": 2, "n_states": 1, "n_obs": 2, "A": [[1]], "B": [[0.5, 0.5]],
            "R": [1], "beta": 0.9, "x0": [[1], [1]],
        }))
        out = tmp_path / "v.json"
        assert main(["validate", str(p), "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["regime"] == "Assumption1"
        assert doc["assumption1"]["clauses"][4]["detail"] == "no adjacent states"
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 2

    def test_invalid_instance_exits_2(self, tmp_path, inst_path, capsys):
        doc = json.loads(open(inst_path).read())
        p = tmp_path / "bad2.json"
        bad = [
            ({**doc, "beta": 1.5}, "invalid instance"),
            ({**doc, "beta": None}, "malformed instance"),
            ({**doc, "n_projects": None}, "malformed instance"),
            ({**doc, "x0": 5}, "malformed instance"),
            ([doc], "malformed instance"),
        ]
        for bad_doc, message in bad:
            p.write_text(json.dumps(bad_doc))
            assert main(["validate", str(p)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {message} ")

    @pytest.mark.parametrize("command", [["validate"], ["compare", "--horizon", "2"]])
    @pytest.mark.parametrize("matrix", ["A", "B"])
    def test_non_finite_matrix_exits_2(self, tmp_path, inst_path, capsys, matrix, command):
        doc = json.loads(open(inst_path).read())
        doc[matrix][0][1] = float("nan")
        p = tmp_path / "nan.json"
        # json writes the NaN literal, which it also reads back.
        p.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main([command[0], str(p), *command[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{matrix} row 1 has a non-finite entry" in err
        assert not out.exists()


class TestSpectral:
    def test_fields_and_exit(self, inst_path, tmp_path):
        out = tmp_path / "s.json"
        assert main(["spectral", inst_path, "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["eigenvalues"][0] == pytest.approx(1.0)
        assert doc["upsilon_diag"][0] == pytest.approx(1.0)
        assert doc["residual"] < 1e-8
        assert doc["separation_passed"] is True
        X = len(doc["eigenvalues"])
        assert np.asarray(doc["Q"]).shape == (X, X)


class TestSolveCompare:
    def test_solve(self, inst_path, tmp_path):
        out = tmp_path / "o.json"
        assert main(["solve", inst_path, "--horizon", "3", "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["horizon"] == 3
        assert doc["best_action"] >= 1

    def test_compare_zero_gap(self, inst_path, tmp_path):
        out = tmp_path / "c.json"
        assert main(["compare", inst_path, "--horizon", "3", "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["gap"] <= 1e-9
        assert doc["argmax_agreement"] == 1.0


class TestHorizonFlag:
    def test_negative_horizon_is_a_usage_error(self, inst_path, capsys):
        for argv in (
            ["solve", inst_path],
            ["compare", inst_path],
            ["simulate", inst_path],
            ["certify-sweep", "--regime", "1", "--instances", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--horizon", "-1"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "--horizon: must be an integer >= 0" in err
            assert "Traceback" not in err


class TestCountFlags:
    def test_bad_count_is_a_usage_error(self, inst_path, tmp_path, capsys):
        out = tmp_path / "artifact"
        for argv, flag, minimum, values in (
            (["simulate", inst_path, "--horizon", "2"], "--n-traj", 2, ("0", "1")),
            (["bounds", inst_path], "--samples", 1, ("0", "-5")),
            (["generate", "--regime", "1"], "--max-attempts", 1, ("0",)),
            (["certify-sweep", "--regime", "1"], "--max-attempts", 1, ("0",)),
            (["certify-sweep", "--regime", "1"], "--instances", 1, ("-3", "x")),
            # simulate masks its seed to 64 bits; these hand theirs to numpy.
            (["generate", "--regime", "1"], "--seed", 0, ("-1",)),
            (["certify-sweep", "--regime", "1", "--instances", "1"], "--seed", 0, ("-2",)),
            (["bounds", inst_path], "--seed", 0, ("-1",)),
        ):
            for value in values:
                with pytest.raises(SystemExit) as exc:
                    main(argv + [flag, value, "--out", str(out)])
                assert exc.value.code == 2
                err = capsys.readouterr().err
                assert f"{flag}: must be an integer >= {minimum}" in err
                assert "Traceback" not in err
                assert not out.exists()


class TestBounds:
    def test_csv_shape(self, inst_path, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", inst_path, "--samples", "30", "--seed", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# restless-sched ")
        assert lines[1] == "case,t,T,slack_low,slack_high,verdict"
        assert len(lines) == 32
        assert all(line.endswith(",Pass") for line in lines[2:])

    @pytest.mark.parametrize("inst, message", [
        (ModelInstance(1, 2, 2, [[0.9, 0.1], [0.2, 0.8]], [[0.99, 0.01], [0.01, 0.99]],
                       [0.0, 1.0], 0.5, [[0.6, 0.4]]), "N=1"),
        (ModelInstance(2, 2, 2, [[0.5, 0.5], [0.5, 0.5]], [[0.6, 0.4], [0.4, 0.6]],
                       [0.0, 1.0], 0.9, [[0.9, 0.1], [0.1, 0.9]]), "neither"),
        (ModelInstance(2, 1, 2, [[1.0]], [[0.5, 0.5]], [1.0], 0.9, [[1.0], [1.0]]), "X=1"),
        # Rank-one A: verifies as Assumption 1, but its extreme rows are equal.
        (ModelInstance(2, 3, 2, [[0.3, 0.5, 0.2]] * 3, [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]],
                       [0.0, 0.5, 1.0], 0.8, [[0.3, 0.5, 0.2]] * 2),
         "distinct first and last rows of A"),
    ])
    def test_unsupported_instance_is_a_usage_error(self, tmp_path, capsys, inst, message):
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(inst.to_json_dict()))
        out = tmp_path / "b.csv"
        assert main(["bounds", str(p), "--samples", "30", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


class TestSimulate:
    def test_json_and_dump(self, inst_path, tmp_path):
        out = tmp_path / "m.json"
        dump = tmp_path / "traj.csv"
        assert main(["simulate", inst_path, "--horizon", "4", "--n-traj", "200",
                     "--seed", "3", "--policy", "myopic",
                     "--dump-csv", str(dump), "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["n_traj"] == 200 and doc["seed"] == 3
        assert doc["stderr"] >= 0.0
        lines = dump.read_text().splitlines()
        assert lines[1] == "trajectory,discounted_total"
        assert len(lines) == 202

    def test_dump_does_not_change_estimate(self, inst_path, tmp_path):
        args = ["simulate", inst_path, "--horizon", "4", "--n-traj", "200", "--seed", "3"]
        plain, dumped = tmp_path / "plain.json", tmp_path / "dumped.json"
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--dump-csv", str(tmp_path / "traj.csv"),
                            "--out", str(dumped)]) == 0
        assert read_json(plain)["mean"] == read_json(dumped)["mean"]
        assert plain.read_bytes() == dumped.read_bytes()


class TestGenerate:
    def test_roundtrip(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["generate", "--regime", "1", "--seed", "11", "--out", str(out)]) == 0
        inst = ModelInstance.from_json(out.read_text())
        from restless_sched import verify_assumption1

        assert verify_assumption1(inst).satisfied

    def test_violate(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["generate", "--regime", "1", "--seed", "11",
                     "--violate", "1.4", "--out", str(out)]) == 0
        inst = ModelInstance.from_json(out.read_text())
        from restless_sched import verify_assumption1

        assert not verify_assumption1(inst).satisfied

    @pytest.mark.parametrize("regime, clause", [
        ("1", "1.9"), ("1", "2.3"), ("2", "1.1"), ("1", "x"), ("1", "1."), ("2", ""),
    ])
    def test_violate_names_a_clause_of_the_regime(self, tmp_path, capsys, regime, clause):
        # A clause of the other regime would leave the generated one intact.
        out = tmp_path / "g.json"
        for argv in (["generate"], ["certify-sweep", "--instances", "3", "--horizon", "2"]):
            assert main(argv + ["--regime", regime, "--seed", "3", "--violate", clause,
                                "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --violate must name a clause ")
            assert not out.exists()


class TestCertifySweep:
    def test_all_pass(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["certify-sweep", "--regime", "1", "--seed", "0",
                     "--instances", "10", "--horizon", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "seed,regime,status,gap,argmax_agreement"
        assert lines[-1].startswith("# pass 10 fail 0")

    def test_regime2(self, tmp_path):
        out = tmp_path / "sweep2.csv"
        assert main(["certify-sweep", "--regime", "2", "--seed", "0",
                     "--instances", "5", "--horizon", "2",
                     "--out", str(out)]) == 0

    def test_failed_generation_exits_one(self, tmp_path):
        # One attempt per seed: seeds 0 and 2 fail to generate, seed 1 passes.
        out = tmp_path / "sweep.csv"
        assert main(["certify-sweep", "--regime", "1", "--seed", "0", "--instances", "3",
                     "--max-attempts", "1", "--out", str(out)]) == 1
        statuses = [line.split(",")[2] for line in out.read_text().splitlines()[2:-1]]
        assert statuses == ["generation-failed", "pass", "generation-failed"]

    def test_violated_sweep_that_certified_nothing_exits_one(self, tmp_path):
        # Clause 2.5 cannot be broken on these seeds, so nothing is certified.
        out = tmp_path / "sweep.csv"
        assert main(["certify-sweep", "--regime", "2", "--violate", "2.5",
                     "--instances", "2", "--out", str(out)]) == 1
        assert out.read_text().splitlines()[-1] == "# pass 0 fail 0 of 0"


class TestDeterminism:
    def test_rerun_byte_identical(self, inst_path, tmp_path):
        pairs = []
        for cmd in (
            ["validate", inst_path],
            ["spectral", inst_path],
            ["solve", inst_path, "--horizon", "2"],
            ["compare", inst_path, "--horizon", "2"],
            ["bounds", inst_path, "--samples", "20", "--seed", "4"],
            ["simulate", inst_path, "--horizon", "3", "--n-traj", "100", "--seed", "5"],
            ["generate", "--regime", "1", "--seed", "9"],
            ["certify-sweep", "--regime", "1", "--seed", "0",
             "--instances", "5", "--horizon", "2"],
        ):
            a, b = tmp_path / "a.out", tmp_path / "b.out"
            main(cmd + ["--out", str(a)])
            main(cmd + ["--out", str(b)])
            pairs.append((cmd[0], a.read_bytes(), b.read_bytes()))
        for name, x, y in pairs:
            assert x == y, name
