"""Command-line interface: formats, determinism and exit codes."""

import json
import math
import os
import pathlib

import pytest

from causalrating.cli import main

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "causalrating" / "data"
SCENARIO = str(DATA / "default_scenario.json")
CONFOUNDED = str(DATA / "confounded_direct.json")
MEDIATED = str(DATA / "confounded_mediation.json")
GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "evaluate_default.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def approx_equal(a, b, rel=1e-9):
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=1e-12)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(approx_equal(a[k], b[k], rel) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(approx_equal(x, y, rel) for x, y in zip(a, b))
    return a == b


class TestTemplates:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "templates")
        assert code == 0
        assert len(json.loads(out)["templates"]) == 10

    def test_named_template_latent(self, capsys):
        code, out, _ = run(capsys, "templates", "Fig2c")
        assert code == 0
        assert json.loads(out)["latent"] == ["U"]

    def test_unknown_template_exit_2(self, capsys):
        code, _, err = run(capsys, "templates", "Fig9")
        assert code == 2
        assert "Fig9" in err


class TestDsep:
    def test_separated(self, capsys):
        code, out, _ = run(capsys, "dsep", "Fig1d", "--x", "Y_h", "--y", "Y_f", "--z", "X_c")
        assert code == 0
        assert json.loads(out) == {"separated": True}

    def test_witness_when_open(self, capsys):
        code, out, _ = run(capsys, "dsep", "Fig2c", "--x", "Y_h", "--y", "Y_f", "--z", "X_c")
        assert code == 0
        doc = json.loads(out)
        assert doc["separated"] is False
        assert doc["witness"] == ["Y_h", "U", "Y_f"]

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "dsep", str(bad), "--x", "A", "--y", "B")
        assert code == 2


class TestIdentify:
    def test_scenario_frontdoor_matches_oracle(self, capsys):
        code, out, _ = run(capsys, "identify", SCENARIO)
        assert code == 0
        fd = json.loads(out)
        assert fd["method"] == "frontdoor"
        code, out, _ = run(capsys, "identify", SCENARIO, "--method", "oracle")
        assert code == 0
        oracle = json.loads(out)
        assert fd["do_vars"] == oracle["do_vars"] == ["J_o", "D"]
        want = {(tuple(c["do"]), tuple(c["given"])): c["distribution"] for c in oracle["cells"]}
        for c in fd["cells"]:
            got = c["distribution"]
            ref = want[(tuple(c["do"]), tuple(c["given"]))]
            assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-9

    def test_unidentifiable_exit_3(self, capsys):
        code, out, _ = run(capsys, "identify", CONFOUNDED, "--do", "X_c", "--outcome", "Y_f")
        assert code == 3
        doc = json.loads(out)
        assert doc["error"]["type"] == "CriterionNotMet"
        assert "back-door" in doc["error"]["message"]
        assert doc["error"]["witness"] == ["X_c", "U", "Y_f"]

    def test_mediated_frontdoor(self, capsys):
        code, out, _ = run(
            capsys, "identify", MEDIATED,
            "--do", "X_c", "--outcome", "Y_f", "--mediators", "Z",
        )
        assert code == 0
        fd = json.loads(out)
        code, out, _ = run(
            capsys, "identify", MEDIATED,
            "--do", "X_c", "--outcome", "Y_f", "--method", "oracle",
        )
        oracle = json.loads(out)
        assert approx_equal(fd["cells"], oracle["cells"])

    def test_pinned_do_value(self, capsys):
        code, out, _ = run(
            capsys, "identify", MEDIATED,
            "--do", "X_c=1", "--outcome", "Y_f", "--mediators", "Z",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["cells"]) == 1
        assert doc["cells"][0]["do"] == [1]

    def test_missing_do_exit_2(self, capsys):
        code, _, err = run(capsys, "identify", MEDIATED, "--outcome", "Y_f")
        assert code == 2


class TestVerdict:
    def test_canonical_noise(self, capsys):
        code, out, _ = run(
            capsys, "verdict", "Fig6Canonical(2)",
            "--candidate", "Y_h", "--outcome", "Y_f", "--observed", "J_o", "D",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Noise"

    def test_confounded_unidentifiable(self, capsys):
        code, out, _ = run(
            capsys, "verdict", "Fig2c",
            "--candidate", "Y_h", "--outcome", "Y_f", "--observed", "X_c",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Unidentifiable"

    def test_direct_cause_signal(self, capsys):
        code, out, _ = run(
            capsys, "verdict", "Fig1a", "--candidate", "Y_h", "--outcome", "Y_f"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Signal"


class TestSimulate:
    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out1, _ = run(capsys, "simulate", SCENARIO, "--n", "1000", "--seed", "7", "--out", str(a))
        code2, out2, _ = run(capsys, "simulate", SCENARIO, "--n", "1000", "--seed", "7", "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        assert out1.replace(str(a), "X") == out2.replace(str(b), "X")

    def test_summary_rate_close_to_exact(self, capsys, tmp_path):
        import numpy as np

        from causalrating import build_scenario, default_scenario, exact_joint, marginal

        out = tmp_path / "d.csv"
        code, text, _ = run(capsys, "simulate", SCENARIO, "--n", "100000", "--seed", "5", "--out", str(out))
        assert code == 0
        emp = json.loads(text)["empirical_accident_rate"]
        exact = float(marginal(exact_joint(build_scenario(default_scenario())), {"Y_f"}).probs[1])
        sigma = math.sqrt(exact * (1 - exact) / 100000)
        assert abs(emp - exact) < 3 * sigma

    def test_n_zero_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", SCENARIO, "--n", "0", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("CAUSALRATING_SEED", "99")
        run(capsys, "simulate", SCENARIO, "--n", "100", "--out", str(a))
        monkeypatch.delenv("CAUSALRATING_SEED")
        run(capsys, "simulate", SCENARIO, "--n", "100", "--seed", "99", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestEvaluate:
    def test_matches_golden_report(self, capsys):
        code, out, _ = run(capsys, "evaluate", SCENARIO)
        assert code == 0
        got = json.loads(out)
        want = json.loads(GOLDEN.read_text())
        assert approx_equal(got, want)

    def test_headline_facts_in_one_artifact(self, capsys):
        code, out, _ = run(capsys, "evaluate", SCENARIO)
        doc = json.loads(out)
        assert doc["history_verdict"]["verdict"] == "Noise"
        assert doc["history_outcome_mi_bits"] > 0.001
        assert doc["phyd_vs_oracle_max_dev"] < 1e-9
        assert doc["naive_vs_oracle_max_tv"] > 0.005
        assert doc["schema_version"] == 1

    def test_null_confounder_gap_vanishes(self, capsys, tmp_path):
        import dataclasses

        from causalrating import default_scenario, scenario_to_json

        s = default_scenario()
        cs = dict(s.confounder_strength)
        cs["decision_shift"] = 0.0
        cs["hazard"] = 0.0
        s = dataclasses.replace(s, confounder_strength=cs)
        path = tmp_path / "null.json"
        path.write_text(json.dumps(scenario_to_json(s)))
        code, out, _ = run(capsys, "evaluate", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["confounding_gap_bits"]["i_u_y_given_x"] < 1e-9
        assert doc["naive_vs_oracle_max_tv"] < 1e-9


    def test_depth_8_past_the_dense_joint_cap(self, capsys, tmp_path):
        from causalrating import canonical_scenario, scenario_to_json

        path = tmp_path / "depth8.json"
        path.write_text(json.dumps(scenario_to_json(canonical_scenario(8))))
        code, out, _ = run(capsys, "evaluate", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["depth"] == 8
        assert doc["chain_factorization_residual"] <= 1e-9
        assert doc["traffic_markov_residual_bits"] <= 1e-9
        assert doc["phyd_vs_oracle_max_dev"] <= 1e-9

    def test_nan_parameter_exit_2(self, capsys, tmp_path):
        doc = json.loads(pathlib.Path(SCENARIO).read_text())
        doc["traffic_dist"] = [float("nan"), 0.35]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "evaluate", str(path))
        assert code == 2
        assert out == ""
        assert "traffic_dist" in err


class TestReport:
    def test_scenario_report(self, capsys):
        code, out, _ = run(capsys, "report", SCENARIO)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"]["verdict"] == "Noise"
        cap = doc["capacity_bits"]
        assert cap["augmented_bms"] >= cap["naive_bms"] - 1e-9

    def test_scm_report(self, capsys):
        code, out, _ = run(capsys, "report", CONFOUNDED, "--observed", "X_c")
        assert code == 0
        assert json.loads(out)["verdict"]["verdict"] == "Noise"


class TestUsage:
    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "evaluate", "/nonexistent.json")
        assert code == 2

    def test_unknown_command_exit_2(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
