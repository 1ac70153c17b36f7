"""Command-line interface: formats, determinism and exit codes."""

import copy
import hashlib
import importlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from causalrating.cli import main

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "causalrating" / "data"
SCENARIO = str(DATA / "default_scenario.json")
CONFOUNDED = str(DATA / "confounded_direct.json")
MEDIATED = str(DATA / "confounded_mediation.json")
GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "evaluate_default.json"
IDENTIFY_GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "identify_default.json"
# The same outputs on canonical_scenario(7), taken before the adjustment
# estimators became array contractions.
GOLDEN_DEPTH7 = pathlib.Path(__file__).resolve().parent / "data" / "evaluate_depth7.json"
# ``evaluate`` on canonical_scenario(12), taken before witnesses became
# shortest trails.
GOLDEN_DEPTH12 = pathlib.Path(__file__).resolve().parent / "data" / "evaluate_depth12.json"
IDENTIFY_GOLDEN_DEPTH7 = pathlib.Path(__file__).resolve().parent / "data" / "identify_depth7.json"
# ``report`` outputs taken while it still read the full observable joint.
REPORT_GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "report_golden.json"
# ``identify`` with strata, a dead stratum and pinned values, taken while
# effect tables were dicts of cells: case -> (model, arguments).
IDENTIFY_GOLDEN_STRATA = pathlib.Path(__file__).resolve().parent / "data" / "identify_strata.json"
IDENTIFY_STRATA_CASES = {
    "given-auto": ("default", ["--given", "Y_h"]),
    "given-oracle": ("default", ["--given", "Y_h", "--method", "oracle"]),
    "dead-stratum-auto": ("dead-stratum", ["--given", "Y_h"]),
    "dead-stratum-oracle": ("dead-stratum", ["--given", "Y_h", "--method", "oracle"]),
    "pinned": ("default", ["--do", "J_o=1", "D"]),
    "mediated-given": ("mediated", ["--do", "X_c", "--outcome", "Y_f", "--mediators", "Z", "--given", "Y_h"]),
    "mediated-pinned-oracle": (
        "mediated", ["--do", "X_c=1", "--outcome", "Y_f", "--method", "oracle", "--given", "Y_h"]
    ),
    "depth7-traffic": ("depth7", ["--given", "T_0", "T_1"]),
}


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


# SHA-256 of the CSV and the summary's accident rate of ``simulate``, by
# (scenario, seed, n).  The digests come from the unchunked writer that
# formatted ``rows.tolist()`` with ``csv.writer``; 3 * 2**16 + 7 rows
# cross the boundaries of any power-of-two block up to 2**16 rows.
GOLDEN_ROWS = 3 * (1 << 16) + 7
SIMULATE_GOLDEN = {
    ("default", 0, 1): ("15a257dc410bcc0ee15ef6dff1836ef1368f399b20bcb37f3f7e1d98d83d2482", 0.0),
    ("default", 0, 196615): ("e59af65e2a5d9a9992e94387052eafcb532e901cac3cd1c26d8de632722b8205", 0.24384202629504362),
    ("default", 17, 1): ("ab5d7871efeaf6ae8dadb86ed56817948f85fb27c666d4abea549f3a76228342", 0.0),
    ("default", 17, 196615): ("787ae8af546147aa0568548f1b8e069ba7b22bb8bec60a4d98d8bc32aab63adb", 0.24301808102128525),
    ("default", 42, 1): ("abdc7d834ce30030a775c9d7fd739b6f92ce3e78fbb783069db7f52e3e632e7b", 1.0),
    ("default", 42, 196615): ("539652b51797773fe5e81c7976402faf6473b5e1350b48390f28acefef8fb239", 0.24341988149429086),
    ("depth6", 0, 1): ("c7bcc86cefca5e16bfa05b99661bc5418e0f005aa94d1ca198f358db1392cbe0", 1.0),
    ("depth6", 0, 196615): ("f7c7079ad3f81385cc9c26ce16dbd173b20dd382494f55550f610dd0a91966f7", 0.49159524959947104),
    ("depth6", 17, 1): ("17a5d27734d2282464ec4f8f8ad9906107ceafc704387027e881f3b8fc5ef1ca", 1.0),
    ("depth6", 17, 196615): ("244fe829d237171a6e246a451e03073ae69002dc1bf166e5fd55e56cb4998994", 0.4919970500724767),
    ("depth6", 42, 1): ("5c9ed92b8b02eae2e659d397ccc942b68744d32f75e57884a576aa819b747763", 1.0),
    ("depth6", 42, 196615): ("ea50b2ccb5d011797b6446f8f59123cbe573aaa0a5627cb255606ae834be3348", 0.491758004221448),
    ("card12", 42, 1): ("cbebe55197c8ac527ec9d83b88ca61e997e03bdf9193080109b20e6d673be55d", 1.0),
    ("card12", 42, 196615): ("8fcc68969003c0dbcc552d681e6f2c8a88723bd2b9fa6af82c9e9d78783def91", 0.23382753096152378),
}


def wide_decision_doc() -> dict:
    """The shipped scenario with 12 decision values (two-digit ``D``)."""
    doc = json.loads(pathlib.Path(SCENARIO).read_text())
    w = [k + 1 for k in range(12)]
    doc["decision_card"] = 12
    doc["decision_base"] = [[x / 78 for x in w], [x / 78 for x in reversed(w)]]
    doc["escalation"] = [
        [[min(0.9, (0.05 + 0.06 * i) * (1 + d / 6) * (1 + 0.9 * t)) for t in range(2)] for d in range(12)]
        for i in range(2)
    ]
    return doc


def canonical_path(depth: int, tmp_path) -> str:
    from causalrating import canonical_scenario, scenario_to_json

    path = tmp_path / f"depth{depth}.json"
    path.write_text(json.dumps(scenario_to_json(canonical_scenario(depth))))
    return str(path)


def strata_model_path(name: str, tmp_path) -> str:
    """The model file of an ``IDENTIFY_STRATA_CASES`` case."""
    if name == "dead-stratum":
        # No driver has the third claim-history value.
        doc = {**json.loads(pathlib.Path(SCENARIO).read_text()), "y_h_prior": [0.7, 0.3, 0.0]}
        path = tmp_path / "dead_stratum.json"
        path.write_text(json.dumps(doc))
        return str(path)
    return {"default": SCENARIO, "mediated": MEDIATED}.get(name) or canonical_path(7, tmp_path)


def golden_scenario_path(name: str, tmp_path) -> str:
    from causalrating import canonical_scenario, scenario_to_json

    if name == "default":
        return SCENARIO
    doc = scenario_to_json(canonical_scenario(6)) if name == "depth6" else wide_decision_doc()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


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

    @pytest.mark.parametrize(
        "name",
        ["Fig1a(2)", "Fig3(1)", "Fig4Chain( 2)", "Fig4Chain(+2)", "Fig4Chain(1_0)",
         "Fig6Canonical(\u0663)", "Fig4Chain()", "Fig4Chain(2", "Fig4Chain(0)"],
    )
    def test_malformed_template_id_exit_2(self, capsys, name):
        # A depth on a fixed template, or a depth that is not ASCII digits.
        code, out, err = run(capsys, "templates", name)
        assert (code, out) == (2, "")
        assert "UnknownTemplate" in err

    @pytest.mark.parametrize("depth", ["1075", "9" * 5000], ids=["past-the-bound", "5000-digits"])
    def test_chain_depth_past_the_bound_exit_2(self, capsys, depth):
        # 1075 was built; 5000 digits printed a traceback and exited 1.
        code, out, err = run(capsys, "templates", f"Fig4Chain({depth})")
        assert (code, out, err) == (2, "", "error: UnknownTemplate: Fig4Chain requires a depth from 1 to 1074\n")


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

    def test_witness_is_a_shortest_trail(self, capsys):
        # Y_h - U - X_c - Y_f is open too, but one node longer.
        code, out, _ = run(capsys, "dsep", "Fig2a", "--x", "Y_h", "--y", "Y_f")
        assert code == 0
        assert json.loads(out) == {"separated": False, "witness": ["Y_h", "X_c", "Y_f"]}

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

    def test_stratified_frontdoor_matches_oracle(self, capsys):
        # The strata of the front-door sweep (J_o and Y_h) must be read in
        # the joint's order, not in the order they were listed.
        code, out, _ = run(capsys, "identify", SCENARIO, "--given", "Y_h")
        assert code == 0
        fd = json.loads(out)
        code, out, _ = run(capsys, "identify", SCENARIO, "--given", "Y_h", "--method", "oracle")
        assert code == 0
        oracle = json.loads(out)
        assert fd["method"] == "frontdoor"
        assert fd["given_vars"] == oracle["given_vars"] == ["Y_h"]
        got = {(tuple(c["do"]), tuple(c["given"])): c["distribution"] for c in fd["cells"]}
        want = {(tuple(c["do"]), tuple(c["given"])): c["distribution"] for c in oracle["cells"]}
        assert len(want) == 18 and got.keys() == want.keys()
        for key, dist in want.items():
            assert max(abs(a - b) for a, b in zip(got[key], dist)) < 1e-9

    @pytest.mark.parametrize("method", ["auto", "oracle"])
    def test_matches_golden_output(self, capsys, method):
        code, out, _ = run(capsys, "identify", SCENARIO, "--method", method)
        assert code == 0
        assert approx_equal(json.loads(out), json.loads(IDENTIFY_GOLDEN.read_text())[method])

    @pytest.mark.parametrize("method", ["auto", "oracle"])
    def test_matches_depth7_golden(self, capsys, tmp_path, method):
        code, out, _ = run(capsys, "identify", canonical_path(7, tmp_path), "--method", method)
        assert code == 0
        assert approx_equal(json.loads(out), json.loads(IDENTIFY_GOLDEN_DEPTH7.read_text())[method])

    @pytest.mark.parametrize("case", sorted(IDENTIFY_STRATA_CASES))
    def test_matches_strata_golden(self, capsys, tmp_path, case):
        model, args = IDENTIFY_STRATA_CASES[case]
        code, out, _ = run(capsys, "identify", strata_model_path(model, tmp_path), *args)
        assert code == 0
        assert approx_equal(json.loads(out), json.loads(IDENTIFY_GOLDEN_STRATA.read_text())[case])

    def test_positivity_violation_exit_3_names_cell(self, capsys, tmp_path):
        doc = json.loads(pathlib.Path(MEDIATED).read_text())
        doc["cpt"]["Z"] = [[1.0, 0.0], [0.3, 0.7]]  # Z = 1 never follows X_c = 0
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "identify", str(path), "--do", "X_c", "--outcome", "Y_f", "--mediators", "Z",
        )
        assert code == 3
        assert json.loads(out) == {
            "error": {
                "type": "PositivityViolation",
                "message": "P{'X_c': 0, 'Z': 1} = 0",
                "cell": {"X_c": 0, "Z": 1},
            }
        }

    def test_unidentifiable_exit_3(self, capsys):
        code, out, _ = run(capsys, "identify", CONFOUNDED, "--do", "X_c", "--outcome", "Y_f")
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == {
            "type": "CriterionNotMet",
            "message": "effect of do(X_c) on Y_f is not identifiable by the available "
            "criteria; an unblockable back-door trail remains",
            "witness": ["X_c", "U", "Y_f"],
        }

    @pytest.mark.parametrize(
        "extra,witness",
        [
            (
                ["--method", "frontdoor", "--mediators", "Y_h"],
                "a directed path from X_c to Y_f bypasses the mediators",
            ),
            (["--method", "backdoor"], ["X_c", "U", "Y_f"]),
            (
                ["--method", "backdoor", "--given", "Y_h"],
                "back-door adjustment needs one do-variable and no observed variables",
            ),
        ],
        ids=["frontdoor", "backdoor", "backdoor-given"],
    )
    def test_forced_method_refusal_carries_a_witness(self, capsys, extra, witness):
        code, out, _ = run(capsys, "identify", CONFOUNDED, "--do", "X_c", "--outcome", "Y_f", *extra)
        assert code == 3
        assert json.loads(out)["error"]["witness"] == witness

    @pytest.mark.parametrize(
        "args,do",
        [(["--do", "X_c", "--given", "Y_h"], "X_c"), (["--do", "X_c", "Y_h"], "Y_h, X_c")],
        ids=["given", "two-do"],
    )
    def test_auto_refusal_without_a_backdoor_attempt_carries_a_witness(self, capsys, args, do):
        code, out, _ = run(capsys, "identify", CONFOUNDED, "--outcome", "Y_f", *args)
        assert code == 3
        assert json.loads(out)["error"] == {
            "type": "CriterionNotMet",
            "message": f"effect of do({do}) on Y_f is not identifiable by the available "
            "criteria; back-door adjustment was not tried",
            "witness": "back-door adjustment needs one do-variable and no observed variables",
        }

    @pytest.mark.parametrize(
        "model,do,outcome",
        [(CONFOUNDED, "U", "Y_f"), (MEDIATED, "Y_h", "U")],
        ids=["latent-treatment", "latent-outcome"],
    )
    def test_latent_treatment_or_outcome_exit_3(self, capsys, model, do, outcome):
        code, out, _ = run(capsys, "identify", model, "--do", do, "--outcome", outcome)
        assert code == 3
        assert json.loads(out)["error"]["type"] == "LatentAdjustmentError"
        # Graph surgery reads the full model, latent nodes included.
        code, out, _ = run(
            capsys, "identify", model, "--do", do, "--outcome", outcome, "--method", "oracle"
        )
        assert code == 0 and json.loads(out)["method"] == "oracle"

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

    def test_pinned_do_value_out_of_range_exit_2(self, capsys):
        code, out, err = run(
            capsys, "identify", MEDIATED,
            "--do", "X_c=2", "--outcome", "Y_f", "--mediators", "Z",
        )
        assert code == 2
        assert out == ""
        assert "X_c" in err

    def test_pinned_do_value_checked_before_identification(self, capsys):
        # Unidentifiable for any value, but the out-of-range pin is the
        # input error to report.
        code, out, err = run(capsys, "identify", CONFOUNDED, "--do", "X_c=9", "--outcome", "Y_f")
        assert (code, out) == (2, "")
        assert err == "error: --do X_c=9: value out of range 0..1\n"
        code, out, err = run(capsys, "identify", CONFOUNDED, "--do", "Q=0", "--outcome", "Y_f")
        assert (code, out) == (2, "")
        assert err == "error: UnknownVariable: unknown variable: 'Q'\n"

    @pytest.mark.parametrize("do", [["J_o=0", "J_o=1"], ["J_o", "D", "J_o"], ["D=1", "D"]])
    def test_repeated_do_variable_exit_2(self, capsys, do):
        code, out, err = run(capsys, "identify", SCENARIO, "--do", *do)
        name = do[0].partition("=")[0]
        assert (code, out) == (2, "")
        assert err == f"error: --do {name} given more than once\n"

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


# Run in a fresh interpreter: which numeric modules each step has loaded.
_LAZY_IMPORT_SCRIPT = """
import contextlib, io, json, sys
NUMERIC = ("numpy", "causalrating.scm", "causalrating.identify", "causalrating.road_risk")
import causalrating, causalrating.cli
steps = [("import", 0, "", sorted(NUMERIC & sys.modules.keys()))]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = causalrating.cli.main(argv)
    steps.append((" ".join(argv), code, out.getvalue(), sorted(NUMERIC & sys.modules.keys())))
names = {}
exec("from causalrating import *", names)
print(json.dumps({"steps": steps, "star": sorted(names)}))
"""


def test_graph_commands_load_no_numpy(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"nodes": ["A", "B", "C"], "edges": [["A", "B"], ["B", "C"]]}))
    graph_only = [
        ["templates"],
        ["templates", "Fig1d"],
        ["dsep", "Fig1d", "--x", "Y_h", "--y", "Y_f", "--z", "X_c"],
        ["dsep", str(graph), "--x", "A", "--y", "C", "--z", "B"],
        ["verdict", "Fig6Canonical(2)", "--candidate", "Y_h", "--outcome", "Y_f",
         "--observed", "J_o", "D"],
        ["dsep", "Fig1d", "--x", "Nope", "--y", "Y_f"],
        ["templates", "Fig9"],
    ]
    src = pathlib.Path(importlib.import_module("causalrating").__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT_SCRIPT, json.dumps(graph_only + [["evaluate", SCENARIO]])],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    doc = json.loads(proc.stdout)
    *steps, (_, code, out, loaded) = doc["steps"]
    assert [s[1] for s in steps] == [0, 0, 0, 0, 0, 0, 2, 2]
    assert json.loads(steps[4][2]) == {"separated": True}
    for label, _, _, numeric in steps:
        assert numeric == [], label
    assert code == 0 and "numpy" in loaded
    assert approx_equal(json.loads(out), json.loads(GOLDEN.read_text()))
    for layer in ("graph", "scm", "info", "identify", "road_risk"):
        assert set(importlib.import_module(f"causalrating.{layer}").__all__) <= set(doc["star"]), layer


def test_cli_imports_no_numpy_and_no_private_package_name():
    # Each command parses, loads, makes one library call and emits: the
    # work, NumPy included, lives in the layers behind their public names,
    # and so do the variable names of the shipped models and scenarios.
    import ast
    import re

    model_name = re.compile(r"\b(Y_h|Y_f|J_o|D|U|X_c|Z|[ST]_\d+)\b")

    path = pathlib.Path(importlib.import_module("causalrating.cli").__file__)
    offending = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            offending += [a.name for a in node.names if a.name.partition(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module.partition(".")[0] == "numpy":
                offending.append(module)
            elif node.level or module.partition(".")[0] == "causalrating":
                parts = [p for p in module.split(".") if p] + [a.name for a in node.names]
                offending += [f"{module}:{p}" for p in parts if p.startswith("_")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and model_name.search(node.value):
            offending.append(f"line {node.lineno}: {node.value!r}")
    assert offending == []


# Run under a given hash seed: a mutilated graph's order from the graph
# layer alone, then the oracle table of a model on that graph.
_HASH_SEED_SCRIPT = """
import json, sys
from causalrating.graph import Dag, mutilate
nodes, edges = json.loads(sys.argv[2])
print(mutilate(Dag(nodes, edges), {"V1"}).topological_order, "numpy" in sys.modules)
from causalrating.cli import main
sys.exit(main(["identify", sys.argv[1], "--do", "V1", "--outcome", "V5", "--method", "oracle"]))
"""


def test_oracle_output_does_not_follow_the_hash_seed(tmp_path):
    # The cut graph was rebuilt from the edge set, so its order, and the
    # oracle's last bits, followed the iteration order of the set.
    from causalrating import Dag, random_scm, scm_to_json

    nodes = [f"V{i}" for i in range(6)]
    pairs = [(0, 1), (0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (2, 4), (2, 5), (3, 5), (4, 5)]
    edges = [(f"V{a}", f"V{b}") for a, b in pairs]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(scm_to_json(random_scm(Dag(nodes, edges), 4, card=3))))
    src = pathlib.Path(importlib.import_module("causalrating").__file__).parents[1]
    outs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT, str(path), json.dumps([nodes, edges])],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outs[0].startswith("('V0', 'V1', 'V2', 'V3', 'V4', 'V5') False\n")
    assert outs[0] == outs[1]


class TestSimulate:
    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out1, _ = run(capsys, "simulate", SCENARIO, "--n", "1000", "--seed", "7", "--out", str(a))
        code2, out2, _ = run(capsys, "simulate", SCENARIO, "--n", "1000", "--seed", "7", "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        assert out1.replace(str(a), "X") == out2.replace(str(b), "X")

    def test_matches_simulate_journeys_across_blocks(self, capsys, tmp_path):
        from causalrating import dataset_to_csv, default_scenario, simulate_journeys

        out, lib = tmp_path / "cli.csv", tmp_path / "lib.csv"
        code, _, _ = run(capsys, "simulate", SCENARIO, "--n", "70000", "--seed", "4", "--out", str(out))
        assert code == 0
        dataset_to_csv(simulate_journeys(default_scenario(), 70_000, seed=4), lib)
        assert out.read_bytes() == lib.read_bytes()

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

    def test_streams_in_bounded_blocks(self, capsys, tmp_path, monkeypatch):
        import numpy as np

        from causalrating.scm import _Sampler

        sizes = []
        real = _Sampler.draw

        def spy(self, seed, start, rows):
            sizes.append(len(rows))
            return real(self, seed, start, rows)

        monkeypatch.setattr(_Sampler, "draw", spy)
        out = tmp_path / "j.csv"
        code, text, _ = run(capsys, "simulate", SCENARIO, "--n", "200000", "--seed", "3", "--out", str(out))
        assert code == 0
        assert sum(sizes) == 200_000
        assert max(sizes) <= 1 << 15
        header, _, body = out.read_bytes().partition(b"\n")
        cols = header.decode().split(",")
        vals = np.frombuffer(body, dtype=np.uint8).reshape(200_000, 2 * len(cols))[:, ::2] - ord("0")
        col = dict(zip(cols, vals.T))
        assert json.loads(text) == {
            "n": 200_000, "seed": 3, "columns": cols, "out": str(out),
            "empirical_accident_rate": int(col["Y_f"].sum()) / 200_000,
        }
        home = col["J_o"] == 0
        assert home.any() and not any(col[v][home].any() for v in cols if v.startswith("S_"))

    def test_library_draws_and_writes_in_bounded_blocks(self, tmp_path, monkeypatch):
        import io

        from causalrating import build_scenario, dataset_to_csv, default_scenario, sample, scm, simulate_journeys

        drawn, written = [], []
        real_draw, real_writer = scm._Sampler.draw, scm._csv_writer

        def draw(self, seed, start, rows):
            drawn.append(len(rows))
            return real_draw(self, seed, start, rows)

        def writer(*args):
            write_rows = real_writer(*args)

            def write(rows):  # the per-block write
                written.append(len(rows))
                return write_rows(rows)
            return write

        monkeypatch.setattr(scm._Sampler, "draw", draw)
        monkeypatch.setattr(scm, "_csv_writer", writer)
        blocks = [1 << 15, 1 << 15, 70_000 - 2 * (1 << 15)]
        ds = simulate_journeys(default_scenario(), 70_000, seed=4)
        sample(build_scenario(default_scenario()), 70_000, 4)
        assert drawn == blocks * 2
        assert not written
        dataset_to_csv(ds, tmp_path / "j.csv")
        dataset_to_csv(ds, io.StringIO())
        assert written == blocks * 2
        assert drawn == blocks * 2  # writing draws nothing

    def test_seed_env_override(self, capsys, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("CAUSALRATING_SEED", "99")
        run(capsys, "simulate", SCENARIO, "--n", "100", "--out", str(a))
        monkeypatch.delenv("CAUSALRATING_SEED")
        run(capsys, "simulate", SCENARIO, "--n", "100", "--seed", "99", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize(
        "name,seed,n",
        [pytest.param(*key, id=f"{key[0]}-seed{key[1]}-n{key[2]}") for key in SIMULATE_GOLDEN],
    )
    def test_golden_bytes(self, capsys, tmp_path, name, seed, n):
        out = tmp_path / "journeys.csv"
        path = golden_scenario_path(name, tmp_path)
        code, text, _ = run(capsys, "simulate", path, "--n", str(n), "--seed", str(seed), "--out", str(out))
        assert code == 0
        data = out.read_bytes()
        digest, rate = SIMULATE_GOLDEN[(name, seed, n)]
        assert hashlib.sha256(data).hexdigest() == digest
        header = data.partition(b"\n")[0].decode().split(",")
        assert json.loads(text) == {
            "n": n, "seed": seed, "columns": header, "empirical_accident_rate": rate, "out": str(out),
        }
        if name == "card12" and n == GOLDEN_ROWS:
            assert b",11," in data


class TestUnwritableOutput:
    def test_simulate_out_fails_before_sampling(self, capsys, tmp_path, monkeypatch):
        from causalrating.scm import _Sampler

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking --out")

        monkeypatch.setattr(_Sampler, "draw", no_sampling)
        bad = tmp_path / "missing" / "x.csv"
        code, _, err = run(capsys, "simulate", SCENARIO, "--n", "10", "--out", str(bad))
        assert code == 2
        assert err.startswith(f"error: cannot write {bad}")

    def test_simulate_summary(self, capsys, tmp_path):
        bad = tmp_path / "missing" / "s.json"
        code, _, err = run(
            capsys, "simulate", SCENARIO, "--n", "10",
            "--out", str(tmp_path / "x.csv"), "--summary", str(bad),
        )
        assert code == 2
        assert err.startswith(f"error: cannot write {bad}")

    def test_evaluate_out(self, capsys, tmp_path):
        bad = tmp_path / "missing" / "e.json"
        code, out, err = run(capsys, "evaluate", SCENARIO, "--out", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {bad}")


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


    @pytest.mark.parametrize("rate", [1.0, 0.0])
    def test_a_journey_value_of_zero_mass(self, capsys, tmp_path, rate):
        # One J_o value never occurs; the naive estimate used to exit 2
        # with ZeroProbabilityEvidence on its cells.
        doc = {**json.loads(pathlib.Path(SCENARIO).read_text()), "journey_rate": [rate] * 3}
        path = tmp_path / "journeys.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "evaluate", str(path))
        assert (code, err) == (0, "")
        effects = json.loads(out)["effects"]
        live = [c["do"] for c in effects["naive"]["cells"]]
        assert live == [[int(rate), d] for d in range(3)]
        assert [c["do"] for c in effects["frontdoor"]["cells"]] == live
        assert len(effects["oracle"]["cells"]) == 6

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

    def test_matches_depth7_golden(self, capsys, tmp_path):
        code, out, _ = run(capsys, "evaluate", canonical_path(7, tmp_path))
        assert code == 0
        assert approx_equal(json.loads(out), json.loads(GOLDEN_DEPTH7.read_text()))

    def test_matches_depth12_golden(self, capsys, tmp_path):
        code, out, _ = run(capsys, "evaluate", canonical_path(12, tmp_path))
        assert code == 0
        assert approx_equal(json.loads(out), json.loads(GOLDEN_DEPTH12.read_text()))

    def test_depth_18_past_the_observable_joint_cap(self, capsys, tmp_path):
        # The full observable joint has 36 * 2^19 cells here, past the cap.
        code, out, _ = run(capsys, "evaluate", canonical_path(18, tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["depth"] == 18
        assert doc["chain_factorization_residual"] <= 1e-9
        assert doc["traffic_markov_residual_bits"] <= 1e-9
        assert doc["phyd_vs_oracle_max_dev"] <= 1e-9

    def test_eliminations_per_report(self, capsys, tmp_path, monkeypatch):
        # One inference each for the joint the information fields and the
        # naive estimate share, the front-door estimate and the oracle: 3
        # on the canonical chain at every depth.  The graph d-separates
        # every stage of the Markov residual and every link of the chain
        # residual, so neither infers anything.  No inference keeps claim
        # history together with the peril chain.  The CLI reads
        # ``scm.infer`` when it runs.
        from causalrating import identify, road_risk, scm

        calls = []
        for mod in (identify, road_risk, scm):
            def spy(*args, real=mod.infer, **kwargs):
                calls.append(args[1])
                return real(*args, **kwargs)

            monkeypatch.setattr(mod, "infer", spy)
        for depth in (2, 8):
            calls.clear()
            code, _, _ = run(capsys, "evaluate", canonical_path(depth, tmp_path))
            assert code == 0
            chain = {f"S_{i}" for i in range(depth + 1)} | {"Y_f"}
            assert [set(keep) for keep in calls] == [
                {"Y_h", "J_o", "U", "D", "Y_f"},
                {"J_o", "D", *chain},
                {"J_o", "D", "Y_f"},
            ], depth

    def test_entropies_per_report(self, capsys, monkeypatch):
        # The capacities and the confounding gap are views of one chain
        # decomposition each, the history MI is the naive capacity, and
        # each conditional MI reads four entropies, not ten.
        from causalrating import info, road_risk

        calls, per_cmi = [0], []

        def entropy(*args, real=info.entropy):
            calls[0] += 1
            return real(*args)

        def cmi(*args, real=info.conditional_mutual_information):
            before = calls[0]
            value = real(*args)
            per_cmi.append(calls[0] - before)
            return value

        monkeypatch.setattr(info, "entropy", entropy)
        for mod in (info, road_risk):
            monkeypatch.setattr(mod, "conditional_mutual_information", cmi)
        code, _, _ = run(capsys, "evaluate", SCENARIO)
        assert code == 0
        assert per_cmi and max(per_cmi) <= 4
        assert calls[0] <= 70

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

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("default", [SCENARIO]),
            ("mediation", [MEDIATED]),
            ("mediation_observed_X_c", [MEDIATED, "--observed", "X_c"]),
            ("depth7", None),
        ],
    )
    def test_matches_golden(self, capsys, tmp_path, name, argv):
        argv = argv or [canonical_path(7, tmp_path)]
        code, out, _ = run(capsys, "report", *argv)
        assert code == 0
        assert approx_equal(json.loads(out), json.loads(REPORT_GOLDEN.read_text())[name])

    def test_empty_observed_conditions_on_nothing(self, capsys):
        # An explicit --observed with no names is the empty set, not the
        # scenario default {J_o, D}.
        from causalrating import build_scenario, default_scenario, noise_verdict

        code, out, _ = run(capsys, "report", SCENARIO, "--observed")
        assert code == 0
        want = noise_verdict(build_scenario(default_scenario()).dag, "Y_h", "Y_f", set()).to_json()
        assert json.loads(out)["verdict"] == want
        assert want["verdict"] == "Signal"

    def test_depth_18(self, capsys, tmp_path):
        code, out, _ = run(capsys, "report", canonical_path(18, tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"]["verdict"] == "Noise"
        cap = doc["capacity_bits"]
        assert abs(cap["augmented_bms"] - cap["phyd_major"] - cap["phyd_minor"]) <= 1e-9

    @pytest.mark.parametrize(
        "model,flag", [(SCENARIO, "--history"), (SCENARIO, "--outcome"), (MEDIATED, "--behavior")]
    )
    def test_latent_name_exit_2(self, capsys, model, flag):
        code, out, err = run(capsys, "report", model, flag, "U")
        assert (code, out) == (2, "")
        assert err == "error: UnknownVariable: unknown variable: 'U'\n"

    def test_unknown_name_exit_2(self, capsys):
        code, out, err = run(capsys, "report", SCENARIO, "--history", "Q")
        assert (code, out) == (2, "")
        assert err == "error: UnknownNodeError: unknown node: 'Q'\n"

    @pytest.mark.parametrize("name,observed", [("mediation", ()), ("mediation_observed_X_c", {"X_c"})])
    def test_library_call_matches_golden(self, name, observed):
        from causalrating import confounded_mediation_example, rating_report

        want = json.loads(REPORT_GOLDEN.read_text())[name]
        got = rating_report(confounded_mediation_example(), observed=observed)
        assert approx_equal({"schema_version": want["schema_version"], **got}, want)

    def test_traffic_history_matches_dense_joint(self, capsys):
        from causalrating import (
            build_scenario, default_scenario, exact_joint, marginal, noise_verdict, rating_comparison,
        )

        code, out, _ = run(capsys, "report", SCENARIO, "--history", "T_1")
        assert code == 0
        doc = json.loads(out)
        scm = build_scenario(default_scenario())
        dense = marginal(exact_joint(scm), {"T_1", "D", "Y_f"})
        assert approx_equal(doc["capacity_bits"], rating_comparison(dense, "T_1", "D", "Y_f").to_json())
        assert doc["capacity_bits"]["naive_bms"] > 0.0
        assert doc["verdict"] == noise_verdict(scm.dag, "T_1", "Y_f", {"J_o", "D"}).to_json()


class TestNarrowJointOracle:
    """Each report field read from a small joint equals the same field
    read from the full observable joint."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_report_capacity_matches_full_joint(self, capsys, data):
        from causalrating import Dag, infer, random_scm, rating_comparison, scm_to_json
        from helpers import TEMPLATE_DAGS, random_dag

        if data.draw(st.booleans(), label="template"):
            dag = TEMPLATE_DAGS[data.draw(st.sampled_from(sorted(TEMPLATE_DAGS)), label="name")]
        else:
            base = random_dag(data.draw(st.integers(0, 10_000)), data.draw(st.integers(4, 6)))
            latent = data.draw(st.sampled_from(base.nodes), label="latent")
            dag = Dag(base.nodes, base.edges, [latent])
        observable = sorted(set(dag.nodes) - dag.latent)
        assume(len(observable) >= 3)
        history, behavior, outcome = data.draw(st.permutations(observable), label="roles")[:3]
        seed, card = data.draw(st.integers(0, 10_000)), data.draw(st.integers(2, 3))
        scm = random_scm(dag, seed, card=card)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "model.json"
            path.write_text(json.dumps(scm_to_json(scm)))
            code, out, _ = run(
                capsys, "report", str(path),
                "--history", history, "--behavior", behavior, "--outcome", outcome,
            )
        assert code == 0
        got = json.loads(out)["capacity_bits"]
        want = rating_comparison(infer(scm, observable), history, behavior, outcome).to_json()
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-12 for k in want), (got, want)

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_scenario_report_matches_observable_joint(self, depth):
        from causalrating import (
            canonical_scenario, mutual_information, naive_effect, observational_joint, rating_comparison,
        )
        from causalrating import evaluate_scenario

        s = canonical_scenario(depth)
        rep = evaluate_scenario(s)
        j = observational_joint(s)
        want = rating_comparison(j, "Y_h", "D", "Y_f").to_json()
        assert all(abs(rep["capacity_bits"][k] - want[k]) <= 1e-12 for k in want)
        assert abs(rep["history_outcome_mi_bits"] - mutual_information(j, {"Y_h"}, {"Y_f"})) <= 1e-12
        assert approx_equal(rep["effects"]["naive"], naive_effect(s, joint=j).to_json(), rel=1e-12)

    def test_both_readings_of_the_decision_information_agree(self, capsys):
        # capacity_bits.phyd_major and confounding_gap_bits.i_x_y are both
        # I(D; Y_f).  The report reads both off one joint, so they agree
        # bit for bit; read off two joints they differed in the last bits.
        code, out, _ = run(capsys, "evaluate", SCENARIO)
        assert code == 0
        doc = json.loads(out)
        assert doc["capacity_bits"]["phyd_major"] == doc["confounding_gap_bits"]["i_x_y"]

    @pytest.mark.parametrize("depth", [None, *range(1, 9)])
    def test_shared_joint_matches_the_standalone_functions(self, depth):
        from causalrating import (
            build_scenario, canonical_scenario, confounding_gap, default_scenario, infer,
            naive_effect, rating_comparison, rating_report,
        )
        from causalrating import evaluate_scenario

        s = default_scenario() if depth is None else canonical_scenario(depth)
        scm = build_scenario(s)
        rep = evaluate_scenario(s)
        report = rating_report(scm, "Y_h", "D", "Y_f", {"J_o", "D"})
        assert rep["history_verdict"] == report["verdict"]
        assert all(abs(rep["capacity_bits"][k] - v) <= 1e-12 for k, v in report["capacity_bits"].items())
        want = {
            "capacity_bits": rating_comparison(
                infer(scm, {"Y_h", "D", "Y_f"}), "Y_h", "D", "Y_f"
            ).to_json(),
            "confounding_gap_bits": confounding_gap(scm, "D", "Y_f", "U").to_json(),
        }
        for field, values in want.items():
            assert rep[field].keys() == values.keys()
            assert all(abs(rep[field][k] - values[k]) <= 1e-12 for k in values), field
        assert approx_equal(rep["effects"]["naive"], naive_effect(s).to_json(), rel=1e-12)


def _bench_module(name: str):
    """A module of the benchmark harness in ``bench/``, imported as is."""
    bench = str(pathlib.Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    return importlib.import_module(name)


@st.composite
def scenario_documents(draw, max_depth=12):
    """Scenario documents of the canonical shape (three claim-history
    values, three decisions, two traffic values) with random numbers.

    Every (J_o, D, peril trajectory) keeps a positive mass well clear of
    underflow: journey and escalation rates stay inside (0, 1) and
    ``u_prob`` below 1.  Otherwise a cell of the front-door estimate has
    no data, which ``evaluate`` refuses with exit 3 (PositivityViolation).
    """
    depth = draw(st.integers(1, max_depth), label="depth")
    prob, inner = st.floats(0.0, 1.0), st.floats(1e-6, 1.0 - 1e-6)

    def dist(n):
        w = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
        return [x / sum(w) for x in w]

    hazard = draw(prob, label="hazard")
    return {
        "schema_version": 1,
        "depth": depth,
        "decision_card": 3,
        "traffic_card": 2,
        "tta_thresholds": [4.0 * 0.5**i for i in range(depth + 1)],
        "y_h_prior": dist(3),
        "journey_rate": draw(st.lists(inner, min_size=3, max_size=3), label="journey_rate"),
        "decision_base": [dist(3), dist(3)],
        "traffic_dist": dist(2),
        "escalation": draw(
            st.lists(st.lists(st.lists(inner, min_size=2, max_size=2), min_size=3, max_size=3),
                     min_size=depth, max_size=depth),
            label="escalation",
        ),
        "accident_base": draw(st.lists(st.floats(0.0, 1.0 - hazard), min_size=2, max_size=2)),
        "confounder_strength": {
            "u_prob": draw(st.floats(0.0, 1.0, exclude_max=True), label="u_prob"),
            "decision_shift": draw(prob, label="decision_shift"),
            "hazard": hazard,
        },
    }


class TestClosedFormOracle:
    """``evaluate`` against the benchmark's closed-form road-risk chain,
    which is computed without this package."""

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(doc=scenario_documents())
    def test_evaluate_matches_closed_form(self, capsys, doc):
        workloads = _bench_module("workloads")
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "scenario.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "evaluate", str(path))
        assert (code, err) == (0, "")
        assert workloads.check_report(doc, out) is None


def _document_paths(doc, prefix=()):
    """The path of every value below the root of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from _document_paths(v, prefix + (k,))


def _value_at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _replace_at(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return doc


# Values no field of a scenario, SCM or graph document accepts: no number
# or boolean, no string that parses as a number or names a node (node
# names here carry capitals), and no empty container.
_JUNK_NAME = st.text(alphabet="xyz_-", min_size=1, max_size=3)
_JUNK = st.one_of(
    st.none(),
    _JUNK_NAME,
    st.lists(st.one_of(st.none(), _JUNK_NAME), min_size=1, max_size=3),
    st.dictionaries(_JUNK_NAME, st.none(), min_size=1, max_size=2),
)
_REQUIRED_KEYS = {
    "scenario": (
        "schema_version", "depth", "tta_thresholds", "y_h_prior", "journey_rate",
        "decision_base", "traffic_dist", "escalation", "accident_base", "confounder_strength",
    ),
    "scm": ("graph", "card", "cpt"),
    "graph": ("nodes", "edges"),
}
# An integer literal that JSON reads but no float holds.
_HUGE = 10**400


def _valid_document(kind: str) -> dict:
    doc = json.loads(pathlib.Path(SCENARIO if kind == "scenario" else MEDIATED).read_text())
    return doc["graph"] if kind == "graph" else doc


def _wrong_kinds(value) -> list:
    """Values of another kind than ``value``, a part of a shipped document.

    Every array of these documents holds items of one kind at one depth,
    so an array nested one level deeper is of a wrong kind too.  Integers
    in them are only counts and versions, never numbers of a float field.
    """
    wrong = [True, False, [value], {"x": value}]
    if type(value) is int:
        return wrong + [value + 0.5, float(value), str(value)]
    if type(value) is float:
        return wrong + [str(value), _HUGE, -_HUGE]
    if type(value) is str:
        return wrong + [0.5, 1]
    return wrong + [json.dumps(value), 0.5]


@st.composite
def malformed_documents(draw):
    """A valid scenario, SCM or graph document with one field removed,
    misspelled, or replaced by junk or by a value of a wrong kind, or a
    JSON value that is not an object at all."""
    kind = draw(st.sampled_from(sorted(_REQUIRED_KEYS)))
    doc = _valid_document(kind)
    how = draw(st.sampled_from(["not an object", "missing key", "junk value", "wrong kind", "misspelled field"]))
    if how == "not an object":
        return draw(st.one_of(st.none(), st.booleans(), st.integers(), _JUNK_NAME, st.lists(st.integers())))
    if how == "missing key":
        del doc[draw(st.sampled_from(_REQUIRED_KEYS[kind]))]
        return doc
    paths = list(_document_paths(doc))
    if how == "misspelled field":
        objects = [()] + [p for p in paths if isinstance(_value_at(doc, p), dict)]
        obj = _value_at(doc, draw(st.sampled_from(objects)))
        key = draw(st.sampled_from(sorted(obj)))
        spelled = draw(st.sampled_from([key.swapcase(), key + "s", key + "?", key[:-1], key.capitalize() + "_"]))
        assume(spelled != key)
        obj[spelled] = obj.pop(key)
        return doc
    path = draw(st.sampled_from(paths))
    if how == "wrong kind":
        return _replace_at(doc, path, draw(st.sampled_from(_wrong_kinds(_value_at(doc, path)))))
    return _replace_at(doc, path, draw(_JUNK))


def _misspelled(doc, path, key, spelled) -> dict:
    doc = copy.deepcopy(doc)
    obj = _value_at(doc, path)
    obj[spelled] = obj.pop(key)
    return doc


def _confounded_direct() -> dict:
    # Without its latent set, identify adjusts for U by the back door.
    return json.loads(pathlib.Path(CONFOUNDED).read_text())


def _tied_parents_scm() -> dict:
    """An SCM document whose ``parents`` key sets Y_f's rows over (Z, X_c),
    where the graph read from sorted edges orders them (X_c, Z)."""
    from causalrating import Dag, random_scm, scm_to_json

    dag = Dag(
        ["Y_h", "Z", "X_c", "Y_f"], [("Y_h", "Z"), ("Y_h", "X_c"), ("Z", "Y_f"), ("X_c", "Y_f")]
    )
    doc = json.loads(json.dumps(scm_to_json(random_scm(dag, 0, card={"Z": 3}))))
    assert doc["parents"]["Y_f"] == ["Z", "X_c"]
    return doc


def _every_command(path: str, out_csv: str):
    return [
        ["dsep", path, "--x", "Y_h", "--y", "Y_f"],
        ["verdict", path, "--candidate", "Y_h", "--outcome", "Y_f"],
        ["identify", path, "--do", "X_c", "--outcome", "Y_f"],
        ["report", path],
        ["simulate", path, "--n", "5", "--out", out_csv],
        ["evaluate", path],
    ]


class TestMalformedDocuments:
    """Every malformed input document exits 2 with a one-line error."""

    @staticmethod
    def _assert_exit_2_everywhere(capsys, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "doc.json"
            path.write_text(json.dumps(doc))
            for argv in _every_command(str(path), str(pathlib.Path(tmp) / "out.csv")):
                code, out, err = run(capsys, *argv)
                assert (code, out) == (2, ""), (argv, out, err)
                assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, (argv, err)

    @pytest.mark.parametrize(
        "doc",
        [
            5,
            None,
            {"schema_version": "x"},
            _replace_at(_valid_document("scm"), ("card", "Z"), "x"),
            {**_valid_document("scm"), "parents": 5},
            _replace_at(_valid_document("scm"), ("graph", "edges", 0), ["U"]),
            _replace_at(_valid_document("graph"), ("edges", 0), ["U"]),
            # A string or an object where an array is expected, which the
            # reader once took apart into one-letter names or keys.
            {"nodes": "XYZ", "edges": ["XY", "YZ"]},
            _replace_at(_valid_document("graph"), ("latent",), "U"),
            _replace_at(_valid_document("scm"), ("graph", "latent"), "U"),
            _replace_at(_valid_document("graph"), ("nodes",), dict.fromkeys(_valid_document("graph")["nodes"])),
            _replace_at(_valid_document("graph"), ("edges", 0), {"U": 0, "X_c": 0}),
            {**_valid_document("scm"), "parents": {"Y_f": "UZ"}},
            # A card that is not a JSON integer, which the reader once
            # cast (truncating 2.7 to 2).
            _replace_at(_valid_document("scm"), ("card", "Z"), "2"),
            _replace_at(_valid_document("scm"), ("card", "Z"), 2.7),
            # A scenario integer that is a float or a bool, which once
            # crashed with a TypeError.
            _replace_at(_valid_document("scenario"), ("depth",), 2.0),
            _replace_at(_valid_document("scenario"), ("decision_card",), 3.0),
            _replace_at(_valid_document("scenario"), ("traffic_card",), True),
            # A string where an array of numbers is expected, which the
            # reader once took apart into digits.
            _replace_at(_valid_document("scenario"), ("tta_thresholds",), "421"),
            _replace_at(_valid_document("scenario"), ("escalation",), [["01", "01", "01"]] * 2),
            # A number of a wrong kind, or a misspelled optional field,
            # which the readers once took for a different model.
            _replace_at(_valid_document("scenario"), ("confounder_strength", "u_prob"), "0.3"),
            _replace_at(_valid_document("scenario"), ("journey_rate",), [True, True, True]),
            _replace_at(_valid_document("scenario"), ("accident_base",), [False, 0.55]),
            _replace_at(_valid_document("scenario"), ("tta_thresholds",), {"4": 0, "2": 0, "1": 0}),
            _replace_at(_valid_document("scm"), ("cpt", "U"), [["0.5", "0.5"]]),
            _replace_at(_valid_document("scm"), ("cpt", "U"), [[True, False]]),
            _misspelled(_confounded_direct(), ("graph",), "latent", "Latent"),
            _misspelled(_tied_parents_scm(), (), "parents", "Parents"),
            _misspelled(_valid_document("graph"), (), "latent", "latent?"),
            # An integer literal beyond float range, which once crashed
            # with an OverflowError.
            _replace_at(_valid_document("scenario"), ("traffic_dist",), [_HUGE, 0.35]),
            _replace_at(_valid_document("scm"), ("cpt", "U", 0, 0), _HUGE),
            # CPT rows of unequal length.
            _replace_at(_valid_document("scm"), ("cpt", "U"), [[0.5, 0.5], [1.0]]),
        ],
        ids=[
            "five", "null", "schema-x", "card-x", "parents-5", "scm-edge-arity", "graph-edge-arity",
            "letter-graph", "graph-latent-string", "scm-latent-string", "graph-nodes-object",
            "graph-edge-object", "parents-string", "card-string", "card-float",
            "depth-float", "decision-card-float", "traffic-card-bool", "tta-string", "escalation-strings",
            "u-prob-string", "journey-rate-bools", "accident-base-false", "tta-object", "cpt-strings",
            "cpt-bools", "graph-Latent", "scm-Parents", "graph-latent?", "traffic-dist-huge", "cpt-huge",
            "cpt-ragged",
        ],
    )
    def test_reproduced_crashes(self, capsys, doc):
        self._assert_exit_2_everywhere(capsys, doc)

    def test_letter_graph_rejected_by_dsep(self, capsys, tmp_path):
        # Read as X -> Y -> Z, this graph once answered a query on X and Z.
        path = tmp_path / "letters.json"
        path.write_text(json.dumps({"nodes": "XYZ", "edges": ["XY", "YZ"]}))
        code, out, err = run(capsys, "dsep", str(path), "--x", "X", "--y", "Z")
        assert (code, out) == (2, "")
        assert "collection of names" in err

    @pytest.mark.parametrize(
        "kind,doc,want",
        [
            (
                "scenario", _replace_at(_valid_document("scenario"), ("depth",), 2.0),
                "ParameterError: depth: expected an integer, got 2.0",
            ),
            (
                "scenario", _replace_at(_valid_document("scenario"), ("confounder_strength", "u_prob"), "0.3"),
                "ParameterError: confounder_strength.u_prob: expected a finite number, got '0.3'",
            ),
            (
                "graph", _replace_at(_valid_document("graph"), ("edges", 0, 1), 5),
                "ParameterError: edges[0][1]: expected a name, got 5",
            ),
            (
                "graph", _replace_at(_valid_document("graph"), ("nodes",), "XYZ"),
                "ParameterError: nodes: expected a collection of names, got 'XYZ'",
            ),
            (
                "graph", _replace_at(_valid_document("graph"), ("edges", 0), ["U"]),
                "GraphError: edges[0]: expected a pair of node names, got ['U']",
            ),
            (
                "scm", _replace_at(_valid_document("scm"), ("card",), [2]),
                "ParameterError: card: expected an object, got [2]",
            ),
            (
                "scm", _replace_at(_valid_document("scm"), ("card", "Z"), "2"),
                "ShapeError: card.Z: expected an integer >= 2, got '2'",
            ),
            (
                "scenario", _replace_at(_valid_document("scenario"), ("confounder_strength",), 0.3),
                "ParameterError: confounder_strength: expected an object, got 0.3",
            ),
            (
                "scm", _misspelled(_valid_document("scm"), ("graph",), "latent", "Latent"),
                "ShapeError: scm.graph.Latent: unknown field",
            ),
            (
                "scenario", {k: v for k, v in _valid_document("scenario").items() if k != "depth"},
                "ParameterError: scenario.depth: missing field",
            ),
        ],
        ids=[
            "integer", "finite-number", "name", "array", "array-of-n", "object-of-kind", "object-value",
            "fields-object", "unknown-field", "missing-field",
        ],
    )
    def test_error_names_the_field(self, capsys, tmp_path, kind, doc, want):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = {"graph": ["dsep", str(path), "--x", "U", "--y", "Y_f"], "scm": ["report", str(path)],
                "scenario": ["evaluate", str(path)]}[kind]
        assert run(capsys, *argv) == (2, "", f"error: {want}\n")

    @pytest.mark.parametrize("command", ["evaluate", "report", "identify"])
    def test_misspelled_scenario_version_named_by_every_reader(self, capsys, tmp_path, command):
        # report and identify once took this for neither a scenario nor an SCM.
        doc = _misspelled(_valid_document("scenario"), (), "schema_version", "Schema_version")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        want = "error: ParameterError: scenario.Schema_version: unknown field\n"
        assert run(capsys, command, str(path)) == (2, "", want)

    def test_integer_literal_too_long_to_read(self, capsys, tmp_path):
        # More digits than Python's int-string limit: json.load itself
        # raises a ValueError, which once escaped as a traceback.
        path = tmp_path / "long.json"
        path.write_text('{"nodes": [' + "7" * 5000 + '], "edges": []}')
        code, out, err = run(capsys, "dsep", str(path), "--x", "U", "--y", "Y_f")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path} is not valid JSON: ") and err.count("\n") == 1

    def test_nesting_too_deep_to_read(self, tmp_path):
        # json.load's RecursionError once escaped as a traceback and exit 1.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        src = pathlib.Path(importlib.import_module("causalrating").__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "causalrating.cli", "evaluate", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize(
        "argv,doc",
        [
            # Integer literals in number fields.
            (["evaluate"], _replace_at(_valid_document("scenario"), ("traffic_dist",), [1, 0])),
            # A graph without ``latent``.
            (["dsep", "--x", "Y_h", "--y", "Y_f"], {"nodes": ["Y_h", "Y_f"], "edges": [["Y_h", "Y_f"]]}),
            # An SCM without ``parents``.
            (["report"], _valid_document("scm")),
        ],
        ids=["integer-numbers", "graph-without-latent", "scm-without-parents"],
    )
    def test_accepted_documents(self, capsys, tmp_path, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (0, ""), err
        assert json.loads(out)

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(doc=malformed_documents())
    def test_fuzzed_documents(self, capsys, doc):
        self._assert_exit_2_everywhere(capsys, doc)


class TestDecisionCounts:
    """Each identification criterion is decided once per request."""

    @staticmethod
    def _count(monkeypatch, argv) -> tuple:
        from causalrating import graph, identify

        counts = dict.fromkeys(["Dag", "frontdoor_failure", "open_trail"], 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("frontdoor_failure", "open_trail"):
            wrapped = counting(name, getattr(graph, name))
            monkeypatch.setattr(graph, name, wrapped)
            monkeypatch.setattr(identify, name, wrapped)
        monkeypatch.setattr(graph.Dag, "__init__", counting("Dag", graph.Dag.__init__))
        code = main(argv)
        return code, counts

    def test_evaluate_checks_the_frontdoor_once(self, capsys, monkeypatch):
        code, counts = self._count(monkeypatch, ["evaluate", SCENARIO])
        assert code == 0
        # One failure at J_o (D descends from it), one pass at D.  Only the
        # scenario graph is read: the front-door and Rule-2 cuts are views
        # of it, and the surgery copies it without reading it again.
        assert (counts["frontdoor_failure"], counts["Dag"]) == (2, 1)

    def test_backdoor_searched_once(self, capsys, monkeypatch):
        code, counts = self._count(monkeypatch, ["identify", MEDIATED, "--do", "Y_h", "--outcome", "Y_f"])
        assert code == 0 and json.loads(capsys.readouterr().out)["method"] == "backdoor"
        assert counts["open_trail"] == 1

    def test_refusal_reuses_the_empty_set_witness(self, capsys, monkeypatch):
        code, counts = self._count(monkeypatch, ["identify", CONFOUNDED, "--do", "X_c", "--outcome", "Y_f"])
        assert code == 3
        assert json.loads(capsys.readouterr().out)["error"]["witness"] == ["X_c", "U", "Y_f"]
        # The empty set, then every observed non-descendant of X_c.
        assert counts["open_trail"] == 2


class TestUsage:
    @pytest.mark.parametrize(
        "first,second",
        [
            (
                ["identify", SCENARIO, "--given", "Y_h", "--mediators", "S_1", "S_2"],
                ["identify", SCENARIO],
            ),
            (
                ["identify", MEDIATED, "--do", "X_c", "--outcome", "Y_f", "--mediators", "Z"],
                ["identify", MEDIATED, "--do", "X_c", "--outcome", "Y_f"],
            ),
            (
                ["verdict", "Fig1d", "--candidate", "Y_h", "--outcome", "Y_f", "--observed", "X_c"],
                ["verdict", "Fig1d", "--candidate", "Y_h", "--outcome", "Y_f"],
            ),
            (
                ["report", CONFOUNDED, "--observed", "X_c"],
                ["report", CONFOUNDED],
            ),
        ],
    )
    def test_parser_built_once_without_leaking_state(self, capsys, first, second):
        from causalrating import cli

        cli._build_parser.cache_clear()
        fresh = run(capsys, *second)
        assert cli._build_parser() is cli._build_parser()
        run(capsys, *first)
        assert run(capsys, *second) == fresh
        assert run(capsys, *first) != fresh

    # A command name first is read by that command's parser alone; each
    # outcome must be the full parser's: namespace, output and exit code.
    DISPATCH_CASES = {
        "templates": ["templates"],
        "templates-name": ["templates", "Fig6Canonical(2)", "--out", "t.json"],
        "dsep": ["dsep", "Fig1d", "--x", "Y_h", "--y", "Y_f", "--z", "X_c"],
        "identify": ["identify", MEDIATED, "--do", "X_c=1", "--outcome", "Y_f", "--given", "Y_h",
                     "--mediators", "Z", "--adjust", "--method", "frontdoor", "--out", "o.json"],
        "verdict": ["verdict", "Fig2b", "--candidate", "X_c", "--outcome", "Y_f", "--observed", "Y_h"],
        "simulate": ["simulate", SCENARIO, "--n", "10", "--seed", "0", "--out", "o.csv", "--summary", "s.json"],
        "evaluate": ["evaluate", SCENARIO, "--out", "o.json"],
        "report": ["report", CONFOUNDED, "--history", "Y_h", "--behavior", "X_c", "--outcome", "Y_f",
                   "--observed"],
        "extra-flag": ["dsep", "Fig1d", "--x", "Y_h", "--y", "Y_f", "--bogus"],
        "extra-flags-and-words": ["templates", "a", "b", "--bogus", "c"],
        "extra-word": ["evaluate", SCENARIO, "extra"],
        "missing-required-flag": ["dsep", "Fig1d", "--x", "Y_h"],
        "missing-required-flags": ["simulate", SCENARIO],
        "bad-method": ["identify", MEDIATED, "--method", "exact"],
        "bad-integer": ["simulate", SCENARIO, "--n", "ten", "--out", "o.csv"],
        "help": ["-h"],
        "long-help": ["--help"],
        "command-help": ["dsep", "-h"],
        "command-long-help": ["identify", "--help"],
        "help-prefix": ["dsep", "Fig1d", "--x", "A", "--y", "B", "--he"],
        "help-before-extra": ["verdict", "Fig1d", "-h", "--bogus"],
        "empty": [],
        "unknown-command": ["frobnicate"],
        "command-prefix": ["dse", "Fig1d", "--x", "Y_h", "--y", "Y_f"],
        "command-case": ["Dsep", "Fig1d", "--x", "Y_h", "--y", "Y_f"],
        "flag-first": ["--bogus", "dsep"],
        "separator-before-positional": ["templates", "--", "Fig1a"],
        "separator-before-flags": ["dsep", "--", "Fig1d", "--x", "A", "--y", "B"],
        "separator-then-extra": ["dsep", "Fig1d", "--x", "A", "--y", "B", "--", "extra"],
        "separator-first": ["--", "dsep", "Fig1d", "--x", "A", "--y", "B"],
        "separator-dash-name": ["evaluate", "--", "-scenario.json"],
    }

    @pytest.mark.parametrize("argv", DISPATCH_CASES.values(), ids=DISPATCH_CASES.keys())
    def test_each_command_parsed_as_by_the_full_parser(self, capsys, argv):
        from causalrating import cli

        def outcome(parse):
            try:
                args, code = parse(list(argv)), None
            except SystemExit as exc:
                args, code = None, exc.code
            out = capsys.readouterr()
            return args, out.out, out.err, code

        want = outcome(cli._build_parser().parse_args)
        assert outcome(cli._parse) == want
        if want[3] is None:
            assert want[0].command == argv[0]
        else:
            assert main(list(argv)) == (0 if want[3] == 0 else 2)

    def test_extra_arguments_refused_with_the_top_level_usage(self, capsys):
        code, out, err = run(capsys, "dsep", "Fig1d", "--x", "Y_h", "--y", "Y_f", "--bogus")
        assert (code, out) == (2, "")
        assert err.startswith("usage: causalrating [-h]")
        assert err.endswith("causalrating: error: unrecognized arguments: --bogus\n")

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "evaluate", "/nonexistent.json")
        assert code == 2

    def test_unknown_command_exit_2(self, capsys):
        code = main(["frobnicate"])
        assert code == 2
