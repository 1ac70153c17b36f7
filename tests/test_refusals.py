"""Input checks that no other test reaches: each refusal's type, message and,
on the command line, exit code; and the rule that each refusal is raised in
one place."""

import ast
import collections
import pathlib
import re

import numpy as np
import pytest

from causalrating import (
    Dag,
    Dataset,
    DiscreteScm,
    EmptyDataset,
    GraphError,
    JointTable,
    NormalizationError,
    NumericalConsistencyError,
    OverlapError,
    ShapeError,
    UnknownVariable,
    ZeroProbabilityEvidence,
    condition,
    conditional_mutual_information,
    empirical_joint,
    entropy,
    infer,
    marginal,
    mutual_information,
    open_trail,
    random_scm,
    rating_comparison,
)
import causalrating
from causalrating import identify
from causalrating.graph import _cut
from causalrating.info import ChainDecomposition, _cmi, _mi
from helpers import random_joint
from test_cli import SCENARIO, run

SRC = pathlib.Path(causalrating.__file__).parent


def refused(error, message, call, *args):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call(*args)
    assert type(raised.value) is error


def two_by_two() -> JointTable:
    return JointTable(("A", "B"), (2, 2), [[0.25, 0.25], [0.25, 0.25]])


def a_to_b() -> DiscreteScm:
    """A -> B, where A is never 1."""
    return DiscreteScm(Dag(["A", "B"], [("A", "B")]), {"A": 2, "B": 2},
                       {"A": [[1.0, 0.0]], "B": [[0.5, 0.5], [0.5, 0.5]]})


@pytest.mark.parametrize(
    "error,message,call,args",
    [
        (ShapeError, "probs shape (2,) != cards (3,)", JointTable, (("A",), (3,), [0.5, 0.5])),
        (NormalizationError, "negative mass: -0.5", JointTable, (("A",), (2,), [1.5, -0.5])),
        (NormalizationError, "mass sums to 0.9, not 1", JointTable, (("A",), (2,), [0.5, 0.4])),
        (GraphError, "duplicate node names", Dag, (["A", "A"], [])),
        (GraphError, "invalid node name: 'A b'", Dag, (["A b"], [])),
        (GraphError, "duplicate edges", Dag, (["A", "B"], [("A", "B"), ("A", "B")])),
    ],
    ids=["probs-shape", "negative-mass", "mass-sum", "duplicate-nodes", "node-name", "duplicate-edges"],
)
def test_constructor_refusals(error, message, call, args):
    refused(error, message, call, *args)


def test_cmi_routes_that_round_apart_are_refused():
    # H(X,Z) = H(X,Y,Z) = 1e17 and H(Y,Z) = 1: the second route adds 1 to 1e17,
    # where a float's spacing is 16, and loses it.
    h = {"Z": 0.0, "XZ": 1e17, "YZ": 1.0, "XYZ": 1e17}
    refused(
        NumericalConsistencyError, "CMI routes disagree: 1.0 vs 0.0",
        _cmi, lambda S: h["".join(sorted(S))], {"X"}, {"Y"}, {"Z"},
    )


@pytest.mark.parametrize(
    "error,message,call,args",
    [
        (UnknownVariable, "keep set must be nonempty", marginal, (two_by_two(), ())),
        (UnknownVariable, "keep set must be nonempty", infer, (a_to_b(), ())),
        (UnknownVariable, "variable list must be nonempty", empirical_joint,
         (Dataset(("A", "B"), (2, 2), np.zeros((2, 2), np.uint8), 0), ())),
        (UnknownVariable, "conditioning on every variable leaves nothing", condition, (two_by_two(), {"A": 0, "B": 1})),
        (ShapeError, "rows must be (n, len(vars))", Dataset, (("A", "B"), (2, 2), np.zeros((3, 3), np.uint8), 0)),
        (EmptyDataset, "dataset has no rows", empirical_joint,
         (Dataset(("A", "B"), (2, 2), np.zeros((0, 2), np.uint8), 0), ("A",))),
        (OverlapError, "X and Y must be nonempty", open_trail, (Dag(["A", "B"], [("A", "B")]), (), {"B"}, ())),
        (UnknownVariable, "X must be nonempty", entropy, (two_by_two(), ())),
        (OverlapError, "X and Y must be nonempty", mutual_information, (two_by_two(), (), {"B"})),
        (OverlapError, "X and Y must be nonempty", mutual_information, (two_by_two(), {"A"}, ())),
        (OverlapError, "X and Y must be nonempty", conditional_mutual_information, (two_by_two(), (), {"B"}, ())),
        (OverlapError, "X and Y must be nonempty", conditional_mutual_information, (two_by_two(), {"A"}, (), ())),
    ],
    ids=["marginal", "infer", "empirical-joint", "condition", "dataset-shape", "empty-dataset", "open-trail", "entropy",
         "mi-x", "mi-y", "cmi-x", "cmi-y"],
)
def test_empty_and_misshapen_inputs(error, message, call, args):
    refused(error, message, call, *args)


@pytest.mark.parametrize(
    "call,args",
    [
        (condition, (JointTable(("A", "B"), (2, 2), [[0.5, 0.5], [0.0, 0.0]]), {"A": 1})),
        (infer, (a_to_b(), {"B"}, {"A": 1})),
    ],
    ids=["condition", "infer"],
)
def test_evidence_of_zero_mass(call, args):
    refused(ZeroProbabilityEvidence, "P({'A': 1}) = 0", call, *args)


@pytest.mark.parametrize(
    "value,message",
    [
        (Dag(["A"], []), "Dag is immutable"),
        (random_scm(Dag(["A"], []), 0), "DiscreteScm is immutable"),
        (_cut(Dag(["A", "B"], [("A", "B")]), out_of={"A"}), "a cut is read-only"),
    ],
    ids=["dag", "scm", "cut"],
)
def test_values_are_immutable(value, message):
    refused(AttributeError, message, setattr, value, "_parents", {})


def test_mi_below_zero_past_the_tolerance_is_refused():
    # I(X; Y) = H(Y) - (H(X, Y) - H(X)) = 0 - (1 - 0).
    h = {"X": 0.0, "Y": 0.0, "XY": 1.0}
    refused(NumericalConsistencyError, "MI = -1.0 < -1e-09", _mi, lambda S: h["".join(sorted(S))], {"X"}, {"Y"})


def test_augmented_capacity_below_naive_is_refused(monkeypatch):
    # The chain rule makes this impossible on a real joint; a stand-in
    # decomposition where I(yh, xc; yf) < I(xc; yf) reaches the check.
    monkeypatch.setattr(identify, "chain_decompositions", lambda *args: ChainDecomposition(0.0, 0.0, 0.0, 1.0, 0.0))
    refused(NumericalConsistencyError, "augmented capacity below naive capacity",
            rating_comparison, random_joint(0), "A", "B", "C")


def test_nesting_too_deep_to_read_in_process(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    want = f"error: {path} nests arrays or objects deeper than the JSON reader allows\n"
    assert run(capsys, "evaluate", str(path)) == (2, "", want)


def test_do_value_must_be_an_integer(capsys):
    code, out, err = run(capsys, "identify", SCENARIO, "--do", "D=abc")
    assert (code, out, err) == (2, "", "error: --do D=abc: value must be an integer\n")


def test_simulate_seed_variable_must_be_an_integer(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CAUSALRATING_SEED", "abc")
    out = tmp_path / "j.csv"
    code, text, err = run(capsys, "simulate", SCENARIO, "--n", "5", "--out", str(out))
    assert (code, text, err) == (2, "", "error: CAUSALRATING_SEED must be an integer, got 'abc'\n")
    assert not out.exists()


def _templates(message) -> list:
    """The message templates that the expression ``message`` can build: a
    string as it is, an f-string with ``{}`` for each replacement field, and
    each branch of a conditional expression."""
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return [message.value]
    if isinstance(message, ast.JoinedStr):
        return ["".join(v.value if isinstance(v, ast.Constant) else "{}" for v in message.values)]
    if isinstance(message, ast.IfExp):
        return _templates(message.body) + _templates(message.orelse)
    return []


def test_each_refusal_is_raised_in_one_place():
    sites = collections.defaultdict(list)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                for template in _templates(node.exc.args[0]):
                    sites[ast.unparse(node.exc.func), template].append(f"{path.name}:{node.lineno}")
    assert {k: v for k, v in sites.items() if len(v) > 1} == {}
