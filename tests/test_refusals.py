"""Input checks that no other test reaches: each refusal's type, message and,
on the command line, exit code."""

import re

import numpy as np
import pytest

from causalrating import (
    Dag,
    Dataset,
    EmptyDataset,
    GraphError,
    JointTable,
    NormalizationError,
    NumericalConsistencyError,
    OverlapError,
    ShapeError,
    UnknownVariable,
    condition,
    conditional_mutual_information,
    empirical_joint,
    entropy,
    marginal,
    mutual_information,
    open_trail,
)
from causalrating.info import _cmi
from test_cli import SCENARIO, run


def refused(error, message, call, *args):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        call(*args)
    assert type(raised.value) is error


def two_by_two() -> JointTable:
    return JointTable(("A", "B"), (2, 2), [[0.25, 0.25], [0.25, 0.25]])


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
    ids=["marginal", "condition", "dataset-shape", "empty-dataset", "open-trail", "entropy",
         "mi-x", "mi-y", "cmi-x", "cmi-y"],
)
def test_empty_and_misshapen_inputs(error, message, call, args):
    refused(error, message, call, *args)


def test_do_value_must_be_an_integer(capsys):
    code, out, err = run(capsys, "identify", SCENARIO, "--do", "D=abc")
    assert (code, out, err) == (2, "", "error: --do D=abc: value must be an integer\n")


def test_simulate_seed_variable_must_be_an_integer(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CAUSALRATING_SEED", "abc")
    out = tmp_path / "j.csv"
    code, text, err = run(capsys, "simulate", SCENARIO, "--n", "5", "--out", str(out))
    assert (code, text, err) == (2, "", "error: CAUSALRATING_SEED must be an integer, got 'abc'\n")
    assert not out.exists()
